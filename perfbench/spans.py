"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps public callables of mcmpl's modules from outside the
package: module functions are replaced by attribute, model methods on their
classes. Every call made while the wrappers are installed records one span
``[name, start, end, parent, nbytes]``; ``parent`` is the index of the
enclosing traced span (-1 at the top) and ``nbytes`` the computed size of a
returned replicate bank. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import defaultdict

import numpy as np

from mcmpl import ar1, binary, cli, core, harness, io, optim, weibull

#: (owner, attribute) pairs wrapped in the traced run; the span name is the
#: module's short name and the attribute, e.g. ``binary.build_replicates``
TARGETS = (
    (harness, "run_trial"), (harness, "generate_dataset"),
    (core, "fit"), (core, "profile_loglik"), (core, "modified_profile_loglik"),
    (optim, "maximize_multivariate"), (optim, "maximize_scalar_bounded"),
    (optim, "numerical_gradient"), (optim, "numerical_hessian"),
    # wrapped so that the maximizer it runs is not taken for a fit stage
    (binary, "fit_missingness_regression"),
    (binary.BinaryMissingModel, "constrained_nuisance"),
    (binary.BinaryMissingModel, "build_replicates"),
    (binary.BinaryMissingModel, "replicate_expectation"),
    (weibull, "calibrate_censoring_rate"),
    (weibull.WeibullSurvivalModel, "constrained_nuisance"),
    (weibull.WeibullSurvivalModel, "build_replicates"),
    (weibull.WeibullSurvivalModel, "replicate_expectation"),
    (ar1, "fit_bounded"),
    (ar1.AR1PanelModel, "build_replicates"),
    (ar1.AR1PanelModel, "replicate_expectation"),
    (io, "read_dataset"), (io, "write_fit_results"),
    (cli, "main"),
)

#: per-layer metrics in report order, with their units
LAYER_METRICS = (
    ("harness.run_trial.p50_s", "s"),
    ("harness.run_trial.p90_s", "s"),
    ("harness.generate_dataset.s", "s"),
    ("core.fit.calls", "count"),
    ("core.profile_loglik.calls", "count"),
    ("core.modified_profile_loglik.calls", "count"),
    ("core.modified_profile_loglik.self_s", "s"),
    ("core.stage.profile_s", "s"),
    ("core.stage.bank_s", "s"),
    ("core.stage.modified_s", "s"),
    ("core.stage.hessian_s", "s"),
    ("optim.maximize_multivariate.calls", "count"),
    ("optim.numerical_gradient.calls", "count"),
    ("optim.maximize_scalar_bounded.s", "s"),
    ("optim.numerical_hessian.s", "s"),
    ("binary.constrained_nuisance.calls", "count"),
    ("binary.constrained_nuisance.self_s", "s"),
    ("binary.build_replicates.s", "s"),
    ("binary.replicate_expectation.self_s", "s"),
    ("binary.bank_mb", "MB"),
    ("weibull.calibrate_censoring_rate.s", "s"),
    ("weibull.constrained_nuisance.self_s", "s"),
    ("weibull.build_replicates.s", "s"),
    ("weibull.replicate_expectation.self_s", "s"),
    ("weibull.bank_mb", "MB"),
    ("ar1.fit_bounded.s", "s"),
    ("ar1.build_replicates.s", "s"),
    ("ar1.replicate_expectation.self_s", "s"),
    ("ar1.bank_mb", "MB"),
    ("io.read_dataset.s", "s"),
    ("io.write_fit_results.s", "s"),
    ("trace.overhead_pct", "%"),
)


def _layer(owner) -> str:
    qualified = owner.__name__ if isinstance(owner, types.ModuleType) else owner.__module__
    return qualified.rsplit(".", 1)[-1]


def _bank_nbytes(bank) -> int:
    """Bytes held by the arrays of a replicate bank (computed, not measured)."""
    return int(sum(v.nbytes for v in vars(bank).values() if isinstance(v, np.ndarray)))


class SpanRecorder:
    """Records nested spans of the wrapped callables while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def install(self):
        for owner, attr in TARGETS:
            original = owner.__dict__[attr]
            name = f"{_layer(owner)}.{attr}"
            sizer = _bank_nbytes if attr == "build_replicates" else None
            setattr(owner, attr, self._wrap(name, original, sizer))
            self._originals.append((owner, attr, original))

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, sizer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if sizer is not None:
                span[4] = sizer(result)
            return result

        return wrapper

    def dump(self, path, **header):
        with open(path, "w") as fh:
            json.dump(dict(header, fields=["name", "start", "end", "parent", "nbytes"],
                           spans=self.spans), fh)


def layer_metrics(spans, units: int, overhead_pct: float) -> dict:
    """Per-layer metrics per unit of work (one trial or one CLI fit).

    ``.calls`` counts spans, ``.s`` sums their durations and ``.self_s``
    sums durations minus those of their direct traced children. The core
    stages are the direct children of each ``core.fit`` span: its first and
    second ``optim.maximize_multivariate`` (profile, modified), its
    ``build_replicates`` and its ``optim.numerical_hessian``.
    """
    duration = np.array([s[2] - s[1] for s in spans])
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    bank_bytes = defaultdict(int)
    stage = defaultdict(float)
    trial_times = []
    for i, (name, _, _, _, nbytes) in enumerate(spans):
        calls[name] += 1
        total[name] += duration[i]
        self_total[name] += duration[i] - sum(duration[c] for c in children[i])
        if nbytes:
            bank_bytes[name] = max(bank_bytes[name], nbytes)
        if name == "harness.run_trial":
            trial_times.append(duration[i])
        if name == "core.fit":
            maximizers = [c for c in children[i] if spans[c][0] == "optim.maximize_multivariate"]
            for key, picked in (("profile", maximizers[:1]), ("modified", maximizers[1:2])):
                stage[key] += sum(duration[c] for c in picked)
            for c in children[i]:
                if spans[c][0].endswith(".build_replicates"):
                    stage["bank"] += duration[c]
                elif spans[c][0] == "optim.numerical_hessian":
                    stage["hessian"] += duration[c]

    values = {}
    for metric, _ in LAYER_METRICS:
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls[name] / units
        elif kind == "s":
            values[metric] = total[name] / units
        elif kind == "self_s":
            values[metric] = self_total[name] / units
        elif kind == "bank_mb":
            values[metric] = bank_bytes[f"{name}.build_replicates"] / 1e6
    for key in ("profile", "bank", "modified", "hessian"):
        values[f"core.stage.{key}_s"] = stage[key] / units
    p50, p90 = np.percentile(trial_times, [50, 90]) if trial_times else (0.0, 0.0)
    values["harness.run_trial.p50_s"] = float(p50)
    values["harness.run_trial.p90_s"] = float(p90)
    values["trace.overhead_pct"] = overhead_pct
    return {metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in LAYER_METRICS}
