"""Delimited-text formats: datasets, experiment configs, result tables.

All files are comma-separated with a header row, '.' decimal separator
and newline line endings, so table values diff directly against published
numbers regardless of locale.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.stats import norm

from . import core
from .harness import FAMILIES, ExperimentSpec


class DataFileError(ValueError):
    """Malformed dataset file; carries a 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class ConfigError(ValueError):
    """Invalid experiment configuration file."""


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return "" if x is None or np.isnan(x) else repr(x)
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


# ---------------------------------------------------------------------------
# dataset files
# ---------------------------------------------------------------------------

def read_dataset(path, model: str) -> core.ClusteredDataset:
    """Parse a dataset file for the given model family.

    Covariate columns are x1..xp in order; clusters may appear in any row
    order but must be complete. Every cell must hold a finite number; only
    an empty cell of a nullable column (a missing binary ``y``) reads as
    NaN. Errors carry the offending line number.
    """
    if model not in FAMILIES:
        raise DataFileError(f"unknown model {model!r}")
    family = FAMILIES[model]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFileError("empty file", line=1) from None
        cols = [c.strip().lower() for c in header]
        for required in ("cluster", "t") + family.columns:
            if required not in cols:
                raise DataFileError(f"missing required column {required!r}", line=1)
        x_names = sorted((c for c in cols if c.startswith("x") and c[1:].isdigit()),
                         key=lambda c: int(c[1:]))
        if x_names and [int(c[1:]) for c in x_names] != list(range(1, len(x_names) + 1)):
            raise DataFileError("covariate columns must be x1..xp", line=1)
        idx = {c: k for k, c in enumerate(cols)}
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(cols):
                raise DataFileError(f"expected {len(cols)} fields, got {len(row)}",
                                    line=lineno)
            rows.append((lineno, row))
    if not rows:
        raise DataFileError("no data rows", line=2)

    def parse_float(value, lineno, name, allow_empty=False):
        value = value.strip()
        if value == "":
            if allow_empty:
                return np.nan
            raise DataFileError(f"empty value in column {name!r}", line=lineno)
        try:
            number = float(value)
        except ValueError:
            raise DataFileError(f"cannot parse {value!r} in column {name!r}",
                                line=lineno) from None
        if not np.isfinite(number):
            raise DataFileError(f"non-finite value {value!r} in column {name!r}",
                                line=lineno)
        return number

    clusters: dict[str, list] = {}
    for lineno, row in rows:
        label = row[idx["cluster"]].strip()
        t_val = parse_float(row[idx["t"]], lineno, "t")
        if t_val != int(t_val):
            raise DataFileError("t must be an integer", line=lineno)
        record = {"t": int(t_val), "line": lineno}
        # an initial-condition row leaves its covariate cells empty
        initial = family.initial_row and record["t"] == 0
        for name in cols:
            if name in ("cluster", "t") or (initial and name in x_names):
                continue
            record[name] = parse_float(row[idx[name]], lineno, name,
                                       allow_empty=name in family.nullable)
        clusters.setdefault(label, []).append(record)

    labels = tuple(clusters)
    return _assemble(family, labels, clusters, x_names)


def _assemble(family, labels, clusters, x_names):
    p = len(x_names)
    sizes = []
    for label in labels:
        recs = sorted(clusters[label], key=lambda r: r["t"])
        seen = [r["t"] for r in recs]
        if len(set(seen)) != len(seen):
            raise DataFileError(f"duplicate t in cluster {label!r}", line=recs[0]["line"])
        clusters[label] = recs
        sizes.append(len(recs) - int(family.initial_row))
    t_max = max(sizes)
    n = len(labels)
    resp = np.full((n, t_max), np.nan)
    ind = np.zeros((n, t_max))
    mask = np.zeros((n, t_max), dtype=bool)
    covs = np.zeros((n, t_max, p))
    init = np.zeros(n) if family.initial_row else None

    for i, label in enumerate(labels):
        recs = clusters[label]
        if family.initial_row:
            if recs[0]["t"] != 0:
                raise DataFileError(f"cluster {label!r} lacks the t=0 initial row",
                                    line=recs[0]["line"])
            init[i] = recs[0][family.columns[0]]
            recs = recs[1:]
            if not recs:
                raise DataFileError(f"cluster {label!r} has no periods after t=0",
                                    line=clusters[label][0]["line"])
        for k, rec in enumerate(recs):
            mask[i, k] = True
            for j, name in enumerate(x_names):
                covs[i, k, j] = rec[name]
            try:
                resp[i, k], ind[i, k] = family.read_row(*(rec[c] for c in family.columns))
            except ValueError as exc:
                raise DataFileError(str(exc), line=rec["line"]) from None

    data = core.ClusteredDataset(responses=resp, covariates=covs, indicators=ind,
                                 unit_mask=mask, initial_conditions=init,
                                 cluster_labels=labels)
    try:
        family.check_data(data)
    except ValueError as exc:
        raise DataFileError(str(exc)) from None
    return data


def write_dataset(data: core.ClusteredDataset, model: str, path) -> None:
    """Inverse of :func:`read_dataset`, used by exports and round-trip tests."""
    if model not in FAMILIES:
        raise ValueError(f"unknown model {model!r}")
    family = FAMILIES[model]
    x_names = [f"x{j + 1}" for j in range(data.n_covariates)]
    labels = (data.cluster_labels
              or tuple(str(i + 1) for i in range(data.n_clusters)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster", "t", *family.columns, *x_names])
        for i, label in enumerate(labels):
            if family.initial_row:
                writer.writerow([label, 0, _fmt(float(data.initial_conditions[i]))]
                                + [""] * (len(family.columns) - 1 + len(x_names)))
            t_out = 0
            for k in range(data.responses.shape[1]):
                if not data.unit_mask[i, k]:
                    continue
                t_out += 1
                values = (data.responses[i, k], data.indicators[i, k])
                writer.writerow([label, t_out]
                                + [_fmt(float(v)) for v in values[:len(family.columns)]]
                                + [_fmt(float(v)) for v in data.covariates[i, k]])


# ---------------------------------------------------------------------------
# experiment config files
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "model": ("model", str),
    "link": ("link", str),
    "mechanism": ("mechanism", str),
    "n": ("n_clusters", int),
    "t": ("t_periods", int),
    "s": ("n_trials", int),
    "r": ("replicates", int),
    "seed": ("seed", int),
    "beta": ("beta", "floats"),
    "gamma1": ("gamma1", "floats"),
    "gamma2": ("gamma2", float),
    "xi": ("xi", float),
    "rho": ("rho", float),
    "sigma2": ("sigma2", float),
    "pc": ("censoring_share", float),
    "lambda_gen": ("lambda_generator", str),
    "methods": ("methods", "strings"),
}

_REQUIRED_CONFIG = ("model", "n", "t", "s", "methods")


def read_config(path) -> ExperimentSpec:
    """Parse a flat key=value experiment configuration.

    Unknown keys are rejected by name before any computation starts.
    """
    raw: dict[str, str] = {}
    unknown = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            if key not in _CONFIG_KEYS:
                unknown.append(key)
                continue
            if key in raw:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            raw[key] = value
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [k for k in _REQUIRED_CONFIG if k not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    kwargs = {}
    for key, value in raw.items():
        field_name, kind = _CONFIG_KEYS[key]
        try:
            if kind == "floats":
                kwargs[field_name] = tuple(float(v) for v in value.split(","))
            elif kind == "strings":
                kwargs[field_name] = tuple(v.strip() for v in value.split(",") if v.strip())
            else:
                kwargs[field_name] = kind(value)
        except ValueError:
            raise ConfigError(f"cannot parse value {value!r} for key {key!r}") from None
    try:
        return ExperimentSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# ---------------------------------------------------------------------------
# result tables
# ---------------------------------------------------------------------------

def write_fit_results(path, fit: core.FitResult, level: float,
                      seed: int, replicates: int, extra_rows=()) -> None:
    z_crit = norm.ppf(0.5 * (1.0 + level))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["method", "parameter", "estimate", "std_error",
                         "z", "p_value", "ci_lo", "ci_hi"])
        rows = [(name, float(est), float(se))
                for name, est, se in zip(fit.param_names, fit.psi_hat,
                                         fit.std_errors)]
        rows.extend(extra_rows)
        for name, est, se in rows:
            if np.isfinite(se) and se > 0:
                z = est / se
                pval = 2.0 * norm.sf(abs(z))
                lo, hi = est - z_crit * se, est + z_crit * se
            else:
                z = pval = lo = hi = np.nan
            writer.writerow([fit.method, name] + [_fmt(v)
                            for v in (est, se, z, pval, lo, hi)])
        flags = ",".join(fit.warnings) if fit.warnings else "none"
        fh.write(f"# seed={seed} replicates={replicates} "
                 f"dropped_clusters={fit.dropped_clusters} "
                 f"converged={int(fit.converged)} flags={flags}\n")


def write_metrics(path, spec: ExperimentSpec, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["N", "T", "method", "parameter", "B", "MB", "SD",
                         "RMSE", "MAE", "SE_over_SD", "coverage", "failed_trials"])
        for row in rows:
            writer.writerow([spec.n_clusters, spec.t_periods, row.method,
                             row.parameter]
                            + [_fmt(v) for v in (row.bias, row.median_bias, row.sd,
                                                 row.rmse, row.mae, row.se_over_sd,
                                                 row.coverage)]
                            + [row.n_failed_trials])


def write_trace(path, grid, rel_profile, rel_mcmpl) -> None:
    """Trace grid with curves shifted to a common maximum of zero.

    Infeasible (-inf) grid points are written as empty cells.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param_value", "rel_profile", "rel_mcmpl"])
        for value, lp, lm in zip(grid, rel_profile, rel_mcmpl):
            writer.writerow([_fmt(float(value)),
                             _fmt(float(lp)) if np.isfinite(lp) else "",
                             _fmt(float(lm)) if np.isfinite(lm) else ""])
