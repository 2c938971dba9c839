"""The model-family table, deterministic data generators, the trial loop,
and table metrics.

Every simulation setup studied here is reproducible from an experiment
spec and a master seed: trial ``s`` draws from the Philox substream keyed
by ``(s, 0)``. The replicate bank of method ``k`` is drawn by
:func:`core.fit` from the substream ``(0,)`` of its own 32-bit master
seed, which :func:`_mc_for` derives from the spec's seed and the key
``(s, 1 + k)``. Results are therefore independent of the execution order
and of the number of worker processes.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import expit, ndtri

from . import ar1, binary, core, optim, weibull
from .core import ClusteredDataset, MonteCarloConfig, substream


class InsufficientTrialsError(ValueError):
    """Fewer than two usable trials; spread metrics are undefined."""


class OddClusterSizeError(ValueError):
    """The survival design needs an even number of periods per cluster."""


VALID_LAMBDA_GENERATORS = ("normal", "covariate-correlated")


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation study: design sizes, truth, methods and seed."""

    model: str
    n_clusters: int
    t_periods: int
    n_trials: int
    methods: tuple[str, ...]
    replicates: int = 500
    seed: int = core.DEFAULT_SEED
    link: str = "logit"
    mechanism: str = "mcar"
    beta: tuple[float, ...] = (1.0,)
    gamma1: tuple[float, ...] = (2.5,)
    gamma2: float = 0.0
    xi: float = 1.5
    censoring_share: float | None = None
    rho: float = 0.5
    sigma2: float = 1.0
    lambda_generator: str = "normal"

    def __post_init__(self):
        if self.model not in FAMILIES:
            raise ValueError(f"unknown model {self.model!r}")
        if min(self.n_clusters, self.t_periods, self.n_trials, self.replicates) < 1:
            raise ValueError("design counts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed {self.seed} must be non-negative")
        for name in ("beta", "gamma1", "gamma2", "xi", "rho", "sigma2"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.lambda_generator not in VALID_LAMBDA_GENERATORS:
            raise ValueError(f"unknown lambda generator {self.lambda_generator!r}")
        FAMILIES[self.model].check_spec(self)
        with np.errstate(over="ignore"):
            truth = FAMILIES[self.model].truth(self)
        bad = sorted(name for name, value in truth.items() if not np.isfinite(value))
        if bad:
            raise ValueError(f"the design's true {', '.join(bad)} is not finite")
        if not self.methods:
            raise ValueError("at least one method is required")
        for m in self.methods:
            model, name = _analysis_model(self, m)
            if name == "mpl-exact" and not model.has_exact_expectation():
                raise ValueError(f"method {m!r}: mpl-exact has no closed form for "
                                 "this model and mechanism")


def _parse_method(kind: str, method: str):
    """Split an optional analysis-mechanism prefix off a method tag."""
    mechanism = None
    name = method
    if ":" in method:
        mechanism, name = method.split(":", 1)
        choices = FAMILIES[kind].mechanisms
        if mechanism not in choices:
            raise ValueError(f"unknown mechanism prefix in {method!r}; the {kind} "
                             f"model takes {', '.join(choices) or 'none'}")
    if name not in core.FIT_METHODS:
        raise ValueError(f"unknown method {name!r}")
    return mechanism, name


def _analysis_model(spec, method: str):
    """The model a method tag fits, and the bare method name."""
    mechanism, name = _parse_method(spec.model, method)
    return FAMILIES[spec.model].model(spec.link, mechanism or spec.mechanism), name


@dataclass
class MetricsRow:
    method: str
    parameter: str
    bias: float
    median_bias: float
    sd: float
    rmse: float
    mae: float
    se_over_sd: float
    coverage: float
    n_failed_trials: int


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[MetricsRow]
    trials: list | None = None


# ---------------------------------------------------------------------------
# data generators
# ---------------------------------------------------------------------------

def _draw_lambda(spec, x, rng, mean, sd):
    if spec.lambda_generator == "covariate-correlated":
        return x.mean(axis=1) + rng.standard_normal(spec.n_clusters)
    return mean + sd * rng.standard_normal(spec.n_clusters)


def generate_binary_dataset(spec: ExperimentSpec, rng) -> tuple[ClusteredDataset, dict]:
    """Response and missingness draws for the binary selection design."""
    n, t = spec.n_clusters, spec.t_periods
    link = binary.get_link(spec.link)
    x = -0.35 + rng.standard_normal((n, t))
    if spec.link == "probit":
        lam = _draw_lambda(spec, x, rng, -0.22, np.sqrt(0.39))
    else:
        lam = _draw_lambda(spec, x, rng, -0.35, 1.0)
    beta = np.asarray(spec.beta, dtype=float)
    with np.errstate(over="ignore"):  # an infinite predictor: probability 0 or 1
        eta = lam[:, None] + beta[0] * x
        y = (rng.random((n, t)) < link.cdf(eta)).astype(float)
        zeta = expit(np.asarray(spec.gamma1)[0] * x + spec.gamma2 * y)
    miss = (rng.random((n, t)) < zeta).astype(float)
    data = binary.make_binary_dataset(np.where(miss == 1.0, np.nan, y), x, miss)
    return data, _binary_truth(spec)


def generate_survival_dataset(spec: ExperimentSpec, rng) -> tuple[ClusteredDataset, dict]:
    """Censored Weibull draws with the rate calibrated to the target share."""
    n, t = spec.n_clusters, spec.t_periods
    x1 = np.zeros((n, t))
    x1[:, t // 2:] = 1.0
    x2 = rng.standard_normal((n, t))
    covariates = np.stack([x1, x2], axis=2)
    lam = 0.5 + 0.5 * rng.standard_normal(n)
    beta = np.asarray(spec.beta, dtype=float)
    skeleton = core.make_dataset(np.ones((n, t)), covariates)
    rate = weibull.calibrate_censoring_rate(spec.xi, beta, lam, skeleton,
                                            spec.censoring_share)
    eta = np.exp(-(lam[:, None] + covariates @ beta))
    with np.errstate(over="ignore"):
        fail = rng.standard_exponential((n, t)) ** (1.0 / spec.xi) / eta
    if not np.all(np.isfinite(fail) & (fail > 0.0)):
        raise core.NonFiniteDrawError("failure times overflow or underflow at this xi")
    cens = rng.exponential(1.0 / rate, (n, t))
    times = np.minimum(fail, cens)
    events = (fail <= cens).astype(float)
    data = weibull.make_survival_dataset(times, events, covariates)
    return data, {**_survival_truth(spec), "censoring_rate": rate}


def generate_ar1_dataset(spec: ExperimentSpec, rng) -> tuple[ClusteredDataset, dict]:
    """Recursive AR(1) draws with all initial conditions at zero."""
    n, t = spec.n_clusters, spec.t_periods
    lam = 1.0 + rng.standard_normal(n)
    eps = rng.standard_normal((n, t))
    sigma = np.sqrt(spec.sigma2)
    y = np.empty((n, t))
    prev = np.zeros(n)
    # a series too large for the fit fails its optim.check_scale
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(t):
            prev = lam + spec.rho * prev + sigma * eps[:, k]
            y[:, k] = prev
    data = ar1.make_panel_dataset(y, np.zeros(n))
    return data, _panel_truth(spec)


def generate_dataset(spec: ExperimentSpec, rng):
    return FAMILIES[spec.model].generate(spec, rng)


# ---------------------------------------------------------------------------
# the model families
# ---------------------------------------------------------------------------

def _check_binary_spec(spec):
    if len(spec.beta) != 1 or len(spec.gamma1) != 1:
        raise ValueError("the binary design has one covariate; beta and "
                         "gamma1 need one component each")


def _without_options(make):
    """The model factory of a family that reads no link or mechanism; any
    but the defaults is an error, not ignored."""
    def model(link, mechanism):
        for name, value, default in (("link", link, "logit"),
                                     ("mechanism", mechanism, "mcar")):
            if value != default:
                raise ValueError(f"{name} {value!r} applies to the binary model only")
        return make()
    return model


def _check_normal_intercepts(spec):
    if spec.lambda_generator != "normal":
        raise ValueError(f"lambda_gen {spec.lambda_generator!r} applies to the "
                         "binary model only")


def _check_survival_spec(spec):
    _check_normal_intercepts(spec)
    if not spec.xi > 0.0:
        raise ValueError("xi must be positive")
    if spec.censoring_share is None or not 0.0 < spec.censoring_share < 1.0:
        raise ValueError("weibull experiments need censoring_share in (0, 1)")
    if spec.t_periods % 2:
        raise OddClusterSizeError("t_periods must be even for the "
                                  "half-and-half covariate design")
    if len(spec.beta) != 2:
        raise ValueError("the survival design has two covariates; "
                         "beta needs two components")


def _check_panel_spec(spec):
    _check_normal_intercepts(spec)
    if not spec.sigma2 > 0.0:
        raise ValueError("the AR(1) design needs sigma2 > 0")
    if spec.t_periods < 2:
        raise ValueError("the AR(1) design needs t_periods >= 2")


def _binary_truth(spec):
    return {"beta1": float(spec.beta[0]), "gamma1_1": float(spec.gamma1[0]),
            "gamma2": spec.gamma2}


def _survival_truth(spec):
    beta = np.asarray(spec.beta, dtype=float)
    return {"xi": spec.xi, "beta1": beta[0], "beta2": beta[1],
            "rr1": weibull.relative_risk(spec.xi, beta[0]),
            "rr2": weibull.relative_risk(spec.xi, beta[1])}


def _panel_truth(spec):
    return {"rho": spec.rho, "sigma2": spec.sigma2}


def _binary_row(y, missing):
    if missing not in (0.0, 1.0):
        raise ValueError("missing must be 0/1")
    if missing == 1.0 and not np.isnan(y):
        raise ValueError("missing=1 rows must leave y empty")
    if missing == 0.0 and y not in (0.0, 1.0):
        raise ValueError("observed y must be 0/1")
    return y, missing


def _survival_row(time, event):
    if not time > 0.0:
        raise ValueError("time must be positive")
    if event not in (0.0, 1.0):
        raise ValueError("event must be 0/1")
    return time, event


def _relative_risks(fit):
    """Delta-method relative risks rr1..rrp of a survival fit."""
    return [(f"rr{j + 1}", *weibull.relative_risk_with_se(fit, j))
            for j in range(fit.psi_hat.size - 1)]


@dataclass(frozen=True)
class Family:
    """What the harness, the CLI and the dataset files know of one model family.

    A dataset file has the columns ``cluster``, ``t``, then ``columns``, then
    the covariates ``x1..xp``; ``read_row`` checks one row's ``columns``
    values (ValueError) and returns its response and indicator. Fits and
    traces of every family go through :mod:`core` alone, whose first model
    call, ``informative_mask``, rejects a dataset the family cannot fit.
    """

    model: Callable                # (link, mechanism) -> ClusteredModel
    generate: Callable             # (spec, rng) -> (dataset, truth)
    truth: Callable                # spec -> {parameter: true value}
    columns: tuple[str, ...]
    read_row: Callable
    check_spec: Callable = lambda spec: None  # ValueError: design it cannot simulate
    derived: Callable = lambda fit: []        # fit -> extra (name, estimate, se) rows
    nullable: tuple[str, ...] = ()            # file columns that may be left empty
    initial_row: bool = False                 # a t=0 row holds the initial condition
    mechanisms: tuple[str, ...] = ()          # method-tag prefixes: analysis mechanism


FAMILIES = {
    "binary": Family(
        model=binary.BinaryMissingModel, generate=generate_binary_dataset,
        truth=_binary_truth, columns=("y", "missing"), read_row=_binary_row,
        check_spec=_check_binary_spec,
        nullable=("y",), mechanisms=("mcar", "mnar")),
    "weibull": Family(
        model=_without_options(weibull.WeibullSurvivalModel),
        generate=generate_survival_dataset, truth=_survival_truth,
        columns=("time", "event"), read_row=_survival_row,
        check_spec=_check_survival_spec, derived=_relative_risks),
    "ar1": Family(
        model=_without_options(ar1.AR1PanelModel),
        generate=generate_ar1_dataset, truth=_panel_truth, columns=("y",),
        read_row=lambda y: (y, 0.0), check_spec=_check_panel_spec,
        initial_row=True),
}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def compute_metrics(estimates, ses, truth: float, method: str = "",
                    parameter: str = "", n_failed: int = 0) -> MetricsRow:
    """Bias, spread and 95% coverage summaries for one estimator.

    The empirical standard deviation uses the S-1 divisor while the root
    mean squared error uses S, matching the reported table conventions;
    an interval with infinite standard error counts as covering.
    """
    est = np.asarray(estimates, dtype=float)
    ses = np.asarray(ses, dtype=float)
    s = est.size
    if s < 2:
        raise InsufficientTrialsError("need at least two usable trials")
    z = ndtri(0.975)
    # a NaN standard error covers nothing; a huge truth gives infinite metrics
    with np.errstate(over="ignore", invalid="ignore"):
        err = est - truth
        sd = float(np.sqrt(((est - est.mean()) ** 2).sum() / (s - 1)))
        covered = (np.abs(err) <= z * ses) | np.isinf(ses)
        return MetricsRow(method=method, parameter=parameter, bias=float(err.mean()),
                          median_bias=float(np.median(est)) - truth, sd=sd,
                          rmse=float(np.sqrt((err ** 2).mean())),
                          mae=float(np.median(np.abs(err))),
                          se_over_sd=float(ses.mean() / sd) if sd > 0 else np.inf,
                          coverage=float(covered.mean()), n_failed_trials=n_failed)


# ---------------------------------------------------------------------------
# the trial loop
# ---------------------------------------------------------------------------

@dataclass
class TrialOutcome:
    """Per-method parameter estimates of one trial (None marks a failure)."""

    estimates: dict = field(default_factory=dict)


def _mc_for(spec: ExperimentSpec, trial: int, k: int) -> MonteCarloConfig:
    child = np.random.SeedSequence(entropy=int(spec.seed),
                                   spawn_key=(trial, 1 + k)).generate_state(1)[0]
    return MonteCarloConfig(replicates=spec.replicates, master_seed=int(child))


def _run_method(spec, method, data, mc, stages):
    """Fit one method once; a failed fit is counted as a failed trial, never
    refit. Methods with the same mechanism prefix fit the same model and
    share its profile stage through ``stages``."""
    model, name = _analysis_model(spec, method)
    prefix = method.rpartition(":")[0]
    if prefix not in stages:
        stages[prefix] = core.profile_stage(model, data)
    return core.fit(model, data, name, mc, stage=stages[prefix])


def _failed(fit) -> bool:
    """A fit that did not converge or has a non-finite standard error; a
    component frozen at a search bound has a NaN standard error."""
    return not fit.converged or bool(np.any(~np.isfinite(fit.std_errors)))


def _collect(spec, fit):
    """Map a fit to {parameter: (estimate, se)}, adding derived rows."""
    out = {name: (float(e), float(s))
           for name, e, s in zip(fit.param_names, fit.psi_hat, fit.std_errors)}
    out.update((name, (est, se)) for name, est, se in FAMILIES[spec.model].derived(fit))
    return out


def run_trial(spec: ExperimentSpec, trial: int) -> TrialOutcome:
    outcome = TrialOutcome()
    try:
        data, _ = generate_dataset(spec, substream(spec.seed, trial, 0))
    except optim.NumericalFailure:
        outcome.estimates = dict.fromkeys(spec.methods)
        return outcome
    stages = {}
    for k, method in enumerate(spec.methods):
        try:
            fit = _run_method(spec, method, data, _mc_for(spec, trial, k), stages)
        except optim.NumericalFailure:
            outcome.estimates[method] = None
            continue
        outcome.estimates[method] = None if _failed(fit) else _collect(spec, fit)
    return outcome


def run_experiment(spec: ExperimentSpec, threads: int = 1,
                   keep_trials: bool = False) -> ExperimentResult:
    """Generate, fit and summarize ``spec.n_trials`` independent trials.

    Trials whose data draw or fit raises :class:`optim.NumericalFailure`,
    or whose fit fails :func:`_failed`, are excluded from the metrics and
    counted per method. Aggregation follows trial order, so the output is
    byte-identical for any ``threads``. The pool forks all its workers at
    once, so it gets no more than there are trials or CPUs.
    """
    truth = FAMILIES[spec.model].truth(spec)
    indices = range(spec.n_trials)
    workers = min(threads, spec.n_trials, os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_trial, [spec] * spec.n_trials, indices))
    else:
        outcomes = [run_trial(spec, s) for s in indices]

    rows = []
    for method in spec.methods:
        per_trial = [o.estimates[method] for o in outcomes]
        usable = [p for p in per_trial if p is not None]
        n_failed = len(per_trial) - len(usable)
        if len(usable) < 2:
            raise InsufficientTrialsError(
                f"method {method!r} produced {len(usable)} usable trials")
        for parameter in usable[0]:
            est = [p[parameter][0] for p in usable]
            ses = [p[parameter][1] for p in usable]
            rows.append(compute_metrics(est, ses, truth.get(parameter, np.nan),
                                        method, parameter, n_failed))
    return ExperimentResult(spec=spec, rows=rows,
                            trials=outcomes if keep_trials else None)
