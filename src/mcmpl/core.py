"""Model-agnostic engine: profile likelihood, its Monte Carlo modification,
fitting, standard errors and Wald intervals.

A model plugs in through :class:`ClusteredModel`, which supplies per-cluster
log-likelihoods, nuisance scores and observed information, constrained
nuisance estimates, and a replicate bank drawn at the maximum likelihood
fit. Everything here operates on whole datasets at once; per-cluster values
come back as length-``N`` arrays.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import optim


class NoInformativeClustersError(optim.NumericalFailure):
    """Every cluster of the dataset is non-informative."""


class NonFiniteDrawError(optim.NumericalFailure):
    """A simulated dataset or replicate left the floating-point range."""


class NonPositiveSEError(ValueError):
    """A Wald interval was requested with a non-positive standard error."""


DEFAULT_SEED = 1729

#: methods recognised by :func:`fit`
FIT_METHODS = ("profile", "mpl-exact", "mcmpl")


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for the substream identified by ``key``.

    Distinct keys produce non-overlapping Philox streams, so parallel
    consumers derived from the same master seed never share draws.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ClusteredDataset:
    """Clustered observations in padded array form.

    ``responses`` holds NaN at padded slots and, for the missing-response
    model, at unobserved units. ``indicators`` carries the model-dependent
    0/1 flag (missingness or event). ``unit_mask`` marks real units, so
    ragged cluster sizes are supported.
    """

    responses: np.ndarray            # (N, T) float
    covariates: np.ndarray           # (N, T, p) float
    indicators: np.ndarray           # (N, T) float 0/1
    unit_mask: np.ndarray            # (N, T) bool
    initial_conditions: np.ndarray | None = None   # (N,) for AR(1)
    cluster_labels: tuple | None = None

    def __post_init__(self):
        n, t = self.responses.shape
        if self.covariates.shape[:2] != (n, t) or self.indicators.shape != (n, t):
            raise ValueError("array shapes disagree")
        if self.unit_mask.shape != (n, t):
            raise ValueError("unit_mask shape disagrees")
        ind = self.indicators[self.unit_mask]
        if ind.size and not np.isin(ind, (0.0, 1.0)).all():
            raise ValueError("indicators must be 0/1")
        if self.initial_conditions is not None and len(self.initial_conditions) != n:
            raise ValueError("one initial condition per cluster required")

    @property
    def n_clusters(self) -> int:
        return self.responses.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[2]

    @property
    def cluster_sizes(self) -> np.ndarray:
        return self.unit_mask.sum(axis=1)

    def subset(self, keep) -> "ClusteredDataset":
        keep = np.asarray(keep)
        labels = None
        if self.cluster_labels is not None:
            labels = tuple(np.asarray(self.cluster_labels, dtype=object)[keep])
        return ClusteredDataset(
            responses=self.responses[keep],
            covariates=self.covariates[keep],
            indicators=self.indicators[keep],
            unit_mask=self.unit_mask[keep],
            initial_conditions=None if self.initial_conditions is None
            else self.initial_conditions[keep],
            cluster_labels=labels,
        )


def make_dataset(responses, covariates=None, indicators=None, unit_mask=None,
                 initial_conditions=None, cluster_labels=None) -> ClusteredDataset:
    """Build a :class:`ClusteredDataset`, normalizing shapes.

    ``covariates`` may be omitted (no regressors), 2-d (single regressor)
    or 3-d; missing pieces default to fully-present units and zero
    indicators.
    """
    responses = np.asarray(responses, dtype=float)
    if responses.ndim == 1:
        responses = responses[None, :]
    n, t = responses.shape
    if covariates is None:
        covariates = np.zeros((n, t, 0))
    else:
        covariates = np.asarray(covariates, dtype=float)
        if covariates.ndim == 2:
            covariates = covariates[:, :, None]
    if indicators is None:
        indicators = np.zeros((n, t))
    indicators = np.asarray(indicators, dtype=float)
    if indicators.ndim == 1:
        indicators = indicators[None, :]
    if unit_mask is None:
        unit_mask = np.ones((n, t), dtype=bool)
    unit_mask = np.asarray(unit_mask, dtype=bool)
    init = None if initial_conditions is None else np.asarray(initial_conditions, dtype=float)
    return ClusteredDataset(responses=responses, covariates=covariates,
                            indicators=indicators, unit_mask=unit_mask,
                            initial_conditions=init, cluster_labels=cluster_labels)


@dataclass(frozen=True)
class MonteCarloConfig:
    """Replicate count and the master seed of the Philox substreams."""

    replicates: int = 500
    master_seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.master_seed < 0:
            raise ValueError(f"seed {self.master_seed} must be non-negative")

    def generator(self, *key: int) -> np.random.Generator:
        return substream(self.master_seed, *key)


@dataclass
class FitResult:
    """Estimates and diagnostics for one maximized objective."""

    psi_hat: np.ndarray
    std_errors: np.ndarray
    lambda_hat: np.ndarray
    max_value: float
    method: str
    converged: bool
    dropped_clusters: int
    param_names: tuple[str, ...]
    cov: np.ndarray | None = None
    iterations: int = 0
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class WaldInterval:
    lo: float
    hi: float
    level: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be inside (0, 1)")
        if self.lo > self.hi:
            raise ValueError("need lo <= hi")


class ClusteredModel(ABC):
    """Behavior a clustered-data model supplies to the engine.

    All array-returning methods are vectorized over clusters: ``lam`` and
    the return values are length-``N`` arrays aligned with the dataset.
    """

    @abstractmethod
    def param_names(self, data: ClusteredDataset) -> tuple[str, ...]: ...

    @abstractmethod
    def initial_psi(self, data: ClusteredDataset) -> np.ndarray: ...

    @abstractmethod
    def informative_mask(self, data: ClusteredDataset) -> np.ndarray: ...

    @abstractmethod
    def cluster_logliks(self, psi, lam, data) -> np.ndarray: ...

    @abstractmethod
    def nuisance_score(self, psi, lam, data) -> np.ndarray: ...

    @abstractmethod
    def nuisance_obs_info(self, psi, lam, data) -> np.ndarray: ...

    @abstractmethod
    def constrained_nuisance(self, psi, data) -> np.ndarray: ...

    def params_feasible(self, psi) -> bool:
        """Hard feasibility wall; infeasible psi makes every objective -inf."""
        return bool(np.all(np.isfinite(psi)))

    @abstractmethod
    def build_replicates(self, psi, lam, data, rng, n_replicates: int):
        """Simulate the replicate bank at the maximum likelihood fit.

        A bank holds what :meth:`replicate_expectation` reads, plus
        ``scores_at_mle``, the (R, N) nuisance scores of every replicate at
        ``(psi, lam)``: sufficient moments of the draws where a replicate's
        score is linear in them, or the draws themselves with their moments
        per shape value where it is not (Weibull). The AR(1) per-replicate
        sums and the Weibull ``event_sums`` stay until the Monte Carlo error
        estimate settles what it reads. :meth:`exact_bank` is a bank of the
        same type that holds exact expectations in place of the replicate means.
        """

    @abstractmethod
    def replicate_expectation(self, bank, psi, lam_psi, data) -> np.ndarray:
        """Per-cluster mean over the bank of the two-point score product."""

    def exact_bank(self, psi, lam, data):
        """A bank at the maximum likelihood fit ``(psi, lam)`` whose
        :meth:`replicate_expectation` is the exact expectation."""
        raise NotImplementedError(
            f"{type(self).__name__} supplies no exact expectation formula")

    def has_exact_expectation(self) -> bool:
        """Whether :meth:`exact_bank` has a closed form for this instance."""
        return False

    def maximize(self, objective, start, data, modified: bool,
                 grad=None) -> optim.OptimResult:
        """Maximize the profile (``modified`` False) or the modified objective
        from ``start``; a model with closed-form structure may shortcut it,
        and a model with a search bound may probe it.

        ``grad`` is the objective's :func:`envelope_gradient`: an array, or
        None where it cannot be formed, and the search then differentiates
        the objective numerically.
        """
        return optim.maximize_multivariate(objective, start, grad)

    def bound_hits(self, psi) -> dict[str, int]:
        """``{warning flag: index}`` of each component of psi pinned at a
        search bound; that component gets no standard error."""
        return {}


#: parts a model keeps: a gradient stencil alternates two points
_PART_MEMO = 2


def _recent(memo: dict, key, size: int, build, usable=lambda value: True):
    """``memo[key]`` where ``usable`` accepts it, else ``build()`` stored
    there; ``memo`` keeps the last ``size`` keys asked for, oldest first."""
    value = memo.pop(key, None)
    if value is None or not usable(value):
        if len(memo) >= size:
            del memo[next(iter(memo))]
        value = build()
    memo[key] = value
    return value


def drop_noninformative(model: ClusteredModel, data: ClusteredDataset):
    """Remove clusters that cannot contribute to the interest parameter."""
    mask = model.informative_mask(data)
    dropped = int((~mask).sum())
    return (data if dropped == 0 else data.subset(mask)), dropped


def _solve(model: ClusteredModel, data: ClusteredDataset, psi: np.ndarray, solves=None):
    """``model.constrained_nuisance(psi, data)``, read from ``solves`` when
    given: the memo of a :class:`ProfileStage`, which maps ``psi.tobytes()``
    to a read-only solve, so that no caller can change a value another one
    reads later."""
    if solves is None:
        return model.constrained_nuisance(psi, data)
    key = psi.tobytes()
    lam = solves.get(key)
    if lam is None:
        lam = solves[key] = model.constrained_nuisance(psi, data)
        lam.setflags(write=False)
    return lam


def _constrained(model: ClusteredModel, data: ClusteredDataset, psi, solves=None):
    """``(psi, lam_psi)`` with psi as an array; lam_psi is None where psi is
    infeasible or some constrained estimate is non-finite (a cluster that
    should have been dropped), and every objective is undefined there."""
    if data.n_clusters == 0:
        raise NoInformativeClustersError("no clusters left to profile")
    psi = np.atleast_1d(np.asarray(psi, dtype=float))
    if not model.params_feasible(psi):
        return psi, None
    lam = _solve(model, data, psi, solves)
    return psi, lam if np.all(np.isfinite(lam)) else None


def profile_loglik(model: ClusteredModel, data: ClusteredDataset, psi, *,
                   solves=None) -> float:
    """Sum of cluster log-likelihoods at the constrained nuisance estimates;
    ``-inf`` where :func:`_constrained` finds none. ``solves`` is the memo
    of a :class:`ProfileStage` on ``data``."""
    psi, lam = _constrained(model, data, psi, solves)
    if lam is None:
        return -np.inf
    return float(model.cluster_logliks(psi, lam, data).sum())


def _modification(model, data, psi, lam, bank):
    """The modification ``sum_i (0.5 log j_i - log E_i)`` at ``(psi, lam)``,
    with ``E_i`` the bank's expectation, replicate or exact.

    None whenever the observed information or the expectation is
    non-positive or non-finite for some cluster, which marks the
    modification as undefined there.
    """
    info = model.nuisance_obs_info(psi, lam, data)
    if np.any(info <= 0.0) or not np.all(np.isfinite(info)):
        return None
    expect = model.replicate_expectation(bank, psi, lam, data)
    if np.any(expect <= 0.0) or not np.all(np.isfinite(expect)):
        return None
    return float(0.5 * np.log(info).sum() - np.log(expect).sum())


def modified_profile_loglik(model, data, bank, psi, *, solves=None) -> float:
    """Profile log-likelihood plus the score-expectation modification over
    ``bank`` (from :meth:`ClusteredModel.build_replicates` or
    :meth:`ClusteredModel.exact_bank`); ``solves`` as in :func:`profile_loglik`.

    Returns ``-inf`` where the profile log-likelihood is not finite or the
    modification is undefined (see :func:`_modification`).
    """
    psi, lam_psi = _constrained(model, data, psi, solves)
    if lam_psi is None:
        return -np.inf
    lp = float(model.cluster_logliks(psi, lam_psi, data).sum())
    if not np.isfinite(lp):
        return -np.inf
    m = _modification(model, data, psi, lam_psi, bank)
    return -np.inf if m is None else lp + m


def envelope_gradient(model, data, psi, bank=None, *, solves=None, components=None):
    """Gradient of the profile log-likelihood, or of the modified one over
    ``bank`` when one is given, from one constrained solve at ``psi``, read
    from ``solves`` as in :func:`profile_loglik`; only the ``components``
    of psi listed (all by default) are differenced and returned.

    The nuisance score vanishes at lam_psi, so by the envelope theorem the
    profile part is the psi-derivative of the cluster log-likelihoods at
    fixed lam_psi. The modification moves with lam_psi as well: by the
    implicit function theorem d lam_psi / d psi_j is ``v_j = d_psi_j s / j``,
    and the modification is differenced along the tangent ``(e_j, v_j)``.
    Every derivative is a central difference with the steps of
    :func:`optim.numerical_gradient`, at fixed nuisance values, so no
    further solve is needed.

    Returns None where the gradient cannot be formed: ``psi`` or a stencil
    point is infeasible, lam_psi or the information at ``psi`` is not
    finite and positive, or a stencil value is not finite.
    """
    psi, lam = _constrained(model, data, psi, solves)
    if lam is None:
        return None
    modified = bank is not None
    if modified:
        info = model.nuisance_obs_info(psi, lam, data)
        if np.any(info <= 0.0) or not np.all(np.isfinite(info)):
            return None
    h = optim._steps(psi, 1e-5)
    components = range(psi.size) if components is None else components
    grad = np.empty(len(components))
    for i, j in enumerate(components):
        step = np.zeros(psi.size)
        step[j] = h[j]
        up, down = psi + step, psi - step
        if not (model.params_feasible(up) and model.params_feasible(down)):
            return None
        diff = float((model.cluster_logliks(up, lam, data)
                      - model.cluster_logliks(down, lam, data)).sum())
        if modified:
            ds = model.nuisance_score(up, lam, data) - model.nuisance_score(down, lam, data)
            shift = 0.5 * ds / info  # h_j v_j
            m_up = _modification(model, data, up, lam + shift, bank)
            m_down = _modification(model, data, down, lam - shift, bank)
            if m_up is None or m_down is None:
                return None
            diff += m_up - m_down
        if not np.isfinite(diff):
            return None
        grad[i] = diff / (2.0 * h[j])
    return grad


@dataclass(frozen=True)
class ProfileStage:
    """The informative clusters, the number dropped and the profile search
    over them, with ``solves``, the memo of every constrained solve made on
    them, keyed by ``psi.tobytes()``. Each search, gradient, standard error
    and ``lambda_hat`` of a fit started from the stage reads it, so each psi
    is solved once."""

    data: ClusteredDataset
    dropped: int
    search: optim.OptimResult
    solves: dict


def profile_stage(model: ClusteredModel, data: ClusteredDataset) -> ProfileStage:
    """Drop non-informative clusters and maximize the profile likelihood from
    the model's initial psi. :func:`fit` and :func:`trace_curves` start from
    the stage."""
    kept, dropped = drop_noninformative(model, data)
    if kept.n_clusters == 0:
        raise NoInformativeClustersError("all clusters are non-informative")
    solves = {}
    start = np.atleast_1d(np.asarray(model.initial_psi(kept), dtype=float))
    search = model.maximize(lambda psi: profile_loglik(model, kept, psi, solves=solves),
                            start, kept, modified=False,
                            grad=lambda psi: envelope_gradient(model, kept, psi,
                                                               solves=solves))
    return ProfileStage(kept, dropped, search, solves)


def fit(model: ClusteredModel, data: ClusteredDataset, method: str = "mcmpl",
        mc: MonteCarloConfig | None = None, stage=None) -> FitResult:
    """Drop non-informative clusters and maximize the requested objective.

    The profile likelihood is always fitted first; its maximizer seeds the
    modified-likelihood search, whose correction is O(1) against the
    O(NT) likelihood. The correction is taken over one bank built at that
    maximizer: the replicate bank (mcmpl) or the exact one (mpl-exact).
    Both searches run through :meth:`ClusteredModel.maximize` with the
    objective's :func:`envelope_gradient`. Standard errors come
    from the numerical Hessian of the maximized objective itself. ``stage``,
    a :func:`profile_stage` of the same model and data, replaces the profile
    search; every constrained solve of the fit goes through its memo.
    """
    if method not in FIT_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {FIT_METHODS}")
    if method == "mpl-exact" and not model.has_exact_expectation():
        raise ValueError("mpl-exact has no closed form for this model and "
                         "mechanism; use mcmpl")
    mc = mc or MonteCarloConfig()

    stage = stage or profile_stage(model, data)
    kept, prof, solves = stage.data, stage.search, stage.solves

    def lp(psi):
        return profile_loglik(model, kept, psi, solves=solves)

    warnings_: list[str] = []

    if method == "profile":
        objective, opt = lp, prof
    else:
        psi_mle = np.atleast_1d(np.asarray(prof.argmax, dtype=float))
        lam_mle = _solve(model, kept, psi_mle, solves)
        if method == "mcmpl":
            bank = model.build_replicates(psi_mle, lam_mle, kept,
                                          mc.generator(0), mc.replicates)
        else:
            bank = model.exact_bank(psi_mle, lam_mle, kept)

        def objective(psi):
            return modified_profile_loglik(model, kept, bank, psi, solves=solves)

        def gradient(psi):
            return envelope_gradient(model, kept, psi, bank, solves=solves)
        opt = model.maximize(objective, psi_mle, kept, modified=True, grad=gradient)
        if not prof.converged:
            warnings_.append("profile_stage_not_converged")

    psi_hat = np.atleast_1d(np.asarray(opt.argmax, dtype=float))
    names = model.param_names(kept)
    hits = model.bound_hits(psi_hat)
    warnings_.extend(hits)

    se, cov = _standard_errors(objective, psi_hat, frozen=tuple(hits.values()))
    if np.any(~np.isfinite(se)) and not hits:
        warnings_.append("hessian_not_negative_definite")

    lam_hat = np.array(_solve(model, kept, psi_hat, solves))
    return FitResult(psi_hat=psi_hat, std_errors=se, lambda_hat=lam_hat,
                     max_value=float(opt.value), method=method,
                     converged=bool(opt.converged), dropped_clusters=stage.dropped,
                     param_names=tuple(names), cov=cov,
                     iterations=opt.iterations, warnings=tuple(warnings_))


def _standard_errors(objective, psi_hat, frozen=()):
    """SEs from the inverse negative Hessian; frozen components get NaN.

    ``frozen`` lists indices pinned at a search bound (separation); the
    Hessian is then taken over the free block only, so the remaining
    components are still reported.
    """
    n = psi_hat.size
    free = [j for j in range(n) if j not in set(frozen)]

    def restricted(z):
        full = psi_hat.copy()
        full[free] = z
        return objective(full)

    se = np.full(n, np.nan)
    cov_full = None
    try:
        H = optim.numerical_hessian(restricted, psi_hat[free])
        cov = np.linalg.inv(-H)
        diag = np.diag(cov).copy()
        good = diag > 0
        diag[~good] = np.nan
        se[free] = np.sqrt(diag)
        cov_full = np.full((n, n), np.nan)
        cov_full[np.ix_(free, free)] = cov
    except (optim.NonFiniteEvaluationError, np.linalg.LinAlgError):
        pass
    return se, cov_full


def wald_interval(fit_result: FitResult, component: int, level: float = 0.95) -> WaldInterval:
    """Estimate +/- normal quantile times standard error."""
    se = float(fit_result.std_errors[component])
    if not se > 0.0:
        raise NonPositiveSEError(f"standard error {se} is not positive")
    z = ndtri(0.5 * (1.0 + level))
    est = float(fit_result.psi_hat[component])
    return WaldInterval(lo=est - z * se, hi=est + z * se, level=level)


def trace_curves(model: ClusteredModel, data: ClusteredDataset, mc: MonteCarloConfig,
                 param: str, grid):
    """Curves in one interest component, maximizing over the others from the
    :func:`profile_stage` maximizer, at which the replicate bank is drawn.
    Every family traces this way."""
    names = model.param_names(data)
    if param not in names:
        raise ValueError(f"unknown parameter {param!r}; choices: {', '.join(names)}")
    k = names.index(param)
    stage = profile_stage(model, data)
    kept, solves = stage.data, stage.solves
    psi_mle = np.atleast_1d(np.asarray(stage.search.argmax, dtype=float))
    bank = model.build_replicates(psi_mle, _solve(model, kept, psi_mle, solves),
                                  kept, mc.generator(0), mc.replicates)
    free = [j for j in range(len(names)) if j != k]

    def embed(value, rest):
        psi = np.empty(len(names))
        psi[k] = value
        psi[free] = rest
        return psi

    def maximize_rest(objective, curve_bank, value, rest):
        """Maximum over the other components at ``value``, searched with the
        free components of the :func:`envelope_gradient` over ``curve_bank``; the
        objective at ``rest`` itself where the search cannot start."""
        def grad(r):
            return envelope_gradient(model, kept, embed(value, r), curve_bank,
                                     solves=solves, components=free)

        if free:
            try:
                res = optim.maximize_multivariate(
                    lambda r: objective(embed(value, r)), rest, grad=grad)
                return res.value, np.asarray(res.argmax, dtype=float)
            except optim.NonFiniteStartError:
                pass
        return objective(embed(value, rest)), rest

    def lp(psi):
        return profile_loglik(model, kept, psi, solves=solves)

    def lm(psi):
        return modified_profile_loglik(model, kept, bank, psi, solves=solves)

    lp_curve, lm_curve = [], []
    rest_p = rest_m = psi_mle[free]
    for value in grid:
        val_p, rest_p = maximize_rest(lp, None, value, rest_p)
        val_m, rest_m = maximize_rest(lm, bank, value, rest_m)
        lp_curve.append(val_p)
        lm_curve.append(val_m)
    return lp_curve, lm_curve
