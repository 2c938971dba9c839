"""Stratified Weibull regression under independent right censoring.

The censoring law is left unspecified: replicate datasets resample
censoring times from the Kaplan-Meier estimate of the censoring survival
function through a conditional bootstrap, which is what makes the Monte
Carlo modification available without parametric censoring assumptions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import brentq

from . import optim
from .core import (_PART_MEMO, ClusteredDataset, ClusteredModel, NonFiniteDrawError,
                   _recent, make_dataset)

#: log-response placeholder for padded slots; exp(shape * _PAD) == 0
_PAD = -1e30


def _logsumexp_rows(a):
    """Row-wise log-sum-exp of a 2-d array, bit-identical to
    ``scipy.special.logsumexp(a, axis=1)``: the tied row maxima are split out
    of the sum, whose shifted remainder enters through ``log1p``."""
    a_max = a.max(axis=1)
    top = a == a_max[:, None]
    m = top.sum(axis=1).astype(float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        s = np.exp(np.where(top, -np.inf, a) - a_max[:, None]).sum(axis=1)
        out = np.log1p(s / m) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():  # rows without a finite maximum: the direct formula
            out[bad] = np.log(np.exp(a[bad]).sum(axis=1))
    return out


class NonPositiveTimeError(ValueError):
    """Survival data contained a time <= 0."""


class NonPositiveShapeError(ValueError):
    """The Weibull shape parameter must be positive."""


class EmptyDataError(ValueError):
    """No units available to estimate the censoring distribution."""


class NoSolutionInBracketError(optim.NumericalFailure):
    """Censoring-rate calibration found no root inside its bracket."""


@dataclass(frozen=True)
class KMCurve:
    """Right-continuous product-limit step function.

    ``survival_values[k]`` is the survival probability at and after
    ``jump_times[k]``; the curve is 1 before the first jump.
    """

    jump_times: np.ndarray
    survival_values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        s = np.asarray(self.survival_values, dtype=float)
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "survival_values", s)
        if t.shape != s.shape:
            raise ValueError("jump_times and survival_values must align")
        if t.size:
            if np.any(np.diff(t) <= 0):
                raise ValueError("jump times must be strictly increasing")
            if np.any(np.diff(s) >= 0) or np.any((s < 0) | (s >= 1)):
                raise ValueError("survival values must decrease from below 1")

    def evaluate(self, t):
        """S_C(t), vectorized."""
        t = np.asarray(t, dtype=float)
        if self.jump_times.size == 0:
            out = np.ones(t.shape)
            return out if out.ndim else 1.0
        idx = np.searchsorted(self.jump_times, t, side="right") - 1
        vals = np.where(idx >= 0,
                        self.survival_values[np.clip(idx, 0, None)], 1.0)
        return vals if vals.ndim else float(vals)

    def generalized_inverse(self, targets):
        """Smallest t with S_C(t) <= target; tail rule past the last jump.

        When the curve never reaches the target (it is bounded away from
        zero because the largest pooled time was a failure), draws map to
        the largest censoring jump; with no jumps at all the result is
        +inf (censoring never observed).
        """
        targets = np.asarray(targets, dtype=float)
        if self.jump_times.size == 0:
            out = np.full(targets.shape, np.inf)
            return out if out.ndim else float(out)
        idx = _count_above(self.survival_values, targets.reshape(-1))
        idx = np.minimum(idx, self.jump_times.size - 1)
        out = self.jump_times[idx].reshape(targets.shape)
        return out if out.ndim else float(out)


#: buckets of the table of :func:`_count_above`; a power of two, so that
#: ``t * _KM_BUCKETS`` and ``b / _KM_BUCKETS`` are exact
_KM_BUCKETS = 4096


def _count_above(survival, targets):
    """``#{k : survival[k] > t}`` for each of the 1-d ``targets``, exactly
    as ``np.searchsorted(-survival, -targets, side="left")``.

    The count does not rise with t, so it is tabulated at t = b/M for
    b = 0..M, M = ``_KM_BUCKETS``: a target in [b/M, (b+1)/M) whose bucket
    ends agree takes that count, and the others (NaN, t < 0, t >= 1 and
    buckets holding a survival value) are searched.
    """
    neg = -survival
    table = np.searchsorted(neg, -(np.arange(_KM_BUCKETS + 1) / _KM_BUCKETS), side="left")
    inside = (targets >= 0.0) & (targets < 1.0)
    # scaled in place: the Weibull build reaches its peak memory in this call
    bucket = np.where(inside, targets, 0.0)
    bucket *= _KM_BUCKETS
    bucket = bucket.astype(np.intp)
    searched = ~(inside & (table[:-1] == table[1:])[bucket])
    idx = table[bucket]
    idx[searched] = np.searchsorted(neg, -targets[searched], side="left")
    return idx


def _check_times(data):
    times = data.responses[data.unit_mask]
    if np.any(~np.isfinite(times)) or np.any(times <= 0.0):
        raise NonPositiveTimeError("all observation times must be positive")


@dataclass(frozen=True)
class _BetaPart:
    """What every kernel reads at one beta on ``data``; the shape enters no
    piece, and the arrays are read-only."""

    data: ClusteredDataset
    logy: np.ndarray        # (N, T) log y, 0 in padding
    delta: np.ndarray       # (N, T) event indicators, 0 in padding
    events: np.ndarray      # (N,) events per cluster
    delta_logy: np.ndarray  # (N,) sum over events of log y
    xb: np.ndarray          # (N, T) x beta
    linpred: np.ndarray     # (N, T) log y - x beta, _PAD in padding

    @classmethod
    def build(cls, beta, data, like=None):
        """The part at ``beta``; ``like``, a part on ``data``, lends the rest."""
        mask = data.unit_mask
        if like is None or like.data is not data:
            with np.errstate(divide="ignore", invalid="ignore"):
                logy = np.where(mask, np.log(data.responses), 0.0)
            delta = np.where(mask, data.indicators, 0.0)
            like = cls(data, logy, delta, delta.sum(axis=1), (delta * logy).sum(axis=1),
                       xb=None, linpred=None)
        xb = data.covariates @ np.atleast_1d(np.asarray(beta, dtype=float))
        part = replace(like, xb=xb, linpred=np.where(mask, like.logy - xb, _PAD))
        for a in vars(part).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return part

    def log_eta(self, lam):
        """-(lam + x beta) per unit, 0 in padded slots."""
        return np.where(self.data.unit_mask, -(np.reshape(lam, (-1, 1)) + self.xb), 0.0)

    def pow_sums(self, shape, log_eta):
        """Per-cluster sum over units of (eta y)^shape."""
        with np.errstate(over="ignore"):
            return np.where(self.data.unit_mask,
                            np.exp(shape * (log_eta + self.logy)), 0.0).sum(axis=1)

    def closed_form(self, shape) -> np.ndarray:
        """The constrained intercepts, one per cluster; +inf for a cluster
        without events, which has no finite intercept and is dropped before
        any fit."""
        if not shape > 0.0:
            raise NonPositiveShapeError(f"shape {shape} must be positive")
        with np.errstate(divide="ignore"):
            return (_logsumexp_rows(shape * self.linpred) - np.log(self.events)) / shape


def km_censoring(data: ClusteredDataset) -> KMCurve:
    """Kaplan-Meier estimate of the censoring survival function.

    The censoring law is shared across clusters, so all units are pooled;
    a censored unit (event indicator 0) is an event for the censoring
    process, an observed failure is a right-censored censoring time. Tied
    events are processed before same-time removals.
    """
    mask = data.unit_mask
    if not mask.any():
        raise EmptyDataError("no units to pool")
    _check_times(data)
    times = data.responses[mask]
    event_times, d = np.unique(times[data.indicators[mask] == 0.0], return_counts=True)
    if event_times.size == 0:
        return KMCurve(jump_times=np.empty(0), survival_values=np.empty(0))
    n_at_risk = times.size - np.searchsorted(np.sort(times), event_times, side="left")
    surv = np.cumprod(1.0 - d / n_at_risk)
    keep = np.ones(event_times.size, dtype=bool)
    keep[1:] = np.diff(surv) < 0  # merge ties that leave the curve flat
    return KMCurve(jump_times=event_times[keep], survival_values=surv[keep])


def conditional_bootstrap_censoring(km: KMCurve, y, u):
    """Censoring times conditional on exceeding ``y``, for uniform draws ``u``.

    Inverts the product-limit step function at ``u * S_C(y)`` through its
    generalized inverse; ``y`` and ``u`` broadcast against each other.
    """
    if not np.all(np.asarray(y) > 0.0):
        raise NonPositiveTimeError("conditioning time must be positive")
    return km.generalized_inverse(u * km.evaluate(y))


def relative_risk(shape, beta_j: float) -> float:
    """Relative risk of one covariate: exp(-shape * beta_j)."""
    return float(np.exp(-shape * beta_j))


def relative_risk_with_se(fit_result, j: int):
    """Delta-method relative risk and standard error from a joint fit.

    ``j`` indexes the covariate (0-based); the fit parameter vector is
    (shape, beta_1, ..., beta_p).
    """
    shape = float(fit_result.psi_hat[0])
    beta_j = float(fit_result.psi_hat[1 + j])
    rr = relative_risk(shape, beta_j)
    if fit_result.cov is None:
        return rr, np.nan
    grad = np.zeros(fit_result.psi_hat.size)
    grad[0] = -beta_j * rr
    grad[1 + j] = -shape * rr
    var = float(grad @ fit_result.cov @ grad)
    return rr, (np.sqrt(var) if var > 0 else np.nan)


@functools.cache
def _half_line_rule():
    """400-node Gauss-Legendre rule on [0, 1) mapped to the half-line by
    y = t/(1-t), with the Jacobian folded into the weights. Built on first
    use, not at import: the eigenproblem behind it takes about 1 MB."""
    t, w = np.polynomial.legendre.leggauss(400)
    t = 0.5 * (t + 1.0)
    return t / (1.0 - t), 0.5 * w * (1.0 / (1.0 - t) ** 2)


def calibrate_censoring_rate(shape, beta, lam, data: ClusteredDataset,
                             target_pc: float) -> float:
    """Exponential censoring rate matching an overall censoring proportion.

    Solves mean_units integral_0^inf S_Y(y | x) rate e^(-rate y) dy =
    target by fixed Gauss-Legendre quadrature (mapped from the half-line)
    plus scalar root finding.
    """
    if not 0.0 < target_pc < 1.0:
        raise ValueError("target censoring proportion must lie in (0, 1)")
    lam = np.broadcast_to(np.atleast_1d(np.asarray(lam, float)), (data.n_clusters,))
    y, w = _half_line_rule()
    # a huge design value leaves the bracket below without a finite end
    with np.errstate(over="ignore", invalid="ignore"):
        log_eta = -(lam[:, None] + data.covariates @ np.atleast_1d(beta))
        log_eta = log_eta[data.unit_mask]
        # survivor factor averaged over units, independent of the rate
        surv = np.exp(-np.exp(shape * (log_eta[:, None] + np.log(y)[None]))).mean(axis=0)
        scale = np.exp(np.median(log_eta))  # 1/median Weibull scale

    def censored_share(rate):
        return float(np.sum(w * surv * rate * np.exp(-rate * y))) - target_pc

    hi = 1e3 * scale
    lo = 1e-12 * scale
    if not np.isfinite(hi) or censored_share(hi) < 0.0 or censored_share(lo) > 0.0:
        raise NoSolutionInBracketError(
            f"no rate in ({lo:g}, {hi:g}) reaches censoring share {target_pc}")
    return float(brentq(censored_share, lo, hi, xtol=1e-10, rtol=1e-12, maxiter=200))


def make_survival_dataset(times, events, covariates, unit_mask=None,
                          cluster_labels=None) -> ClusteredDataset:
    data = make_dataset(times, covariates, events, unit_mask,
                        cluster_labels=cluster_labels)
    _check_times(data)
    return data


#: shape values whose replicate moments a bank keeps: a stencil's centre and sides
_MOMENT_MEMO = 3


@dataclass
class _WeibullReplicateBank:
    """Replicate log times and events with their scores at the fit.

    A replicate's score at ``(shape, beta, lam)`` is
    ``shape * (sum_t exp(shape * (l_t + e_t)) - d)`` with ``e = -(lam + x beta)``,
    so its product with the score at the fit, averaged over replicates,
    factors into ``exp(shape * (e - e_mle))`` times the (N, T) moment
    ``mean_r exp(shape * (l_rt + e_mle_t)) * scores_at_mle_r``. That moment
    depends on the shape alone; ``moments`` keeps it for the last few shapes,
    and a new shape's pass runs in ``buffer`` over the log times shifted by e_mle.
    """

    shifted_log_times: np.ndarray  # (R, N, T) log t + eta_mle, _PAD in padding
    event_sums: np.ndarray     # (R, N)
    scores_at_mle: np.ndarray  # (R, N)
    eta_mle: np.ndarray        # (N, T) -(lam + x beta) at the fit, 0 in padding
    event_moment: np.ndarray   # (N,) mean_r event_sums * scores_at_mle
    buffer: np.ndarray = field(repr=False)  # (R, N, T) scratch of a moment pass
    moments: dict = field(default_factory=dict, repr=False)  # shape -> (N, T)

    def moment(self, shape: float) -> np.ndarray:
        """``mean_r exp(shape * shifted_log_times) * scores_at_mle``, from
        the memo when ``shape`` was among the last ones asked for."""
        def moment_pass():
            a = self.buffer
            # far from the fit the exp overflows; the expectation is then
            # non-finite and the modification undefined there
            with np.errstate(over="ignore", invalid="ignore"):
                np.multiply(self.shifted_log_times, shape, out=a)
                np.exp(a, out=a)
                a *= self.scores_at_mle[:, :, None]
            return a.mean(axis=0)

        return _recent(self.moments, shape, _MOMENT_MEMO, moment_pass)


class WeibullSurvivalModel(ClusteredModel):
    """Engine adapter; interest parameter is (shape, beta_1, ..., beta_p). The
    model keeps the :class:`_BetaPart` of the last two (beta, dataset) pairs."""

    def __init__(self):
        self._parts = {}  # beta.tobytes() -> _BetaPart, oldest first

    def _part(self, psi, data):
        """The :class:`_BetaPart` at ``psi[1:]`` on ``data``, memoized."""
        beta = np.asarray(psi, dtype=float)[1:]
        return _recent(self._parts, beta.tobytes(), _PART_MEMO, lambda: _BetaPart.build(
            beta, data, like=next(reversed(self._parts.values()), None)),
            usable=lambda part: part.data is data)

    def param_names(self, data):
        return ("xi",) + tuple(f"beta{j + 1}" for j in range(data.n_covariates))

    def initial_psi(self, data):
        return np.concatenate([[1.0], np.zeros(data.n_covariates)])

    def params_feasible(self, psi):
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        return bool(np.all(np.isfinite(psi)) and psi[0] > 0.0)

    def informative_mask(self, data):
        _check_times(data)
        optim.check_scale(data.covariates[data.unit_mask], "covariate values")
        return np.where(data.unit_mask, data.indicators, 0.0).sum(axis=1) >= 1.0

    def cluster_logliks(self, psi, lam, data):
        """Censored log-likelihood of each cluster."""
        shape = psi[0]
        if not shape > 0.0:
            raise NonPositiveShapeError(f"shape {shape} must be positive")
        part = self._part(psi, data)
        log_eta = part.log_eta(lam)
        return (shape * (part.delta * log_eta).sum(axis=1) + part.events * np.log(shape)
                + (shape - 1.0) * part.delta_logy - part.pow_sums(shape, log_eta))

    def nuisance_score(self, psi, lam, data):
        """Per-cluster intercept score: -shape * events + shape * sum (eta y)^shape."""
        part = self._part(psi, data)
        return psi[0] * (part.pow_sums(psi[0], part.log_eta(lam)) - part.events)

    def nuisance_obs_info(self, psi, lam, data):
        """Per-cluster observed information: shape^2 * sum (eta y)^shape."""
        part = self._part(psi, data)
        return psi[0] ** 2 * part.pow_sums(psi[0], part.log_eta(lam))

    def constrained_nuisance(self, psi, data):
        return self._part(psi, data).closed_form(psi[0])

    def build_replicates(self, psi, lam, data, rng, n_replicates):
        """New failure times from the fit; censoring times by conditional
        bootstrap from the pooled Kaplan-Meier curve."""
        km = km_censoring(data)
        shape = float(psi[0])
        eta_mle = self._part(psi, data).log_eta(lam)
        shape3 = (n_replicates,) + data.responses.shape
        new_fail = rng.standard_exponential(shape3)
        with np.errstate(over="ignore"):
            new_fail **= 1.0 / shape
            new_fail *= np.exp(-eta_mle)[None]
        if not np.all(np.isfinite(new_fail)):
            raise NonFiniteDrawError("replicate failure times overflow at the fitted "
                                     "scale and shape")
        u = rng.random(shape3)
        base = np.where(data.unit_mask, data.responses, 1.0)
        cens = np.repeat(base[None], n_replicates, axis=0)
        redrawn = data.indicators != 0.0  # a censored unit keeps its own time
        cens[:, redrawn] = conditional_bootstrap_censoring(km, base[redrawn], u[:, redrawn])
        times = np.minimum(new_fail, cens)
        events = np.where(data.unit_mask[None], (new_fail <= cens).astype(float), 0.0)
        with np.errstate(divide="ignore"):
            shifted = np.where(data.unit_mask[None], np.log(times), _PAD)
        event_sums = events.sum(axis=2)
        shifted += eta_mle  # padding stays at _PAD
        # the pass of moment() at the fitted shape, which also gives the scores there
        power = shifted * shape
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(power, out=power)
            scores = shape * (power.sum(axis=2) - event_sums)
            power *= scores[:, :, None]
        bank = _WeibullReplicateBank(shifted_log_times=shifted, event_sums=event_sums,
                                     scores_at_mle=scores, eta_mle=eta_mle,
                                     event_moment=(event_sums * scores).mean(axis=0),
                                     buffer=power)
        bank.moments[shape] = power.mean(axis=0)
        return bank

    def replicate_expectation(self, bank, psi, lam_psi, data):
        """Mean over the bank of the score product, through the bank's
        per-shape moment: one (R, N, T) pass per new shape, O(NT) after."""
        shape = float(psi[0])
        ratio = self._part(psi, data).log_eta(lam_psi) - bank.eta_mle
        with np.errstate(over="ignore", invalid="ignore"):
            ratio *= shape
            np.exp(ratio, out=ratio)
            ratio *= bank.moment(shape)
            return shape * (ratio.sum(axis=1) - bank.event_moment)
