"""Stratified Weibull regression under independent right censoring.

The censoring law is left unspecified: replicate datasets resample
censoring times from the Kaplan-Meier estimate of the censoring survival
function through a conditional bootstrap, which is what makes the Monte
Carlo modification available without parametric censoring assumptions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import optim
from .core import ClusteredDataset, ClusteredModel, NonFiniteDrawError, make_dataset

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


class NoEventsError(optim.NumericalFailure):
    """A cluster without events has no finite constrained intercept."""


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
        idx = np.searchsorted(-self.survival_values, -targets, side="left")
        idx = np.minimum(idx, self.jump_times.size - 1)
        out = self.jump_times[idx]
        return out if out.ndim else float(out)


def _check_times(data):
    times = data.responses[data.unit_mask]
    if np.any(~np.isfinite(times)) or np.any(times <= 0.0):
        raise NonPositiveTimeError("all observation times must be positive")


def _log_time_linpred(beta, data):
    """log y - beta'x with padded slots pushed to an exp-killing constant."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logy = np.log(data.responses)
    return np.where(data.unit_mask, logy - data.covariates @ beta, _PAD)


def constrained_nuisance_closed_form(shape, beta, data: ClusteredDataset) -> np.ndarray:
    """Explicit constrained intercept estimates, one per cluster.

    Raises
    ------
    NoEventsError
        If some cluster records no events (its estimate is not finite and
        the cluster must be discarded beforehand).
    """
    if not shape > 0.0:
        raise NonPositiveShapeError(f"shape {shape} must be positive")
    d_tot = np.where(data.unit_mask, data.indicators, 0.0).sum(axis=1)
    if np.any(d_tot < 1.0):
        raise NoEventsError("a cluster without events was not dropped")
    w = shape * _log_time_linpred(np.atleast_1d(beta), data)
    return (_logsumexp_rows(w) - np.log(d_tot)) / shape


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
    c_event = data.indicators[mask] == 0.0
    event_times = np.unique(times[c_event])
    if event_times.size == 0:
        return KMCurve(jump_times=np.empty(0), survival_values=np.empty(0))
    order = np.sort(times)
    n_at_risk = times.size - np.searchsorted(order, event_times, side="left")
    d = np.array([(times[c_event] == t).sum() for t in event_times], dtype=float)
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
    times = np.asarray(times, dtype=float)
    if times.ndim == 1:
        times = times[None, :]
    data = make_dataset(times, covariates, events, unit_mask,
                        cluster_labels=cluster_labels)
    _check_times(data)
    return data


def _log_eta(psi, lam, data):
    """-(lam + x beta) per unit, 0 in padded slots."""
    lam = np.broadcast_to(np.atleast_1d(np.asarray(lam, float)), (data.n_clusters,))
    return np.where(data.unit_mask,
                    -(lam[:, None] + data.covariates @ np.asarray(psi[1:], float)), 0.0)


def _pow_sums(psi, lam, data):
    """Per-cluster sum over units of (eta y)^shape."""
    log_eta_y = np.where(data.unit_mask,
                         np.log(data.responses) + _log_eta(psi, lam, data), _PAD)
    with np.errstate(over="ignore"):
        return np.exp(psi[0] * log_eta_y).sum(axis=1)


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
    depends on the shape alone, and ``moments`` keeps it for the last few
    shape values seen.
    """

    log_times: np.ndarray      # (R, N, T), padded to _PAD
    event_sums: np.ndarray     # (R, N)
    scores_at_mle: np.ndarray  # (R, N)
    eta_mle: np.ndarray        # (N, T) -(lam + x beta) at the fit, 0 in padding
    event_moment: np.ndarray   # (N,) mean_r event_sums * scores_at_mle
    moments: dict = field(default_factory=dict, repr=False)  # shape -> (N, T)

    def moment(self, shape: float) -> np.ndarray:
        """``mean_r exp(shape * (log_times + eta_mle)) * scores_at_mle``,
        from the memo when ``shape`` was among the last ones asked for."""
        m = self.moments.pop(shape, None)
        if m is None:
            if len(self.moments) >= _MOMENT_MEMO:
                del self.moments[next(iter(self.moments))]
            a = self.log_times + self.eta_mle
            # far from the fit the exp overflows; the expectation is then
            # non-finite and the modification undefined there
            with np.errstate(over="ignore", invalid="ignore"):
                a *= shape
                np.exp(a, out=a)
                a *= self.scores_at_mle[:, :, None]
            m = a.mean(axis=0)
        self.moments[shape] = m
        return m


class WeibullSurvivalModel(ClusteredModel):
    """Engine adapter; interest parameter is (shape, beta_1, ..., beta_p)."""

    def param_names(self, data):
        return ("xi",) + tuple(f"beta{j + 1}" for j in range(data.n_covariates))

    def initial_psi(self, data):
        return np.concatenate([[1.0], np.zeros(data.n_covariates)])

    def params_feasible(self, psi):
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        return bool(np.all(np.isfinite(psi)) and psi[0] > 0.0)

    def informative_mask(self, data):
        # the first model call of a fit: validate the times and the scale of
        # the covariates once here, not on every likelihood evaluation
        _check_times(data)
        optim.check_scale(data.covariates[data.unit_mask], "covariate values")
        return np.where(data.unit_mask, data.indicators, 0.0).sum(axis=1) >= 1.0

    def cluster_logliks(self, psi, lam, data):
        """Censored log-likelihood of each cluster."""
        shape = psi[0]
        if not shape > 0.0:
            raise NonPositiveShapeError(f"shape {shape} must be positive")
        delta = np.where(data.unit_mask, data.indicators, 0.0)
        d_tot = delta.sum(axis=1)
        log_eta = _log_eta(psi, lam, data)
        logy = np.where(data.unit_mask, np.log(data.responses), 0.0)
        with np.errstate(over="ignore"):
            pow_sum = np.where(data.unit_mask,
                               np.exp(shape * (log_eta + logy)), 0.0).sum(axis=1)
        return (shape * (delta * log_eta).sum(axis=1) + d_tot * np.log(shape)
                + (shape - 1.0) * (delta * logy).sum(axis=1) - pow_sum)

    def nuisance_score(self, psi, lam, data):
        """Per-cluster intercept score: -shape * events + shape * sum (eta y)^shape."""
        delta = np.where(data.unit_mask, data.indicators, 0.0)
        return psi[0] * (_pow_sums(psi, lam, data) - delta.sum(axis=1))

    def nuisance_obs_info(self, psi, lam, data):
        """Per-cluster observed information: shape^2 * sum (eta y)^shape."""
        return psi[0] ** 2 * _pow_sums(psi, lam, data)

    def constrained_nuisance(self, psi, data):
        ok = np.where(data.unit_mask, data.indicators, 0.0).sum(axis=1) >= 1.0
        if ok.all():
            return constrained_nuisance_closed_form(psi[0], psi[1:], data)
        out = np.full(data.n_clusters, np.inf)
        if ok.any():
            out[ok] = constrained_nuisance_closed_form(psi[0], psi[1:], data.subset(ok))
        return out

    def build_replicates(self, psi, lam, data, rng, n_replicates):
        """New failure times from the fit; censoring times by conditional
        bootstrap from the pooled Kaplan-Meier curve."""
        km = km_censoring(data)
        shape = float(psi[0])
        lam = np.asarray(lam, dtype=float)
        log_eta = -(lam[:, None] + data.covariates @ np.asarray(psi[1:], float))
        shape3 = (n_replicates,) + data.responses.shape
        draws = rng.standard_exponential(shape3)
        with np.errstate(over="ignore"):
            new_fail = draws ** (1.0 / shape) * np.exp(-log_eta)[None]
        if not np.all(np.isfinite(new_fail)):
            raise NonFiniteDrawError("replicate failure times overflow at the fitted "
                                     "scale and shape")
        u = rng.random(shape3)
        base = np.where(data.unit_mask, data.responses, 1.0)
        cens = np.where((data.indicators == 0.0)[None], base[None],
                        conditional_bootstrap_censoring(km, base, u))
        times = np.minimum(new_fail, cens)
        events = np.where(data.unit_mask[None], (new_fail <= cens).astype(float), 0.0)
        with np.errstate(divide="ignore"):
            log_times = np.where(data.unit_mask[None], np.log(times), _PAD)
        event_sums = events.sum(axis=2)
        eta_mle = _log_eta(psi, lam, data)
        # one exp pass gives the scores at the fit and the moment at its shape,
        # in the arithmetic of self._replicate_scores and _WeibullReplicateBank.moment
        power = log_times + eta_mle
        with np.errstate(over="ignore", invalid="ignore"):
            power *= shape
            np.exp(power, out=power)
            scores = shape * (power.sum(axis=2) - event_sums)
            power *= scores[:, :, None]
        bank = _WeibullReplicateBank(log_times=log_times, event_sums=event_sums,
                                     scores_at_mle=scores, eta_mle=eta_mle,
                                     event_moment=(event_sums * scores).mean(axis=0))
        bank.moments[shape] = power.mean(axis=0)
        return bank

    def _replicate_scores(self, bank, psi, lam, data):
        """(R, N) nuisance scores of the bank's replicates at ``(psi, lam)``."""
        shape = float(psi[0])
        with np.errstate(over="ignore"):
            pow_sum = np.exp(shape * (bank.log_times
                                      + _log_eta(psi, lam, data)[None])).sum(axis=2)
        return shape * (pow_sum - bank.event_sums)

    def replicate_expectation(self, bank, psi, lam_psi, data):
        """Mean over the bank of the score product, through the bank's
        per-shape moment: one (R, N, T) pass per new shape, O(NT) after."""
        shape = float(psi[0])
        ratio = _log_eta(psi, lam_psi, data) - bank.eta_mle
        with np.errstate(over="ignore", invalid="ignore"):
            ratio *= shape
            np.exp(ratio, out=ratio)
            ratio *= bank.moment(shape)
            return shape * (ratio.sum(axis=1) - bank.event_moment)
