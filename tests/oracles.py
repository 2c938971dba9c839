"""Reference implementations that only tests use: independent routes to a
value the package computes another way."""

import numpy as np
from scipy.optimize import minimize_scalar

from mcmpl import core
from mcmpl.ar1 import _with_sigma2
from mcmpl.weibull import (
    _PAD,
    EmptyDataError,
    KMCurve,
    NonPositiveShapeError,
    _check_times,
    _logsumexp_rows,
)


def _log_time_linpred(beta, data):
    """log y - beta'x with padded slots pushed to an exp-killing constant."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logy = np.log(data.responses)
    return np.where(data.unit_mask, logy - data.covariates @ beta, _PAD)


def weibull_profile_loglik(shape, beta, data) -> float:
    """Weibull profile log-likelihood in its explicit closed form; the
    package profiles through ``cluster_logliks`` at ``constrained_nuisance``."""
    if not shape > 0.0:
        raise NonPositiveShapeError(f"shape {shape} must be positive")
    _check_times(data)
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    delta = np.where(data.unit_mask, data.indicators, 0.0)
    d_tot = delta.sum(axis=1)
    if np.any(d_tot < 1.0):
        raise ValueError("a cluster without events was not dropped")
    lse = _logsumexp_rows(shape * _log_time_linpred(beta, data))
    linpred = np.where(data.unit_mask, data.covariates @ beta, 0.0)
    logy = np.where(data.unit_mask & (delta > 0), np.log(data.responses), 0.0)
    per_cluster = (d_tot * (np.log(d_tot) - lse)
                   - shape * (delta * linpred).sum(axis=1)
                   + d_tot * (np.log(shape) - 1.0)
                   + (shape - 1.0) * (delta * logy).sum(axis=1))
    return float(per_cluster.sum())


def weibull_km_censoring(data) -> KMCurve:
    """Kaplan-Meier estimate of the censoring survival function, counting
    the tied censoring events at each time with a loop over those times;
    the package takes the counts from ``np.unique``."""
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


def weibull_replicate_scores(bank, psi, lam, data):
    """(R, N) nuisance scores of a Weibull bank's replicates at ``(psi, lam)``,
    one replicate at a time; the package averages their products with the
    scores at the fit through per-shape moments of the bank."""
    shape = float(psi[0])
    lam = np.broadcast_to(np.atleast_1d(np.asarray(lam, float)), (data.n_clusters,))
    log_eta = np.where(data.unit_mask,
                       -(lam[:, None] + data.covariates @ np.asarray(psi[1:], float)), 0.0)
    with np.errstate(over="ignore"):
        pow_sum = np.exp(shape * (bank.shifted_log_times
                                  + (log_eta - bank.eta_mle)[None])).sum(axis=2)
    return shape * (pow_sum - bank.event_sums)


def ar1_trace_curves(model, data: core.ClusteredDataset, mc: core.MonteCarloConfig,
                     param, grid):
    """Profile and modified curves in rho, with the variance at its explicit
    constrained estimate (RSS/NT and RSS/N(T-1)) at every grid point."""
    if param != "rho":
        raise ValueError("AR(1) traces support --param rho")
    psi_mle = model.initial_psi(data)
    bank = model.build_replicates(psi_mle, model.constrained_nuisance(psi_mle, data),
                                  data, mc.generator(0), mc.replicates)
    lp, lm = [], []
    for rho in grid:
        lp.append(core.profile_loglik(model, data, _with_sigma2(rho, data, "NT")))
        lm.append(core.modified_profile_loglik(
            model, data, bank, _with_sigma2(rho, data, "N(T-1)")))
    return lp, lm


def log_elementary_symmetric(scores, observed):
    """(N, T + 1) log e_k, k = 0..T, of exp(scores) over each row's observed
    entries: one log-space pass of e_k <- e_k + exp(s_t) e_(k-1) over t,
    vectorized over the rows."""
    log_e = np.full((scores.shape[0], scores.shape[1] + 1), -np.inf)
    log_e[:, 0] = 0.0
    for t in range(scores.shape[1]):
        step = np.logaddexp(log_e[:, 1:], log_e[:, :-1] + scores[:, t, None])
        log_e[:, 1:] = np.where(observed[:, t, None], step, log_e[:, 1:])
    return log_e


def conditional_logit_mle(data, bounds=(-10.0, 10.0)) -> float:
    """Conditional MLE of the fixed-effects logit slope (Andersen 1970).

    Each cluster's likelihood given its count of observed successes is free
    of its intercept, and its denominator is the elementary symmetric
    polynomial of exp(beta x) over the observed units; clusters whose
    observed responses all agree carry no information. The estimator is
    consistent at fixed T under MCAR deletion.
    """
    observed = data.unit_mask & (data.indicators == 0.0)
    y = np.where(observed, data.responses, 0.0)
    successes = y.sum(axis=1).astype(int)
    keep = (successes > 0) & (successes < observed.sum(axis=1))
    x, observed, successes = data.covariates[keep, :, 0], observed[keep], successes[keep]
    sum_yx = float((y[keep] * x).sum())
    rows = np.arange(successes.size)

    def negative_loglik(beta):
        log_e = log_elementary_symmetric(beta * x, observed)
        return float(log_e[rows, successes].sum()) - beta * sum_yx

    return float(minimize_scalar(negative_loglik, bounds=bounds, method="bounded",
                                 options={"xatol": 1e-10}).x)
