"""Reference implementations that only tests use: independent routes to a
value the package computes another way."""

import numpy as np

from mcmpl import core
from mcmpl.ar1 import _with_sigma2
from mcmpl.weibull import (
    NoEventsError,
    NonPositiveShapeError,
    _check_times,
    _log_time_linpred,
    _logsumexp_rows,
)


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
        raise NoEventsError("a cluster without events was not dropped")
    lse = _logsumexp_rows(shape * _log_time_linpred(beta, data))
    linpred = np.where(data.unit_mask, data.covariates @ beta, 0.0)
    logy = np.where(data.unit_mask & (delta > 0), np.log(data.responses), 0.0)
    per_cluster = (d_tot * (np.log(d_tot) - lse)
                   - shape * (delta * linpred).sum(axis=1)
                   + d_tot * (np.log(shape) - 1.0)
                   + (shape - 1.0) * (delta * logy).sum(axis=1))
    return float(per_cluster.sum())


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
