"""Reference implementations that only tests use: independent routes to a
value the package computes another way."""

import numpy as np

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
