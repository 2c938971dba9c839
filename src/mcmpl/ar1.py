"""Nonstationary normal AR(1) panel model with fixed effects.

Everything profiles in closed form down to the autoregressive parameter:
the intercepts are linear in it, the innovation variance has an explicit
constrained estimate, and :meth:`AR1PanelModel.maximize` reduces both
searches of :func:`core.fit` to a closed form and a bounded
one-dimensional search. Traces take the generic :func:`core.trace_curves`,
whose search in the variance finds its constrained values, RSS/NT on the
profile curve and RSS/N(T-1) on the modified one.

The Monte Carlo modification needs only the response sum, the lag sum and
the score at the fit of each replicate cluster. Given the initial
condition these three are jointly Gaussian, and
:meth:`AR1PanelModel.build_replicates` draws them from that law, two
standard normals per replicate cluster; no replicate panel is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core, optim
from .core import ClusteredDataset, ClusteredModel, FitResult, MonteCarloConfig

#: variance floor applied inside objectives so noiseless inputs stay finite
SIGMA2_FLOOR = 1e-12

#: interval of the bounded search in rho
RHO_BOUNDS = (-1.5, 1.5)


class DegenerateDesignError(optim.NumericalFailure):
    """The lagged response has no within-cluster variation."""


def make_panel_dataset(y, y0, cluster_labels=None) -> ClusteredDataset:
    """Panel series with one initial condition per cluster."""
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[None, :]
    if y.shape[1] < 2:
        raise ValueError("need at least two periods per cluster")
    y0 = np.broadcast_to(np.asarray(y0, dtype=float), (y.shape[0],)).copy()
    return core.make_dataset(y, None, None, None, initial_conditions=y0,
                             cluster_labels=cluster_labels)


def _lagged(data: ClusteredDataset) -> np.ndarray:
    if data.initial_conditions is None:
        raise ValueError("AR(1) data needs initial conditions")
    return np.concatenate([data.initial_conditions[:, None],
                           data.responses[:, :-1]], axis=1)


def constrained_lambda(rho, data: ClusteredDataset) -> np.ndarray:
    """Constrained intercepts: mean response minus rho times lagged mean."""
    return data.responses.mean(axis=1) - rho * _lagged(data).mean(axis=1)


def residual_ss(rho, data: ClusteredDataset) -> float:
    lam = constrained_lambda(rho, data)
    resid = data.responses - lam[:, None] - rho * _lagged(data)
    return float((resid ** 2).sum())


def ols_fit(data: ClusteredDataset):
    """Closed-form ML fit: within-cluster least squares.

    Returns (rho_hat, sigma2_hat, lam_hat); raises
    :class:`DegenerateDesignError` when the lagged response shows no
    within-cluster variation; :func:`optim.check_scale` rejects a huge series.
    """
    y = data.responses
    ylag = _lagged(data)
    optim.check_scale((y, ylag), "AR(1) series values")
    t_len = y.shape[1]
    lagbar = ylag.mean(axis=1)
    denom = (ylag ** 2).sum() - t_len * (lagbar ** 2).sum()
    scale = max((ylag ** 2).sum(), 1.0)
    if abs(denom) <= 1e-12 * scale:
        raise DegenerateDesignError("no within-cluster variation in the lag")
    num = (y * ylag).sum() - t_len * (y.mean(axis=1) * lagbar).sum()
    rho = float(num / denom)
    return rho, constrained_sigma2(rho, data), constrained_lambda(rho, data)


def constrained_sigma2(rho, data: ClusteredDataset, divisor: str = "NT") -> float:
    """Explicit constrained variance estimate at fixed rho.

    ``divisor`` selects the plain-profile convention ("NT") or the one the
    modified objective profiles against ("N(T-1)").
    """
    n, t_len = data.responses.shape
    if divisor == "NT":
        k = n * t_len
    elif divisor == "N(T-1)":
        k = n * (t_len - 1)
    else:
        raise ValueError(f"unknown divisor {divisor!r}")
    return residual_ss(rho, data) / k


def _with_sigma2(rho, data: ClusteredDataset, divisor: str) -> np.ndarray:
    """(rho, sigma2) with sigma2 at its floored constrained estimate."""
    return np.array([rho, max(constrained_sigma2(rho, data, divisor), SIGMA2_FLOOR)])


@dataclass
class _AR1ReplicateBank:
    resp_sums: np.ndarray      # (R, N) sum_t y_t
    lag_sums: np.ndarray       # (R, N) sum_t y_{t-1}
    scores_at_mle: np.ndarray  # (R, N)
    # (N,) replicate means of scores_at_mle times resp_sums, 1 and lag_sums
    resp_moment: np.ndarray
    score_mean: np.ndarray
    lag_moment: np.ndarray


class AR1PanelModel(ClusteredModel):
    """Engine adapter; interest parameter is (rho, sigma2)."""

    def param_names(self, data):
        return ("rho", "sigma2")

    def initial_psi(self, data):
        rho, sigma2, _ = ols_fit(data)
        return np.array([rho, max(sigma2, SIGMA2_FLOOR)])

    def params_feasible(self, psi):
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        return bool(np.all(np.isfinite(psi)) and psi[1] > 0.0)

    def informative_mask(self, data):
        if not data.unit_mask.all():
            raise ValueError("AR(1) clusters must share a common length")
        if data.responses.shape[1] < 2:
            raise ValueError("AR(1) needs at least two periods per cluster")
        return np.ones(data.n_clusters, dtype=bool)

    def cluster_logliks(self, psi, lam, data):
        rho, sigma2 = psi[0], psi[1]
        if not sigma2 > 0.0:
            raise ValueError("sigma2 must be positive")
        lam = np.broadcast_to(np.atleast_1d(np.asarray(lam, float)), (data.n_clusters,))
        t_len = data.responses.shape[1]
        resid = data.responses - lam[:, None] - rho * _lagged(data)
        return -(0.5 * t_len * np.log(sigma2) + (resid ** 2).sum(axis=1) / (2.0 * sigma2))

    def nuisance_score(self, psi, lam, data):
        lam = np.broadcast_to(np.atleast_1d(np.asarray(lam, float)),
                              (data.n_clusters,))
        resid = data.responses - lam[:, None] - psi[0] * _lagged(data)
        return resid.sum(axis=1) / psi[1]

    def nuisance_obs_info(self, psi, lam, data):
        t_len = data.responses.shape[1]
        return np.full(data.n_clusters, t_len / psi[1])

    def constrained_nuisance(self, psi, data):
        return constrained_lambda(psi[0], data)

    def maximize(self, objective, start, data, modified, grad=None):
        """The profile maximizer is ``start``, which :func:`core.profile_stage`
        sets to :meth:`initial_psi`, the closed-form within least-squares fit,
        so the profile objective is evaluated there once. The modified
        objective is maximized in rho alone, the variance at RSS/N(T-1), by a
        bounded search that hill-climbs from the ML rho: the relevant
        maximizer is the local one near it, not the re-increasing branch at
        large rho. Neither search uses ``grad``."""
        if not modified:
            return optim.OptimResult(argmax=start, value=objective(start),
                                     converged=True, iterations=0)
        res = optim.maximize_scalar_bounded(
            lambda rho: objective(_with_sigma2(rho, data, "N(T-1)")), *RHO_BOUNDS,
            float(start[0]))
        return optim.OptimResult(argmax=_with_sigma2(float(res.argmax), data, "N(T-1)"),
                                 value=res.value, converged=res.converged,
                                 iterations=res.iterations)

    def build_replicates(self, psi, lam, data, rng, n_replicates):
        """Replicate clusters from the fit, initial conditions unchanged; the
        bank keeps only each replicate's response sum, lag sum and score.

        Neither the panels nor their innovations are drawn. With y_0 fixed,
        y_t = lam c_{t-1} + rho^t y_0 + sigma sum_{s<=t} rho^{t-s} eps_s,
        where c_k = sum_{j<=k} rho^j, so the response sum is m_S + sigma
        eps.a with a_s = c_{T-s}, the lag sum is m_L + sigma eps.b with
        b_s = c_{T-1-s} (b_T = 0), and since a = 1 + rho b the score at the
        fit is u / sigma, with u = eps.1 and v = eps.b. Given y_0, (u, v) is
        Gaussian with covariance G = [[T, sum b], [sum b, b.b]], positive
        definite for T >= 2 because b_T = 0 and b_{T-1} = 1; it is drawn
        exactly as z @ chol(G)^T from two standard normals z per replicate
        cluster, and S, L and the score are (u + rho v, v, u) scaled by
        (sigma, sigma, 1/sigma).
        """
        rho, sigma2 = float(psi[0]), float(psi[1])
        sigma = np.sqrt(max(sigma2, SIGMA2_FLOOR))
        lam = np.broadcast_to(np.atleast_1d(np.asarray(lam, float)),
                              (data.n_clusters,))
        y0 = data.initial_conditions
        n, t_len = data.responses.shape
        c = np.cumsum(rho ** np.arange(t_len))  # c_0 .. c_{T-1}
        a = c[::-1]
        b = np.append(c[-2::-1], 0.0)
        gram = np.array([[t_len, b.sum()], [b.sum(), b @ b]])
        uv = rng.standard_normal((n_replicates, n, 2)) @ np.linalg.cholesky(gram).T
        u, v = uv[:, :, 0], uv[:, :, 1]
        resp_sums = (lam * a.sum() + y0 * (rho * a[0]))[None] + sigma * (u + rho * v)
        lag_sums = (lam * b.sum() + y0 * (1.0 + rho * b[0]))[None] + sigma * v
        scores = u / sigma
        return _AR1ReplicateBank(resp_sums=resp_sums, lag_sums=lag_sums,
                                 scores_at_mle=scores,
                                 resp_moment=(resp_sums * scores).mean(axis=0),
                                 score_mean=scores.mean(axis=0),
                                 lag_moment=(lag_sums * scores).mean(axis=0))

    def replicate_expectation(self, bank, psi, lam_psi, data):
        """Score-product mean; the replicate score at a candidate point is
        linear in the per-replicate sums, so the bank's moments of them give
        it in O(N)."""
        rho, sigma2 = float(psi[0]), float(psi[1])
        lam_psi = np.asarray(lam_psi, dtype=float)
        raw = (bank.resp_moment - data.responses.shape[1] * lam_psi * bank.score_mean
               - rho * bank.lag_moment)
        return raw / max(sigma2, SIGMA2_FLOOR)


def fit_bounded(data: ClusteredDataset, mc: MonteCarloConfig | None = None,
                method: str = "mcmpl") -> FitResult:
    """:func:`core.fit` of :class:`AR1PanelModel`. No code of mcmpl calls it, but
    ``perfbench/spans.py`` ``TARGETS`` traces it by name until ROADMAP item 1."""
    return core.fit(AR1PanelModel(), data, method, mc)

