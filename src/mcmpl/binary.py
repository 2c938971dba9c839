"""Binary fixed-effects regression with possibly missing response.

Logit or probit link for the response, logistic link for the missingness
probability. Two mechanisms are supported: missing completely at random
(the missingness model carries no response term, so estimation of the
regression coefficients uses the recorded units only) and missing not at
random (a selection model whose interest parameter stacks the regression
and missingness coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit, log_ndtr, ndtr

from . import optim
from .core import ClusteredDataset, ClusteredModel, make_dataset

#: linear predictors are clamped here before any link evaluation; beyond
#: this the probabilities are numerically 0/1 in double precision
PREDICTOR_CLAMP = 35.0

#: search bound on the response coefficient of the missingness model;
#: hitting it signals separation
GAMMA2_BOUND = 30.0

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class ProbabilityUnderflowError(optim.NumericalFailure):
    """A log-likelihood term had a non-positive argument after clamping."""


class Link:
    """Response link: CDF, density, and tail-stable derived ratios.

    ``pdf_ratio`` is f'/f, ``mills_lower`` is f/F and ``mills_upper`` is
    f/(1-F); the Mills ratios stay finite in double precision at any
    clamped predictor, which keeps scores and information stable where F
    underflows.
    """

    def cdf(self, eta): ...
    def log_cdf(self, eta): ...
    def pdf(self, eta): ...
    def log_pdf(self, eta): ...
    def pdf_ratio(self, eta): ...
    def mills_lower(self, eta): ...
    def mills_upper(self, eta): ...


class LogitLink(Link):
    def cdf(self, eta):
        return expit(eta)

    def log_cdf(self, eta):
        return log_expit(eta)

    def pdf(self, eta):
        p = expit(eta)
        return p * (1.0 - p)

    def log_pdf(self, eta):
        return log_expit(eta) + log_expit(-eta)

    def pdf_ratio(self, eta):
        return 1.0 - 2.0 * expit(eta)

    def mills_lower(self, eta):
        return expit(-eta)

    def mills_upper(self, eta):
        return expit(eta)


class ProbitLink(Link):
    def cdf(self, eta):
        return ndtr(eta)

    def log_cdf(self, eta):
        return log_ndtr(eta)

    def pdf(self, eta):
        return np.exp(-0.5 * eta ** 2) / np.sqrt(2.0 * np.pi)

    def log_pdf(self, eta):
        return -0.5 * eta ** 2 - _LOG_SQRT_2PI

    def pdf_ratio(self, eta):
        return -eta

    def mills_lower(self, eta):
        return np.exp(self.log_pdf(eta) - log_ndtr(eta))

    def mills_upper(self, eta):
        return np.exp(self.log_pdf(eta) - log_ndtr(-eta))


LOGIT = LogitLink()
PROBIT = ProbitLink()
#: the link functions by name
LINKS = {"logit": LOGIT, "probit": PROBIT}

#: the missingness probability always uses the logistic CDF
G = LOGIT


def get_link(link) -> Link:
    if isinstance(link, Link):
        return link
    try:
        return LINKS[link]
    except KeyError:
        raise ValueError(f"unknown link {link!r}; expected logit or probit") from None


def _clamp(eta):
    return np.minimum(np.maximum(eta, -PREDICTOR_CLAMP), PREDICTOR_CLAMP)


def _masks(data: ClusteredDataset):
    obs = (data.indicators == 0.0) & data.unit_mask
    mis = (data.indicators == 1.0) & data.unit_mask
    return obs, mis


def _eta(link, beta, lam, data):
    lam = np.asarray(lam, dtype=float)
    return _clamp(lam[:, None] + data.covariates @ beta)


def _missing_probs(gamma1, gamma2, data):
    """Missingness probabilities of every unit at y = 0 and at y = 1."""
    u0 = _clamp(data.covariates @ gamma1)
    return G.cdf(u0), G.cdf(_clamp(u0 + gamma2))


# ---------------------------------------------------------------------------
# vectorized kernels (per-cluster results as length-N arrays)
# ---------------------------------------------------------------------------

def _loglik_terms(link, mechanism, beta, gamma1, gamma2, lam, data):
    obs, mis = _masks(data)
    eta = _eta(link, beta, lam, data)
    y = np.where(obs, np.nan_to_num(data.responses), 0.0)
    ll = np.where(obs, y * link.log_cdf(eta) + (1.0 - y) * link.log_cdf(-eta), 0.0)
    if mechanism == "mnar":
        u0 = _clamp(data.covariates @ gamma1)
        # observed units contribute log(1 - zeta) at their recorded response
        u_at_y = _clamp(u0 + gamma2 * y)
        ll = ll + np.where(obs, G.log_cdf(-u_at_y), 0.0)
        pi = link.cdf(eta)
        mix = pi * G.cdf(_clamp(u0 + gamma2)) + (1.0 - pi) * G.cdf(u0)
        if np.any(mix[mis] <= 0.0):
            raise ProbabilityUnderflowError("mixture probability underflowed to 0")
        ll = ll + np.where(mis, np.log(np.maximum(mix, 1e-300)), 0.0)
    return ll.sum(axis=1)


def _score_kernel(link, mechanism, beta, gamma1, gamma2, data):
    """Per-cluster nuisance score and observed information as a function of
    lam; whatever does not depend on lam is computed once."""
    obs, mis = _masks(data)
    y = np.where(obs, np.nan_to_num(data.responses), 0.0)
    xb = data.covariates @ beta
    if mechanism == "mnar":
        z0, z1 = _missing_probs(gamma1, gamma2, data)

    def terms(lam, want_info=True):
        eta = _clamp(np.asarray(lam, dtype=float)[:, None] + xb)
        r_lo = link.mills_lower(eta)    # f/F
        r_hi = link.mills_upper(eta)    # f/(1-F)
        g = link.pdf_ratio(eta)         # f'/f
        score = np.where(obs, y * r_lo - (1.0 - y) * r_hi, 0.0)
        info = None
        if want_info:
            info = np.where(obs, y * r_lo * (r_lo - g) + (1.0 - y) * r_hi * (r_hi + g),
                            0.0)
        if mechanism == "mnar":
            s_mis = _missing_score_weight(link, eta, z0, z1)
            score = score + np.where(mis, s_mis, 0.0)
            if want_info:
                info = info + np.where(mis, s_mis * (s_mis - g), 0.0)
        return score.sum(axis=1), (info.sum(axis=1) if want_info else None)

    return terms


def _missing_score_weight(link, eta, z0, z1):
    """Per-unit score contribution of a missing response: f(z1-z0)/D."""
    pi = link.cdf(eta)
    d = pi * z1 + (1.0 - pi) * z0
    return link.pdf(eta) * (z1 - z0) / np.maximum(d, 1e-300)


def _observed_counts(data):
    obs, _ = _masks(data)
    n_obs = obs.sum(axis=1)
    s_obs = np.where(obs, np.nan_to_num(data.responses), 0.0).sum(axis=1)
    return n_obs, s_obs


def _solve_constrained(terms, data):
    """Per-cluster root of the nuisance score ``terms`` (a :func:`_score_kernel`),
    safeguarded Newton/bisection.

    Non-informative clusters get +/-inf (separation) or NaN (no observed
    units); informative ones always bracket a root because the observed
    part of the score dominates both tails.
    """
    n = data.n_clusters
    n_obs, s_obs = _observed_counts(data)
    lam = np.full(n, np.nan)
    lam[(n_obs > 0) & (s_obs == 0)] = -np.inf
    lam[(n_obs > 0) & (s_obs == n_obs)] = np.inf
    active = (n_obs > 0) & (s_obs > 0) & (s_obs < n_obs)
    if not active.any():
        return lam

    lo = np.full(n, -20.0)
    hi = np.full(n, 20.0)
    for _ in range(5):
        bad_lo = active & (terms(lo, False)[0] <= 0.0)
        bad_hi = active & (terms(hi, False)[0] >= 0.0)
        if not (bad_lo.any() or bad_hi.any()):
            break
        lo = np.where(bad_lo, 2.0 * lo, lo)
        hi = np.where(bad_hi, 2.0 * hi, hi)
    else:
        still = active & ((terms(lo, False)[0] <= 0.0) | (terms(hi, False)[0] >= 0.0))
        active = active & ~still  # leave NaN: cluster should have been dropped

    x = 0.5 * (lo + hi)
    live = active.copy()
    for _ in range(80):
        if not live.any():
            break
        s, j = terms(x)
        done = np.abs(s) <= 1e-11
        live = live & ~done
        pos = s > 0.0
        lo = np.where(live & pos, x, lo)
        hi = np.where(live & ~pos, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x + s / j
        usable = live & (j > 0.0) & np.isfinite(newton) & (newton > lo) & (newton < hi)
        x = np.where(live, np.where(usable, newton, 0.5 * (lo + hi)), x)
        live = live & ((hi - lo) > 1e-14 * (1.0 + np.abs(x)))
    lam[active] = x[active]
    return lam


def fit_missingness_regression(data: ClusteredDataset):
    """ML fit of the missingness indicator on the covariates, no intercept.

    Parameterizes stage-two deletion when simulating MCAR replicates.
    Separation drives components beyond the cap, which is reported as
    non-convergence with the capped estimate.
    """
    mask = data.unit_mask
    x = data.covariates[mask]
    m = data.indicators[mask]

    def loglik(gamma):
        u = _clamp(x @ gamma)
        return float(np.sum(m * G.log_cdf(u) + (1.0 - m) * G.log_cdf(-u)))

    def score(gamma):
        return x.T @ (m - G.cdf(_clamp(x @ gamma)))

    res = optim.maximize_multivariate(loglik, np.zeros(data.n_covariates), score)
    gamma = np.atleast_1d(np.asarray(res.argmax, dtype=float))
    converged = bool(res.converged)
    if np.any(np.abs(gamma) > GAMMA2_BOUND):
        gamma = np.clip(gamma, -GAMMA2_BOUND, GAMMA2_BOUND)
        converged = False
    return gamma, converged


def make_binary_dataset(responses, covariates, missing=None, unit_mask=None,
                        cluster_labels=None) -> ClusteredDataset:
    """Dataset builder enforcing the response/missing-indicator pairing."""
    responses = np.asarray(responses, dtype=float)
    if responses.ndim == 1:
        responses = responses[None, :]
    if missing is None:
        missing = np.isnan(responses).astype(float)
    missing = np.asarray(missing, dtype=float)
    if missing.ndim == 1:
        missing = missing[None, :]
    responses = np.where(missing == 1.0, np.nan, responses)
    if unit_mask is None:
        unit_mask = np.ones(responses.shape, dtype=bool)
    present = np.asarray(unit_mask, dtype=bool) & (missing == 0.0)
    vals = responses[present]
    if vals.size and not np.isin(vals, (0.0, 1.0)).all():
        raise ValueError("observed responses must be 0/1")
    return make_dataset(responses, covariates, missing, unit_mask,
                        cluster_labels=cluster_labels)


# ---------------------------------------------------------------------------
# engine-facing model
# ---------------------------------------------------------------------------

@dataclass
class _BinaryDraws:
    """Raw replicate draws; a replicate's nuisance score is linear in them."""

    obs_y: np.ndarray         # (R, N, T) observed response (0 elsewhere)
    obs: np.ndarray           # (R, N, T) observed indicator
    miss: np.ndarray          # (R, N, T) missing indicator


@dataclass
class _BinaryReplicateBank:
    moments: np.ndarray        # (3, N, T) mean_r of obs_y, obs, miss times s_r(psi_hat)
    scores_at_mle: np.ndarray  # (R, N); (0, N) in the exact bank


class BinaryMissingModel(ClusteredModel):
    """Engine adapter for the binary regression with missing responses.

    ``mechanism`` selects the interest parameter: the regression
    coefficients alone (mcar) or those stacked with the missingness
    coefficients (mnar).
    """

    def __init__(self, link="logit", mechanism="mcar"):
        self.link = get_link(link)
        if mechanism not in ("mcar", "mnar"):
            raise ValueError("mechanism must be mcar or mnar")
        self.mechanism = mechanism

    # -- parameter packing ---------------------------------------------------

    def _split(self, psi, p):
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        if self.mechanism == "mcar":
            return psi[:p], None, 0.0
        return psi[:p], psi[p:2 * p], float(psi[2 * p])

    def param_names(self, data):
        p = data.n_covariates
        betas = tuple(f"beta{j + 1}" for j in range(p))
        if self.mechanism == "mcar":
            return betas
        gammas = tuple(f"gamma1_{j + 1}" for j in range(p))
        return betas + gammas + ("gamma2",)

    def initial_psi(self, data):
        p = data.n_covariates
        if self.mechanism == "mcar":
            return np.zeros(p)
        gamma1, _ = fit_missingness_regression(data)
        gamma1 = np.clip(gamma1, -5.0, 5.0)
        return np.concatenate([np.zeros(p), gamma1, [0.0]])

    def params_feasible(self, psi):
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        if not np.all(np.isfinite(psi)):
            return False
        if self.mechanism == "mnar":
            return abs(psi[-1]) <= GAMMA2_BOUND
        return True

    def bound_hits(self, psi):
        if self.mechanism == "mnar" and abs(psi[-1]) >= GAMMA2_BOUND - 0.5:
            return ("gamma2_at_bound",)
        return ()

    def bound_components(self, data):
        if self.mechanism == "mnar":
            return (2 * data.n_covariates,)
        return ()

    def maximize(self, objective, start, data, modified, grad=None):
        """One search from ``start``, then, under mnar, one probe near the
        separation wall; both searches take ``grad``.

        Separation leaves the objective flat in gamma2, and a quasi-Newton
        search stops on that ridge short of the wall. Where the objective
        at the wall ties or beats the search value, the search restarts
        there, so the estimate reaches the wall and :meth:`bound_hits`
        flags it.
        """
        res = optim.maximize_multivariate(objective, start, grad)
        if not self.bound_components(data):
            return res
        wall = np.array(res.argmax, dtype=float)
        wall[-1] = np.copysign(GAMMA2_BOUND - 0.25, wall[-1])
        probe = objective(wall)
        tie = res.value - optim.F_TOL * (1.0 + abs(res.value))
        if np.isfinite(probe) and probe >= tie:
            return optim.maximize_multivariate(objective, wall, grad)
        return res

    # -- likelihood pieces ----------------------------------------------------

    def informative_mask(self, data):
        n_obs, s_obs = _observed_counts(data)
        return (n_obs > 0) & (s_obs > 0) & (s_obs < n_obs)

    def cluster_logliks(self, psi, lam, data):
        beta, gamma1, gamma2 = self._split(psi, data.n_covariates)
        return _loglik_terms(self.link, self.mechanism, beta, gamma1, gamma2, lam, data)

    def _kernel(self, psi, data):
        return _score_kernel(self.link, self.mechanism,
                             *self._split(psi, data.n_covariates), data)

    def nuisance_score(self, psi, lam, data):
        return self._kernel(psi, data)(lam, want_info=False)[0]

    def nuisance_obs_info(self, psi, lam, data):
        return self._kernel(psi, data)(lam)[1]

    def constrained_nuisance(self, psi, data):
        return _solve_constrained(self._kernel(psi, data), data)

    def has_exact_expectation(self):
        return self.mechanism == "mcar"

    def exact_bank(self, psi, lam, data):
        """The exact bank under MCAR, conditional on the recorded units: a
        replicate score has mean zero there, so the moments are
        ``(obs f(eta_hat), 0, 0)``, and against :meth:`_score_weights` they
        give ``sum_t obs f(eta_hat) f(eta) / (F (1 - F))``. With the logit
        link that is the fit-only sum of variances pi_hat (1 - pi_hat).
        """
        if self.mechanism != "mcar":
            raise NotImplementedError("closed form exists under MCAR only")
        obs, _ = _masks(data)
        beta, _, _ = self._split(psi, data.n_covariates)
        f_hat = np.where(obs, np.exp(self.link.log_pdf(_eta(self.link, beta, lam, data))),
                         0.0)
        zero = np.zeros_like(f_hat)
        return _BinaryReplicateBank(moments=np.stack([f_hat, zero, zero]),
                                    scores_at_mle=np.empty((0, data.n_clusters)))

    # -- replicate machinery ----------------------------------------------------

    def _deletion_gamma(self, psi, data):
        """(gamma1, gamma2) of the stage-two deletion model."""
        if self.mechanism == "mnar":
            beta, gamma1, gamma2 = self._split(psi, data.n_covariates)
            return gamma1, gamma2
        if not (data.indicators[data.unit_mask] == 1.0).any():
            return None, 0.0  # complete data: nothing to delete
        gamma1, _ = fit_missingness_regression(data)
        return gamma1, 0.0

    def build_replicates(self, psi, lam, data, rng, n_replicates):
        """Two-stage replicates: complete responses, then random deletion.

        A replicate's nuisance score is linear in its ``obs_y``, ``obs`` and
        ``miss`` draws, so the bank keeps their (3, N, T) moments
        ``mean_r(X_r s_r(psi, lam))`` and the (R, N) scores, not the draws.
        :meth:`exact_bank` holds their expectations, conditional on the
        recorded units, instead of the replicate means.
        """
        draws = self._draw_replicates(psi, lam, data, rng, n_replicates)
        scores = self._replicate_scores(draws, psi, lam, data)
        moments = np.stack([np.einsum("rnt,rn->nt", x, scores)
                            for x in (draws.obs_y, draws.obs, draws.miss)])
        return _BinaryReplicateBank(moments=moments / n_replicates,
                                    scores_at_mle=scores)

    def _draw_replicates(self, psi, lam, data, rng, n_replicates):
        """The raw draws of :meth:`build_replicates` from ``rng``."""
        beta, _, _ = self._split(psi, data.n_covariates)
        gamma1, gamma2 = self._deletion_gamma(psi, data)
        eta = _eta(self.link, beta, lam, data)
        shape = (n_replicates,) + eta.shape
        y = (rng.random(shape) < self.link.cdf(eta)[None]).astype(float)
        if gamma1 is None:
            miss = np.zeros(shape)
        else:
            zeta = G.cdf(_clamp((data.covariates @ gamma1)[None] + gamma2 * y))
            miss = (rng.random(shape) < zeta).astype(float)
        valid = data.unit_mask[None]
        miss = np.where(valid, miss, 0.0)
        obs = np.where(valid, 1.0 - miss, 0.0)
        return _BinaryDraws(obs_y=obs * y, obs=obs, miss=miss)

    def _score_weights(self, psi, lam, data):
        """Per-unit weights (3, N, T) of a replicate's nuisance score on its
        ``obs_y``, ``obs`` and ``miss`` draws; they depend on the parameters
        and covariates only."""
        beta, gamma1, gamma2 = self._split(psi, data.n_covariates)
        eta = _eta(self.link, beta, lam, data)
        w_obs = np.exp(self.link.log_pdf(eta) - self.link.log_cdf(eta)
                       - self.link.log_cdf(-eta))
        w_mis = np.zeros_like(eta)
        if self.mechanism == "mnar":
            w_mis = _missing_score_weight(self.link, eta,
                                          *_missing_probs(gamma1, gamma2, data))
        return np.stack([w_obs, -self.link.cdf(eta) * w_obs, w_mis])

    def _replicate_scores(self, draws, psi, lam, data):
        """Nuisance scores of every raw replicate at (psi, lam), shape (R, N)."""
        w = self._score_weights(psi, lam, data)
        return (np.einsum("rnt,nt->rn", draws.obs_y, w[0])
                + np.einsum("rnt,nt->rn", draws.obs, w[1])
                + np.einsum("rnt,nt->rn", draws.miss, w[2]))

    def replicate_expectation(self, bank, psi, lam_psi, data):
        """Bank mean of the score product: the weights at ``(psi, lam_psi)``
        against the bank moments, O(NT)."""
        return np.einsum("knt,knt->n", self._score_weights(psi, lam_psi, data),
                         bank.moments)
