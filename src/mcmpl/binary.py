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
from .core import _PART_MEMO, ClusteredDataset, ClusteredModel, _recent, make_dataset

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

    ``log_sf`` is log(1-F), ``pdf_ratio`` is f'/f, ``mills_lower`` is f/F
    and ``mills_upper`` is f/(1-F); the Mills ratios stay finite in double
    precision at any clamped predictor, which keeps scores and information
    stable where F underflows. ``rules`` gives each of them as a function
    of the :class:`LinkValues` at one eta, so a value made from another
    reuses that pass.
    """

    rules: dict = {}

    def at(self, eta) -> LinkValues:
        return LinkValues(self, eta)

    def cdf(self, eta):
        return self.at(eta).cdf

    def log_cdf(self, eta):
        return self.at(eta).log_cdf

    def log_pdf(self, eta):
        return self.at(eta).log_pdf


class LinkValues:
    """A link's values at one ``eta``, read as attributes named after its
    ``rules``; each is computed on first use and kept."""

    def __init__(self, link, eta):
        self.link, self.eta = link, eta

    def __getattr__(self, name):
        try:
            rule = self.link.rules[name]
        except KeyError:
            raise AttributeError(name) from None
        value = self.__dict__[name] = rule(self)
        return value


class LogitLink(Link):
    # one expit(eta) serves F, f/(1-F), f = F(1-F) and f'/f = 1-2F
    rules = {
        "cdf": lambda v: expit(v.eta),
        "log_cdf": lambda v: log_expit(v.eta),
        "log_sf": lambda v: log_expit(-v.eta),
        "pdf": lambda v: v.cdf * (1.0 - v.cdf),
        "log_pdf": lambda v: v.log_cdf + v.log_sf,
        "pdf_ratio": lambda v: 1.0 - 2.0 * v.cdf,
        "mills_lower": lambda v: expit(-v.eta),
        "mills_upper": lambda v: v.cdf,
    }


class ProbitLink(Link):
    rules = {
        "cdf": lambda v: ndtr(v.eta),
        "log_cdf": lambda v: log_ndtr(v.eta),
        "log_sf": lambda v: log_ndtr(-v.eta),
        "pdf": lambda v: np.exp(-0.5 * v.eta ** 2) / np.sqrt(2.0 * np.pi),
        "log_pdf": lambda v: -0.5 * v.eta ** 2 - _LOG_SQRT_2PI,
        "pdf_ratio": lambda v: -v.eta,
        "mills_lower": lambda v: np.exp(v.log_pdf - v.log_cdf),
        "mills_upper": lambda v: np.exp(v.log_pdf - v.log_sf),
    }


LOGIT = LogitLink()
PROBIT = ProbitLink()
#: the link functions by name
LINKS = {"logit": LOGIT, "probit": PROBIT}

#: the missingness probability always uses the logistic CDF
G = LOGIT


def get_link(name: str) -> Link:
    try:
        return LINKS[name]
    except KeyError:
        raise ValueError(f"unknown link {name!r}; expected logit or probit") from None


def _clamp(eta):
    return np.minimum(np.maximum(eta, -PREDICTOR_CLAMP), PREDICTOR_CLAMP)


def _recorded(data: ClusteredDataset):
    """Observed and missing units, and the recorded response (0 elsewhere)."""
    obs = (data.indicators == 0.0) & data.unit_mask
    mis = (data.indicators == 1.0) & data.unit_mask
    return obs, mis, np.where(obs, data.responses, 0.0)


@dataclass(frozen=True)
class _PsiPart:
    """What every kernel reads at one psi on ``data`` that does not depend
    on lam; the arrays are read-only. The missingness pieces are set under
    mnar only."""

    data: ClusteredDataset
    gamma2: float
    obs: np.ndarray                 # (N, T) observed units
    mis: np.ndarray                 # (N, T) missing units
    y: np.ndarray                   # (N, T) recorded response, 0 elsewhere
    not_y: np.ndarray               # 1 - y
    xb: np.ndarray                  # (N, T) x beta
    u0: np.ndarray | None = None    # x gamma1; only x gamma1 + gamma2 y is clamped
    z0: np.ndarray | None = None    # missingness probability at y = 0
    z1: np.ndarray | None = None    # and at y = 1

    @classmethod
    def build(cls, mechanism, beta, gamma1, gamma2, data):
        obs, mis, y = _recorded(data)
        arrays = dict(obs=obs, mis=mis, y=y, not_y=1.0 - y, xb=data.covariates @ beta)
        if mechanism == "mnar":
            u0 = data.covariates @ gamma1
            arrays.update(u0=u0, z0=G.cdf(_clamp(u0)), z1=G.cdf(_clamp(u0 + gamma2)))
        for a in arrays.values():
            a.setflags(write=False)
        return cls(data=data, gamma2=gamma2, **arrays)

    def eta(self, lam):
        return _clamp(np.asarray(lam, dtype=float)[:, None] + self.xb)


# ---------------------------------------------------------------------------
# vectorized kernels (per-cluster results as length-N arrays)
# ---------------------------------------------------------------------------

def _loglik_terms(link, part, lam):
    eta = part.eta(lam)
    obs, mis, y = part.obs, part.mis, part.y
    # y log F + (1 - y) log(1 - F), one log-CDF pass at the signed predictor
    ll = np.where(obs, link.log_cdf(np.where(y, eta, -eta)), 0.0)
    if part.u0 is not None:
        # observed units contribute log(1 - zeta) at their recorded response
        u_at_y = _clamp(part.u0 + part.gamma2 * y)
        ll = ll + np.where(obs, G.log_cdf(-u_at_y), 0.0)
        pi = link.cdf(eta)
        mix = pi * part.z1 + (1.0 - pi) * part.z0
        if np.any(mix[mis] <= 0.0):
            raise ProbabilityUnderflowError("mixture probability underflowed to 0")
        ll = ll + np.where(mis, np.log(np.maximum(mix, 1e-300)), 0.0)
    return ll.sum(axis=1)


def _score_kernel(link, part):
    """Per-cluster nuisance score and observed information as a function of
    lam, over the psi-only ``part``."""
    obs, mis, y, not_y = part.obs, part.mis, part.y, part.not_y

    def terms(lam, want_info=True):
        v = link.at(part.eta(lam))
        r_lo, r_hi = v.mills_lower, v.mills_upper    # f/F, f/(1-F)
        score = np.where(obs, y * r_lo - not_y * r_hi, 0.0)
        info = None
        if want_info:
            g = v.pdf_ratio                          # f'/f
            info = np.where(obs, y * r_lo * (r_lo - g) + not_y * r_hi * (r_hi + g), 0.0)
        if part.z0 is not None:
            s_mis = _missing_score_weight(v, part.z0, part.z1)
            score = score + np.where(mis, s_mis, 0.0)
            if want_info:
                info = info + np.where(mis, s_mis * (s_mis - g), 0.0)
        return score.sum(axis=1), (info.sum(axis=1) if want_info else None)

    return terms


def _missing_score_weight(v, z0, z1):
    """Per-unit score contribution of a missing response, f(z1-z0)/D, from
    the :class:`LinkValues` ``v``."""
    d = v.cdf * z1 + (1.0 - v.cdf) * z0
    return v.pdf * (z1 - z0) / np.maximum(d, 1e-300)


def _solve_constrained(terms, part):
    """Per-cluster root of the nuisance score ``terms`` (a :func:`_score_kernel`),
    safeguarded Newton/bisection.

    Non-informative clusters get +/-inf (separation) or NaN (no observed
    units); informative ones always bracket a root because the observed
    part of the score dominates both tails.
    """
    n_obs, s_obs = part.obs.sum(axis=1), part.y.sum(axis=1)
    n = n_obs.size
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
    """Raw replicate draws, as booleans; a replicate's nuisance score is
    linear in them, and under mcar in ``obs_y`` and ``obs`` alone."""

    obs_y: np.ndarray         # (R, N, T) observed response (False elsewhere)
    obs: np.ndarray           # (R, N, T) observed indicator
    miss: np.ndarray          # (R, N, T) missing indicator


@dataclass
class _BinaryReplicateBank:
    moments: np.ndarray        # (K, N, T) mean_r of each scored draw times s_r(psi_hat)
    scores_at_mle: np.ndarray  # (R, N); (0, N) in the exact bank


class BinaryMissingModel(ClusteredModel):
    """Engine adapter for the binary regression with missing responses.

    ``mechanism`` selects the interest parameter: the regression
    coefficients alone (mcar) or those stacked with the missingness
    coefficients (mnar). The model keeps the :class:`_PsiPart` of the last
    two (psi, dataset) pairs it was asked about.
    """

    def __init__(self, link="logit", mechanism="mcar"):
        self.link = get_link(link)
        if mechanism not in ("mcar", "mnar"):
            raise ValueError("mechanism must be mcar or mnar")
        self.mechanism = mechanism
        self._parts = {}  # psi.tobytes() -> _PsiPart, oldest first

    def _part(self, psi, data):
        """The :class:`_PsiPart` at ``psi`` on ``data``, from the memo when
        the pair was among the last ones asked for."""
        psi = np.atleast_1d(np.asarray(psi, dtype=float))
        return _recent(self._parts, psi.tobytes(), _PART_MEMO, lambda: _PsiPart.build(
            self.mechanism, *self._split(psi, data.n_covariates), data),
            usable=lambda part: part.data is data)

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
            return {"gamma2_at_bound": psi.size - 1}
        return {}

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
        if self.mechanism != "mnar":
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
        obs, _, y = _recorded(data)
        n_obs, s_obs = obs.sum(axis=1), y.sum(axis=1)
        return (n_obs > 0) & (s_obs > 0) & (s_obs < n_obs)

    def cluster_logliks(self, psi, lam, data):
        return _loglik_terms(self.link, self._part(psi, data), lam)

    def _kernel(self, psi, data):
        return _score_kernel(self.link, self._part(psi, data))

    def nuisance_score(self, psi, lam, data):
        return self._kernel(psi, data)(lam, want_info=False)[0]

    def nuisance_obs_info(self, psi, lam, data):
        return self._kernel(psi, data)(lam)[1]

    def constrained_nuisance(self, psi, data):
        part = self._part(psi, data)
        return _solve_constrained(_score_kernel(self.link, part), part)

    def has_exact_expectation(self):
        return self.mechanism == "mcar"

    def exact_bank(self, psi, lam, data):
        """The exact bank under MCAR, conditional on the recorded units: a
        replicate score has mean zero there, so the moments are
        ``(obs f(eta_hat), 0)``, and against :meth:`_score_weights` they
        give ``sum_t obs f(eta_hat) f(eta) / (F (1 - F))``. With the logit
        link that is the fit-only sum of variances pi_hat (1 - pi_hat).
        """
        if self.mechanism != "mcar":
            raise NotImplementedError("closed form exists under MCAR only")
        part = self._part(psi, data)
        f_hat = np.where(part.obs, np.exp(self.link.log_pdf(part.eta(lam))), 0.0)
        return _BinaryReplicateBank(moments=np.stack([f_hat, np.zeros_like(f_hat)]),
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

        A replicate's nuisance score is linear in its :meth:`_scored` draws,
        so the bank keeps their (K, N, T) moments ``mean_r(X_r s_r(psi, lam))``
        and the (R, N) scores, not the draws: K = 2 under mcar, 3 under mnar.
        The scores and moments are formed from the boolean draws, and the
        one float (R, N, T) array of the build is the uniform buffer.
        :meth:`exact_bank` holds their expectations, conditional on the
        recorded units, instead of the replicate means.
        """
        draws = self._draw_replicates(psi, lam, data, rng, n_replicates)
        scores = self._replicate_scores(draws, psi, lam, data)
        moments = np.stack([np.einsum("rnt,rn->nt", x, scores)
                            for x in self._scored(draws)])
        return _BinaryReplicateBank(moments=moments / n_replicates,
                                    scores_at_mle=scores)

    def _draw_replicates(self, psi, lam, data, rng, n_replicates):
        """The boolean draws of :meth:`build_replicates` from ``rng``:
        responses, then deletions, both from one reused uniform buffer.

        The deletion probability takes two values per unit, at y = 0 and
        y = 1, so both are made on (N, T) and each draw compares its uniform
        with its own.
        """
        gamma1, gamma2 = self._deletion_gamma(psi, data)
        pi = self.link.cdf(self._part(psi, data).eta(lam))
        u = rng.random(out=np.empty((n_replicates,) + pi.shape))
        y = u < pi
        miss = np.zeros(u.shape, dtype=bool)
        if gamma1 is not None:
            x_gamma1 = data.covariates @ gamma1
            rng.random(out=u)
            miss = u < G.cdf(_clamp(x_gamma1 + gamma2 * 0.0))
            if gamma2 != 0.0:
                np.copyto(miss, u < G.cdf(_clamp(x_gamma1 + gamma2 * 1.0)), where=y)
            miss &= data.unit_mask
        obs = data.unit_mask & ~miss
        return _BinaryDraws(obs_y=obs & y, obs=obs, miss=miss)

    def _scored(self, draws):
        """The draws weighed by the rows of :meth:`_score_weights`."""
        rows = (draws.obs_y, draws.obs, draws.miss)
        return rows if self.mechanism == "mnar" else rows[:2]

    def _score_weights(self, psi, lam, data):
        """Per-unit weights (K, N, T) of a replicate's nuisance score on its
        :meth:`_scored` draws; they depend on the parameters and covariates
        only. A missing unit enters the score under mnar alone."""
        part = self._part(psi, data)
        v = self.link.at(part.eta(lam))
        w_obs = np.exp(v.log_pdf - v.log_cdf - v.log_sf)
        w = [w_obs, -v.cdf * w_obs]
        if part.z0 is not None:
            w.append(_missing_score_weight(v, part.z0, part.z1))
        return np.stack(w)

    def _replicate_scores(self, draws, psi, lam, data):
        """Nuisance scores of every raw replicate at (psi, lam), shape (R, N)."""
        return sum(np.einsum("rnt,nt->rn", x, w) for x, w in
                   zip(self._scored(draws), self._score_weights(psi, lam, data)))

    def replicate_expectation(self, bank, psi, lam_psi, data):
        """Bank mean of the score product: the weights at ``(psi, lam_psi)``
        against the bank moments, O(NT)."""
        return np.einsum("knt,knt->n", self._score_weights(psi, lam_psi, data),
                         bank.moments)
