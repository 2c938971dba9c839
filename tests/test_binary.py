import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import expit, log_expit, logsumexp, ndtr
from scipy.stats import norm

from mcmpl import binary, core, harness, optim
from mcmpl.binary import (
    BinaryMissingModel,
    fit_missingness_regression,
    make_binary_dataset,
)
from mcmpl.core import MonteCarloConfig, substream
from oracles import conditional_logit_mle, log_elementary_symmetric

MCAR = BinaryMissingModel()
MNAR = BinaryMissingModel(mechanism="mnar")


def random_cluster(rng, t=6, link="logit"):
    """A one-cluster dataset with MNAR parameters (beta, gamma1, gamma2) and lam."""
    x = rng.normal(size=(1, t))
    y = (rng.random((1, t)) < 0.5).astype(float)
    miss = (rng.random((1, t)) < 0.3).astype(float)
    data = make_binary_dataset(np.where(miss == 1, np.nan, y), x, miss)
    psi = np.array([rng.normal(), rng.normal(), rng.normal()])
    lam = np.array([rng.normal()])
    return BinaryMissingModel(link=link, mechanism="mnar"), psi, lam, data


def informative(data, model=MCAR):
    return core.drop_noninformative(model, data)


class TestClusterObsLoglik:
    def test_single_missing_unit(self):
        # pi=0.5, zeta0=0.2, zeta1=0.4 -> log 0.3
        # x = 1 carries gamma1' x; gamma2 moves zeta from 0.2 to 0.4
        data = make_binary_dataset(np.array([[np.nan]]), np.array([[1.0]]),
                                   np.array([[1.0]]))
        psi = np.array([0.0, np.log(0.2 / 0.8),
                        np.log(0.4 / 0.6) - np.log(0.2 / 0.8)])
        ll = MNAR.cluster_logliks(psi, np.zeros(1), data)[0]
        assert ll == pytest.approx(np.log(0.3), abs=1e-10)

    def test_single_observed_unit(self):
        # m=0, y=1, pi=0.5, zeta=0.2 -> log 0.5 + log 0.8
        data = make_binary_dataset(np.array([[1.0]]), np.array([[1.0]]),
                                   np.array([[0.0]]))
        psi = np.array([0.0, np.log(0.2 / 0.8), 0.0])
        assert MNAR.cluster_logliks(psi, np.zeros(1), data)[0] == pytest.approx(
            np.log(0.5) + np.log(0.8), abs=1e-10)

    def test_missingness_predictor_clamped_whole(self):
        # x gamma1 = 50 lies past the predictor clamp; each missingness
        # predictor x gamma1 + gamma2 y is clamped, not x gamma1 alone
        data = make_binary_dataset(np.array([[1.0, 0.0, np.nan]]),
                                   np.array([[20.0, 0.1, 20.0]]),
                                   np.array([[0.0, 0.0, 1.0]]))
        psi, lam = np.array([0.05, 2.5, -30.0]), 0.2
        pi = expit(lam + 0.05 * 20.0)
        expected = (log_expit(lam + 0.05 * 20.0) + log_expit(-(50.0 - 30.0))
                    + log_expit(-(lam + 0.05 * 0.1)) + log_expit(-0.25)
                    + np.log(pi * expit(50.0 - 30.0) + (1.0 - pi) * expit(35.0)))
        ll = MNAR.cluster_logliks(psi, np.array([lam]), data)[0]
        assert ll == pytest.approx(expected, abs=1e-10)

    def test_collapses_to_mcar_plus_missingness_terms(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            model, psi, lam, data = random_cluster(rng)
            psi[2] = 0.0
            full = model.cluster_logliks(psi, lam, data)[0]
            mcar = MCAR.cluster_logliks(psi[:1], lam, data)[0]
            u = np.clip(data.covariates @ psi[1:2], -35, 35)
            zeta = expit(u)
            obs = (data.indicators == 0.0) & data.unit_mask
            mis = (data.indicators == 1.0) & data.unit_mask
            extra = (np.where(mis, np.log(zeta), 0.0)
                     + np.where(obs, np.log1p(-zeta), 0.0)).sum()
            assert full == pytest.approx(mcar + extra, abs=1e-9)


class TestMcarClusterLoglik:
    def test_all_missing_is_zero(self):
        data = make_binary_dataset(np.array([[np.nan, np.nan]]),
                                   np.zeros((1, 2)), np.ones((1, 2)))
        assert MCAR.cluster_logliks(np.array([0.3]), np.array([0.1]), data)[0] == 0.0

    def test_two_units_half_probability(self):
        data = make_binary_dataset(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        assert MCAR.cluster_logliks(np.array([0.0]), np.zeros(1), data)[0] \
            == pytest.approx(2 * np.log(0.5))


class TestNuisanceScore:
    def test_logit_zero_at_observed_mean(self):
        y = np.array([[1.0, 1.0, 0.0, 1.0]])
        data = make_binary_dataset(y, np.zeros((1, 4)))
        lam = np.array([np.log(0.75 / 0.25)])
        assert MCAR.nuisance_score(np.array([0.0]), lam, data)[0] \
            == pytest.approx(0.0, abs=1e-12)

    def test_probit_matches_numerical_gradient(self):
        data = make_binary_dataset(np.array([[1.0, 0.0, 1.0]]),
                                   np.array([[0.2, -0.4, 0.9]]))
        model = BinaryMissingModel(link="probit")
        beta = np.array([0.7])

        def loglik(lam):
            return model.cluster_logliks(beta, lam, data)[0]

        numeric = optim.numerical_gradient(loglik, np.array([0.3]))[0]
        assert model.nuisance_score(beta, np.array([0.3]), data)[0] \
            == pytest.approx(numeric, abs=1e-5)

    def test_mnar_missing_units_vanish_when_zetas_equal(self):
        data = make_binary_dataset(np.array([[np.nan, np.nan]]),
                                   np.array([[0.5, -0.5]]), np.ones((1, 2)))
        psi = np.array([0.4, 1.0, 0.0])
        assert MNAR.nuisance_score(psi, np.array([0.2]), data)[0] == 0.0


class TestNuisanceObsInfo:
    def test_logit_symmetric_point(self):
        data = make_binary_dataset(np.array([[1.0, 0.0, 1.0, 0.0]]),
                                   np.zeros((1, 4)))
        assert MCAR.nuisance_obs_info(np.array([0.0]), np.zeros(1), data)[0] \
            == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_matches_second_difference(self, link):
        rng = np.random.default_rng(11)
        for _ in range(8):
            model, psi, lam, data = random_cluster(rng, link=link)

            def loglik(v):
                return model.cluster_logliks(psi, v, data)[0]

            h = optim.numerical_hessian(loglik, lam[:1])[0, 0]
            analytic = model.nuisance_obs_info(psi, lam, data)[0]
            assert abs(analytic - (-h)) <= 1e-4 * (1.0 + abs(analytic))

    def test_fully_missing_equal_zetas_zero(self):
        data = make_binary_dataset(np.array([[np.nan, np.nan]]),
                                   np.array([[0.3, -0.1]]), np.ones((1, 2)))
        psi = np.array([0.4, 1.0, 0.0])
        assert MNAR.nuisance_obs_info(psi, np.array([0.2]), data)[0] == 0.0


class TestConstrainedNuisance:
    def test_closed_form_null_covariates(self):
        y = np.array([[1.0, 0.0, 0.0, 0.0]])
        data = make_binary_dataset(y, np.zeros((1, 4)))
        assert MCAR.constrained_nuisance(np.array([0.0]), data)[0] \
            == pytest.approx(np.log(1 / 3), abs=1e-9)

    def test_separation_returns_infinite(self):
        data = make_binary_dataset(np.array([[1.0, 1.0, 1.0]]), np.zeros((1, 3)))
        assert MCAR.constrained_nuisance(np.array([0.0]), data)[0] == np.inf

    def test_root_property(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model, psi, _, data = random_cluster(rng)
            _, dropped = informative(data)
            if dropped:
                continue
            lam = model.constrained_nuisance(psi, data)
            assert abs(model.nuisance_score(psi, lam, data)[0]) <= 1e-6


class TestExactExpectation:
    def test_logit_at_mle_equals_info(self):
        data, _ = informative(_sim_mcar(40, 6, seed=2))
        model = BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        lam = model.constrained_nuisance(fit.psi_hat, data)
        vals = model.replicate_expectation(model.exact_bank(fit.psi_hat, lam, data),
                                           fit.psi_hat, lam, data)
        info = model.nuisance_obs_info(fit.psi_hat, lam, data)
        assert vals == pytest.approx(info, rel=1e-10)

    def test_probit_single_unit_constant(self):
        # phi(0)^2 / (Phi(0)(1 - Phi(0))) = (0.39894...)^2 / 0.25
        data = make_binary_dataset(np.array([[1.0]]), np.array([[0.0]]))
        zero = np.zeros(1)
        model = BinaryMissingModel(link="probit")
        val = model.replicate_expectation(model.exact_bank(zero, zero, data),
                                          zero, zero, data)[0]
        assert val == pytest.approx(norm.pdf(0.0) ** 2 / 0.25, abs=1e-6)
        assert val == pytest.approx(0.63662, abs=1e-5)

    def test_logit_constant_in_beta(self):
        data, _ = informative(_sim_mcar(30, 5, seed=4))
        model = BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        lam_mle = model.constrained_nuisance(fit.psi_hat, data)
        bank = model.exact_bank(fit.psi_hat, lam_mle, data)
        rng = substream(3, 0)
        reference = None
        for _ in range(5):
            psi = fit.psi_hat + rng.normal(scale=0.8)
            lam_psi = model.constrained_nuisance(psi, data)
            vals = model.replicate_expectation(bank, psi, lam_psi, data)
            if reference is None:
                reference = vals
            assert vals == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_exact_bank_matches_closed_form(self, link):
        # the closed form written out: sum_t obs f(eta_hat) f(eta) / (F (1 - F))
        data, _ = informative(_sim_mcar(30, 5, seed=9))
        model = BinaryMissingModel(link=link)
        cdf = expit if link == "logit" else ndtr
        pdf = (lambda e: expit(e) * expit(-e)) if link == "logit" else norm.pdf
        fit = core.fit(model, data, "profile")
        lam_mle = model.constrained_nuisance(fit.psi_hat, data)
        bank = model.exact_bank(fit.psi_hat, lam_mle, data)
        obs = data.unit_mask & (data.indicators == 0.0)
        f_hat = pdf(lam_mle[:, None] + data.covariates @ fit.psi_hat)
        rng = substream(12, 0)
        for _ in range(5):
            psi = fit.psi_hat + rng.normal(scale=0.5, size=1)
            lam_psi = model.constrained_nuisance(psi, data)
            eta = lam_psi[:, None] + data.covariates @ psi
            closed = np.where(obs, f_hat * pdf(eta) / (cdf(eta) * cdf(-eta)), 0.0)
            vals = model.replicate_expectation(bank, psi, lam_psi, data)
            assert vals == pytest.approx(closed.sum(axis=1), rel=1e-12)

    def test_mnar_has_no_exact_bank(self):
        data, _ = informative(_sim_mcar(10, 4, seed=2), MNAR)
        with pytest.raises(NotImplementedError):
            MNAR.exact_bank(np.zeros(3), np.zeros(data.n_clusters), data)

    def test_matches_monte_carlo_at_large_r(self):
        # the replicate scheme deletes units anew each replicate, so the MC
        # limit is the unconditional expectation: the per-unit closed-form
        # terms weighted by the estimated observation probabilities
        data, _ = informative(_sim_mcar(20, 5, seed=6))
        model = BinaryMissingModel(link="probit")
        fit = core.fit(model, data, "profile")
        psi = fit.psi_hat + 0.2
        lam_mle = model.constrained_nuisance(fit.psi_hat, data)
        lam_psi = model.constrained_nuisance(psi, data)
        link = model.link
        eta_b = np.clip(lam_psi[:, None] + data.covariates @ psi, -35, 35)
        eta_hat = np.clip(lam_mle[:, None] + data.covariates @ fit.psi_hat, -35, 35)
        per_unit = np.exp(link.log_pdf(eta_b) - link.log_cdf(eta_b)
                          - link.log_cdf(-eta_b) + link.log_pdf(eta_hat))
        gamma1, _ = fit_missingness_regression(data)
        obs_prob = expit(-(data.covariates @ gamma1))
        unconditional = np.where(data.unit_mask, obs_prob * per_unit, 0.0).sum(axis=1)
        mc = MonteCarloConfig(replicates=50_000, master_seed=41)
        bank = model.build_replicates(fit.psi_hat, lam_mle, data,
                                      mc.generator(0), mc.replicates)
        approx = model.replicate_expectation(bank, psi, lam_psi, data)
        draws = model._draw_replicates(fit.psi_hat, lam_mle, data,
                                       mc.generator(0), mc.replicates)
        scores_psi = model._replicate_scores(draws, psi, lam_psi, data)
        products = scores_psi * bank.scores_at_mle
        mc_se = products.std(axis=0, ddof=1) / np.sqrt(mc.replicates)
        assert np.all(np.abs(approx - unconditional) <= 3.5 * mc_se)


def _sim_mcar(n, t, seed, gamma1=2.5):
    rng = substream(seed, 0)
    x = -0.35 + rng.standard_normal((n, t))
    lam = -0.35 + rng.standard_normal(n)
    y = (rng.random((n, t)) < expit(lam[:, None] + x)).astype(float)
    miss = (rng.random((n, t)) < expit(gamma1 * x)).astype(float)
    return make_binary_dataset(np.where(miss == 1, np.nan, y), x, miss)


class TestSimulateReplicate:
    def test_zero_deletion_probability_keeps_everything(self):
        data, _ = informative(_sim_mcar(10, 5, seed=8))
        model = BinaryMissingModel(mechanism="mnar")
        psi = np.array([1.0, -30.0, 0.0])  # G(-30 x) ~ 0 for x > 0
        data_pos = make_binary_dataset(
            np.where(data.indicators == 1, np.nan, data.responses),
            np.abs(data.covariates[:, :, 0]) + 0.1, data.indicators)
        lam = np.zeros(data_pos.n_clusters)
        draws = model._draw_replicates(psi, lam, data_pos, substream(1, 0), 1)
        assert draws.miss.sum() == 0
        assert np.array_equal(draws.obs[0], data_pos.unit_mask)

    def test_missing_fraction_binomial_oracle(self):
        data, _ = informative(_sim_mcar(12, 6, seed=9))
        model = BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        lam = model.constrained_nuisance(fit.psi_hat, data)
        gamma1, _ = fit_missingness_regression(data)
        pi = expit(lam[:, None] + data.covariates @ fit.psi_hat)
        zeta = expit(data.covariates @ gamma1)
        expected = zeta[data.unit_mask].mean()
        n_draws = 10_000
        draws = model._draw_replicates(fit.psi_hat, lam, data, substream(2, 0), n_draws)
        share = draws.miss[:, data.unit_mask].mean()
        n_units = int(data.unit_mask.sum()) * n_draws
        sigma = np.sqrt(expected * (1 - expected) / n_units)
        assert abs(share - expected) <= 4 * sigma

    def test_paper_mcar_setup_missing_share(self):
        rng = substream(10, 0)
        x = -0.35 + rng.standard_normal((400, 10))
        share = expit(2.5 * x).mean()
        assert 0.35 <= share <= 0.40


class TestReplicateScores:
    @pytest.mark.parametrize("link", ["logit", "probit"])
    @pytest.mark.parametrize("mechanism", ["mcar", "mnar"])
    def test_bank_scores_match_solver_scores(self, link, mechanism):
        # the bank scores a replicate with f/(F(1-F)) weights and the solver
        # with Mills ratios; a replicate rebuilt as a dataset must score alike
        rng = np.random.default_rng(8)
        n, t = 20, 6
        x = rng.normal(size=(n, t))
        miss = (rng.random((n, t)) < 0.3).astype(float)
        y = (rng.random((n, t)) < 0.5).astype(float)
        data = make_binary_dataset(np.where(miss == 1, np.nan, y), x, miss)
        model = BinaryMissingModel(link=link, mechanism=mechanism)
        psi = np.array([0.8, 1.5, 0.7])[:len(model.param_names(data))]
        lam = rng.normal(size=n)
        draws = model._draw_replicates(psi, lam, data, substream(9, 0), 1)
        replicate = make_binary_dataset(
            np.where(draws.miss[0] == 1.0, np.nan, draws.obs_y[0]), x, draws.miss[0])
        expected = model.build_replicates(psi, lam, data, substream(9, 0), 1).scores_at_mle[0]
        score = model.nuisance_score(psi, lam, replicate)
        assert np.all(np.abs(score - expected) <= 1e-12 * (1.0 + np.abs(expected)))


class TestMomentBank:
    @pytest.mark.parametrize("link", ["logit", "probit"])
    @pytest.mark.parametrize("mechanism", ["mcar", "mnar"])
    def test_expectation_matches_raw_draw_mean(self, link, mechanism):
        # the bank keeps (K, N, T) moments instead of the draws; its
        # expectation is the raw-draw mean of score products re-summed
        rng = np.random.default_rng(21)
        n, t, r = 20, 6, 300
        x = rng.normal(size=(n, t))
        miss = (rng.random((n, t)) < 0.3).astype(float)
        y = (rng.random((n, t)) < 0.5).astype(float)
        data = make_binary_dataset(np.where(miss == 1, np.nan, y), x, miss)
        model = BinaryMissingModel(link=link, mechanism=mechanism)
        k = len(model.param_names(data))
        psi_mle = np.array([0.8, 1.5, 0.7])[:k]
        lam_mle = rng.normal(size=n)
        psi = psi_mle + np.array([0.3, -0.4, 0.5])[:k]
        lam_psi = lam_mle - 0.2
        bank = model.build_replicates(psi_mle, lam_mle, data, substream(22, 0), r)
        draws = model._draw_replicates(psi_mle, lam_mle, data, substream(22, 0), r)
        at_mle = model._replicate_scores(draws, psi_mle, lam_mle, data)
        raw = (model._replicate_scores(draws, psi, lam_psi, data) * at_mle).mean(axis=0)
        moment = model.replicate_expectation(bank, psi, lam_psi, data)
        assert np.all(np.abs(moment - raw) <= 1e-12 * np.abs(raw))
        assert np.array_equal(bank.scores_at_mle, at_mle)
        assert bank.moments.shape == (2 if mechanism == "mcar" else 3, n, t)

    @pytest.mark.parametrize("mechanism, gamma2, k", [("mcar", 0.0, 2), ("mnar", 1.7, 3)])
    def test_one_moment_row_per_score_weight(self, mechanism, gamma2, k):
        # a missing unit enters the score under mnar only, so no mcar bank,
        # replicate or exact, keeps a moment of the miss draws
        model, data, psi, lam = draw_case("logit", mechanism, gamma2, "full")
        n, t = data.responses.shape
        assert model._score_weights(psi, lam, data).shape == (k, n, t)
        bank = model.build_replicates(psi, lam, data, substream(38, 0), 50)
        assert bank.moments.shape == (k, n, t)
        if model.has_exact_expectation():
            exact = model.exact_bank(psi, lam, data).moments
            assert exact.shape == (k, n, t)
            assert exact[0].any() and not exact[1].any()


def elementwise_draws(model, psi, lam, data, rng, n_replicates):
    """Reference for the replicate draw: the deletion probability evaluated
    at every (R, N, T) response draw, in float arithmetic throughout."""
    beta = np.atleast_1d(psi)[:data.n_covariates]
    gamma1, gamma2 = model._deletion_gamma(psi, data)
    eta = binary._clamp(lam[:, None] + data.covariates @ beta)
    shape = (n_replicates,) + eta.shape
    y = (rng.random(shape) < model.link.cdf(eta)[None]).astype(float)
    if gamma1 is None:
        miss = np.zeros(shape)
    else:
        zeta = binary.G.cdf(binary._clamp((data.covariates @ gamma1)[None] + gamma2 * y))
        miss = (rng.random(shape) < zeta).astype(float)
    valid = data.unit_mask[None]
    miss = np.where(valid, miss, 0.0)
    obs = np.where(valid, 1.0 - miss, 0.0)
    return binary._BinaryDraws(obs_y=obs * y, obs=obs, miss=miss)


def scored_draws(draws, mechanism):
    """The draws a replicate's score is linear in: the miss draws enter
    under mnar only."""
    rows = (draws.obs_y, draws.obs, draws.miss)
    return rows if mechanism == "mnar" else rows[:2]


def draw_case(link, mechanism, gamma2, layout, n=12, t=5):
    """An n-cluster dataset, its model, and (psi, lam) at which to draw;
    ``layout`` is full, ragged (some clusters end early) or complete (no
    missing responses)."""
    rng = np.random.default_rng(31)
    x = rng.normal(scale=2.0, size=(n, t))
    x[0, :2] = (12.0, -12.0)  # past the predictor clamp at gamma1 = 4.5
    y = (rng.random((n, t)) < 0.5).astype(float)
    miss = (rng.random((n, t)) < 0.3).astype(float)
    mask = np.ones((n, t), dtype=bool)
    if layout == "ragged":
        mask[::3, 3:] = False
    if layout == "complete":
        miss[:] = 0.0
    miss = np.where(mask, miss, 0.0)
    data = make_binary_dataset(np.where(mask & (miss == 0), y, np.nan), x, miss,
                               unit_mask=mask)
    model = BinaryMissingModel(link=link, mechanism=mechanism)
    psi = np.array([0.8, 4.5, gamma2])[:len(model.param_names(data))]
    return model, data, psi, rng.normal(size=n)


DRAW_CASES = [(link, mechanism, gamma2, layout)
              for link in ("logit", "probit")
              for mechanism, gammas in (("mcar", (0.0,)), ("mnar", (1.7, -1.3)))
              for gamma2 in gammas
              for layout in ("full", "ragged", "complete")]


class TestTwoValuedDraw:
    @pytest.mark.parametrize("link, mechanism, gamma2, layout", DRAW_CASES)
    def test_draws_match_elementwise_reference(self, link, mechanism, gamma2, layout):
        model, data, psi, lam = draw_case(link, mechanism, gamma2, layout)
        rng, ref_rng = substream(33, 0), substream(33, 0)
        draws = model._draw_replicates(psi, lam, data, rng, 200)
        ref = elementwise_draws(model, psi, lam, data, ref_rng, 200)
        for name in ("obs_y", "obs", "miss"):
            drawn, want = getattr(draws, name), getattr(ref, name)
            assert drawn.dtype == bool
            assert np.array_equal(drawn, want == 1.0)
            assert np.array_equal(drawn, want != 0.0)
        if layout == "complete" and mechanism == "mcar":
            assert not draws.miss.any()
        else:
            assert draws.miss.any()
        # the generator continues as after the reference draws
        assert np.array_equal(rng.random(16), ref_rng.random(16))

    @pytest.mark.parametrize("link, mechanism, gamma2, layout", DRAW_CASES)
    def test_bank_matches_elementwise_reference(self, link, mechanism, gamma2, layout):
        model, data, psi, lam = draw_case(link, mechanism, gamma2, layout)
        rng, ref_rng = substream(34, 0), substream(34, 0)
        bank = model.build_replicates(psi, lam, data, rng, 150)
        ref = elementwise_draws(model, psi, lam, data, ref_rng, 150)
        scores = model._replicate_scores(ref, psi, lam, data)
        moments = np.stack([np.einsum("rnt,rn->nt", x, scores)
                            for x in scored_draws(ref, mechanism)]) / 150
        assert bank.scores_at_mle.tobytes() == scores.tobytes()
        assert bank.moments.tobytes() == moments.tobytes()
        assert np.array_equal(rng.random(16), ref_rng.random(16))

    @pytest.mark.parametrize("link, mechanism, gamma2, layout, n, t, r", [
        ("logit", "mcar", 0.0, "full", 183, 10, 200),
        ("probit", "mcar", 0.0, "ragged", 250, 10, 200),
        ("logit", "mnar", 1.0, "full", 100, 10, 500),
        ("probit", "mnar", -1.3, "ragged", 100, 10, 500)])
    def test_bank_at_benchmark_shapes(self, link, mechanism, gamma2, layout, n, t, r):
        # boolean draws meet float weights in a buffered einsum, whose
        # chunks span many clusters at these shapes
        model, data, psi, lam = draw_case(link, mechanism, gamma2, layout, n, t)
        bank = model.build_replicates(psi, lam, data, substream(37, 0), r)
        ref = elementwise_draws(model, psi, lam, data, substream(37, 0), r)
        scores = model._replicate_scores(ref, psi, lam, data)  # float einsums
        moments = np.stack([np.einsum("rnt,rn->nt", x, scores)
                            for x in scored_draws(ref, mechanism)]) / r
        assert bank.scores_at_mle.tobytes() == scores.tobytes()
        assert bank.moments.tobytes() == moments.tobytes()

    def test_deletion_predictor_clamped_whole(self):
        # x gamma1 = -50 lies past the predictor clamp and every response
        # draws y = 1: the deletion probability G(-50 + 30) ~ 2e-9 deletes
        # nothing, where G(-35 + 30) ~ 0.007 would delete about 13 of 2000
        data = make_binary_dataset(np.array([[1.0]]), np.array([[-20.0]]),
                                   np.array([[0.0]]))
        draws = MNAR._draw_replicates(np.array([0.0, 2.5, 30.0]), np.array([40.0]),
                                      data, substream(36, 0), 2000)
        assert draws.obs_y.all()
        assert not draws.miss.any()


def part_case(link, mechanism):
    """(model, informative data, a second dataset, psi, replicate bank)."""
    data, _ = informative(_sim_mcar(30, 6, seed=19))
    other, _ = informative(_sim_mcar(30, 6, seed=20))
    model = BinaryMissingModel(link=link, mechanism=mechanism)
    psi = np.array([0.9, 2.0, 0.6])[:len(model.param_names(data))]
    lam = BinaryMissingModel(link, mechanism).constrained_nuisance(psi, data)
    bank = BinaryMissingModel(link, mechanism).build_replicates(
        psi, lam, data, substream(35, 0), 60)
    return model, data, other, psi, bank


def kernel_values(model, data, psi, bank):
    """Every kernel, the modified objective and its gradient at ``psi``."""
    lam = model.constrained_nuisance(psi, data)
    values = [lam, model.cluster_logliks(psi, lam, data),
              model.nuisance_score(psi, lam + 0.1, data),
              model.nuisance_obs_info(psi, lam, data),
              model._score_weights(psi, lam, data),
              model.replicate_expectation(bank, psi, lam, data),
              np.array(core.modified_profile_loglik(model, data, bank, psi)),
              core.envelope_gradient(model, data, psi, bank)]
    if model.has_exact_expectation():
        values.append(model.exact_bank(psi, lam, data).moments)
    return values


LINK_MECHANISMS = [(link, mechanism) for link in ("logit", "probit")
                   for mechanism in ("mcar", "mnar")]


class TestPsiPart:
    @pytest.mark.parametrize("link, mechanism", LINK_MECHANISMS)
    def test_kernels_match_a_fresh_model(self, link, mechanism):
        model, data, other, psi, bank = part_case(link, mechanism)
        fresh = kernel_values(BinaryMissingModel(link, mechanism), data, psi, bank)
        for seen in (psi + 0.3, psi - 0.2):
            kernel_values(model, data, seen, bank)
        model.constrained_nuisance(psi, other)
        for _ in range(2):  # a new part, then the remembered one
            for got, want in zip(kernel_values(model, data, psi, bank), fresh):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("link, mechanism", LINK_MECHANISMS)
    def test_datasets_at_the_same_psi_share_no_part(self, link, mechanism):
        model, data, other, psi, bank = part_case(link, mechanism)
        first = model._part(psi, data)
        second = model._part(psi, other)
        assert first.data is data and second.data is other
        arrays = [f for f in vars(first) if isinstance(getattr(first, f), np.ndarray)]
        assert not any(np.shares_memory(getattr(first, f), getattr(second, f))
                       for f in arrays)
        assert np.array_equal(model.constrained_nuisance(psi, other),
                              BinaryMissingModel(link, mechanism).constrained_nuisance(
                                  psi, other))

    def test_memo_holds_at_most_two_parts(self):
        model, data, other, psi, bank = part_case("logit", "mnar")
        for k in range(6):
            model.cluster_logliks(psi + 0.01 * k, np.zeros(data.n_clusters), data)
            model.nuisance_score(psi, np.zeros(other.n_clusters), other)
            assert len(model._parts) <= 2

    @pytest.mark.parametrize("mechanism", ["mcar", "mnar"])
    def test_part_arrays_are_read_only(self, mechanism):
        model, data, _, psi, _ = part_case("logit", mechanism)
        part = model._part(psi, data)
        arrays = [v for v in vars(part).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == (8 if mechanism == "mnar" else 5)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            part.y[0, 0] = 1.0

    @pytest.mark.parametrize("link, mechanism", LINK_MECHANISMS)
    def test_modified_evaluation_and_gradient_build_one_part_per_psi(
            self, link, mechanism, monkeypatch):
        model, data, _, psi, bank = part_case(link, mechanism)
        builds = []
        build = binary._PsiPart.build

        def counted(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(binary._PsiPart, "build", counted)
        solves = {}
        core.modified_profile_loglik(model, data, bank, psi, solves=solves)
        core.envelope_gradient(model, data, psi, bank, solves=solves)
        assert len(builds) == 1 + 2 * psi.size


class TestDropNoninformative:
    def test_all_ones_dropped(self):
        data = make_binary_dataset(np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0]]),
                                   np.zeros((2, 3)))
        kept, dropped = informative(data)
        assert dropped == 1 and kept.n_clusters == 1

    def test_fully_missing_dropped(self):
        data = make_binary_dataset(
            np.array([[np.nan, np.nan], [1.0, 0.0]]), np.zeros((2, 2)),
            np.array([[1.0, 1.0], [0.0, 0.0]]))
        kept, dropped = informative(data)
        assert dropped == 1 and kept.n_clusters == 1

    def test_mixed_kept(self):
        data = make_binary_dataset(np.array([[1.0, 0.0]]), np.zeros((1, 2)))
        kept, dropped = informative(data)
        assert dropped == 0 and kept.n_clusters == 1


class TestDataGate:
    @pytest.mark.parametrize("model", [MCAR, MNAR], ids=["mcar", "mnar"])
    def test_fit_without_covariates_rejected(self, model):
        data = make_binary_dataset(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), None)
        with pytest.raises(ValueError, match="covariate column x1") as exc:
            core.fit(model, data, "profile")
        # a study records a NumericalFailure as a failed trial, not an error
        assert not isinstance(exc.value, optim.NumericalFailure)


class TestMissingnessRegression:
    def test_separation_capped_and_flagged(self):
        x = np.abs(substream(12, 0).standard_normal((8, 6))) + 0.1
        miss = np.zeros((8, 6))
        data = make_binary_dataset(np.ones((8, 6)), x, miss)
        gamma, converged = fit_missingness_regression(data)
        assert not converged
        assert abs(gamma[0]) == binary.GAMMA2_BOUND

    def test_consistency_large_sample(self):
        rng = substream(13, 0)
        x = -0.35 + rng.standard_normal((1000, 10))
        miss = (rng.random((1000, 10)) < expit(2.5 * x)).astype(float)
        y = np.where(miss == 1, np.nan, 1.0 * (rng.random((1000, 10)) < 0.5))
        data = make_binary_dataset(y, x, miss)
        gamma, converged = fit_missingness_regression(data)
        assert converged
        # Fisher information of the Bernoulli regression bounds the sd
        info = (expit(2.5 * x) * (1 - expit(2.5 * x)) * x ** 2).sum()
        assert abs(gamma[0] - 2.5) <= 3.0 / np.sqrt(info)

    def test_matches_direct_maximization(self, monkeypatch):
        data = _sim_mcar(25, 5, seed=14)
        numerical = []
        gradient = optim.numerical_gradient
        monkeypatch.setattr(optim, "numerical_gradient",
                            lambda f, x: numerical.append(x) or gradient(f, x))
        gamma, _ = fit_missingness_regression(data)
        assert not numerical  # the closed-form gradient x'(m - p) serves the search
        monkeypatch.undo()
        x = data.covariates[data.unit_mask]
        m = data.indicators[data.unit_mask]

        def loglik(g):
            u = np.clip(x @ g, -35, 35)
            return float(np.sum(m * np.log(expit(u)) + (1 - m) * np.log(expit(-u))))

        oracle = optim.maximize_multivariate(loglik, np.zeros(1))
        assert abs(gamma[0] - oracle.argmax[0]) <= 1e-6


def _separated_mnar_data():
    """Missingness almost deterministic in y: the MNAR fit drives gamma2 to
    its bound."""
    rng = substream(18, 0)
    n, t = 40, 6
    x = 0.2 * rng.standard_normal((n, t))
    y = (rng.random((n, t)) < 0.5).astype(float)
    miss = np.where(y == 1.0, 1.0, 0.0)
    miss[:, 0] = 0.0  # keep one observed unit, mixed responses survive
    data = make_binary_dataset(np.where(miss == 1, np.nan, y), x, miss)
    return informative(data)[0]


class TestInvariantsAndProperties:
    @pytest.mark.parametrize("beta", [-1.0, 0.0, 0.5, 2.0])
    @pytest.mark.parametrize("gamma1", [-1.5, 2.5])
    def test_mnar_at_zero_gamma2_is_mcar_plus_missingness(self, beta, gamma1):
        # at psi = (beta, gamma1, 0) the missingness model ignores y, so the
        # MNAR kernels reduce to the MCAR ones plus the missingness terms
        data, _ = informative(_sim_mcar(40, 6, seed=15))
        psi = np.array([beta, gamma1, 0.0])
        lam = MCAR.constrained_nuisance(psi[:1], data)
        assert np.array_equal(MNAR.constrained_nuisance(psi, data), lam)

        zeta = expit(np.clip(gamma1 * data.covariates[:, :, 0], -35, 35))
        m = data.indicators
        ref = np.where(data.unit_mask, m * np.log(zeta) + (1 - m) * np.log(1 - zeta),
                       0.0).sum(axis=1)
        gap = (MNAR.cluster_logliks(psi, lam, data)
               - MCAR.cluster_logliks(psi[:1], lam, data))
        assert gap == pytest.approx(ref, rel=1e-12, abs=1e-12)

        # an mcar bank keeps no miss moment; a missing unit's score weight
        # vanishes at gamma2 = 0, so any miss moment leaves the expectation
        bank = MCAR.build_replicates(psi[:1], lam, data, substream(55, 0), 50)
        miss = substream(56, 0).normal(size=(1,) + bank.moments.shape[1:])
        with_miss = dataclasses.replace(bank, moments=np.concatenate([bank.moments, miss]))
        assert np.array_equal(MNAR.replicate_expectation(with_miss, psi, lam, data),
                              MCAR.replicate_expectation(bank, psi[:1], lam, data))

    def test_mixture_strictly_inside_unit_interval(self):
        # one missing unit per cluster: its log-likelihood is log P(missing)
        rng = np.random.default_rng(16)
        lam = np.repeat(rng.normal(size=3), 4)
        x = rng.normal(size=(3, 4)).reshape(12, 1)
        data = make_binary_dataset(np.full((12, 1), np.nan), x, np.ones((12, 1)))
        log_mix = MNAR.cluster_logliks(np.array([0.5, 1.5, 0.7]), lam, data)
        assert np.all(np.isfinite(log_mix) & (log_mix < 0.0))

    @pytest.mark.parametrize("link", ["logit", "probit"])
    def test_sign_symmetry(self, link):
        data, _ = informative(_sim_mcar(50, 6, seed=17))
        model = BinaryMissingModel(link=link)
        fit_pos = core.fit(model, data, "profile")
        flipped = make_binary_dataset(
            np.where(data.indicators == 1, np.nan, 1.0 - data.responses),
            -data.covariates[:, :, 0], data.indicators)
        fit_neg = core.fit(model, flipped, "profile")
        assert fit_pos.psi_hat[0] == pytest.approx(fit_neg.psi_hat[0], abs=1e-5)

    def test_gamma2_separation_flagged(self):
        fit = core.fit(BinaryMissingModel(mechanism="mnar"), _separated_mnar_data(),
                       "profile", MonteCarloConfig(replicates=10, master_seed=1))
        assert "gamma2_at_bound" in fit.warnings
        assert abs(fit.psi_hat[-1]) >= binary.GAMMA2_BOUND - 0.5

    @pytest.mark.parametrize("method", ["profile", "mcmpl"])
    def test_gamma2_separation_fails_the_trial(self, method):
        # gamma2 frozen at its bound has a NaN SE, which alone fails the trial
        fit = core.fit(MNAR, _separated_mnar_data(), method,
                       MonteCarloConfig(replicates=10, master_seed=1))
        assert np.all(np.isfinite(fit.std_errors[:-1]))
        assert np.isnan(fit.std_errors[-1])
        assert harness._failed(fit)


class TestConditionalLogitOracle:
    def test_recursion_matches_subset_enumeration(self):
        rng = np.random.default_rng(41)
        for t in range(1, 9):
            scores = rng.normal(scale=2.0, size=(6, t))
            observed = rng.random((6, t)) < 0.7
            observed[0] = True
            observed[1] = False
            got = log_elementary_symmetric(scores, observed)
            for i in range(6):
                units = np.flatnonzero(observed[i])
                for k in range(t + 1):
                    terms = [scores[i, list(c)].sum()
                             for c in itertools.combinations(units, k)]
                    want = logsumexp(terms) if terms else -np.inf
                    assert got[i, k] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_two_periods_reduce_to_a_logit_of_differences(self):
        # at T = 2 with one success, P(y = (0, 1) | 1 success) = expit(beta (x2 - x1))
        rng = np.random.default_rng(42)
        x = rng.normal(size=(300, 2))
        y = (rng.random((300, 2)) < expit(x - 0.3)).astype(float)
        data = make_binary_dataset(y, x)
        one = y.sum(axis=1) == 1
        sign = np.where(y[one, 1] == 1.0, 1.0, -1.0)
        d = x[one, 1] - x[one, 0]
        want = minimize_scalar(lambda b: -log_expit(sign * b * d).sum(),
                               bounds=(-10.0, 10.0), method="bounded",
                               options={"xatol": 1e-10}).x
        assert conditional_logit_mle(data) == pytest.approx(want, abs=1e-7)
