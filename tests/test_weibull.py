import dataclasses
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import logsumexp

from mcmpl import core, optim, weibull
from mcmpl.core import MonteCarloConfig, substream
from mcmpl.weibull import (
    EmptyDataError,
    KMCurve,
    NoEventsError,
    NonPositiveShapeError,
    NonPositiveTimeError,
    WeibullSurvivalModel,
    calibrate_censoring_rate,
    conditional_bootstrap_censoring,
    constrained_nuisance_closed_form,
    km_censoring,
    make_survival_dataset,
    relative_risk,
)
from oracles import weibull_km_censoring, weibull_replicate_scores
from oracles import weibull_profile_loglik as profile_loglik


MODEL = WeibullSurvivalModel()


def psi_of(shape, beta):
    return np.concatenate([[shape], np.atleast_1d(np.asarray(beta, dtype=float))])


def loglik(shape, beta, lam, data):
    return float(MODEL.cluster_logliks(psi_of(shape, beta), lam, data).sum())


def nuisance_score(shape, beta, lam, data):
    return MODEL.nuisance_score(psi_of(shape, beta), lam, data)


def nuisance_obs_info(shape, beta, lam, data):
    return MODEL.nuisance_obs_info(psi_of(shape, beta), lam, data)


def random_survival(rng, n=6, t=5, p=2, censor=0.3):
    x = rng.normal(size=(n, t, p))
    lam = rng.normal(0.5, 0.5, size=n)
    shape = rng.uniform(0.7, 2.5)
    beta = rng.normal(size=p) * 0.6
    eta = np.exp(-(lam[:, None] + x @ beta))
    fail = rng.standard_exponential((n, t)) ** (1 / shape) / eta
    cens = rng.exponential(1.0 / censor, (n, t))
    times = np.minimum(fail, cens)
    events = (fail <= cens).astype(float)
    if events.sum(axis=1).min() < 1:  # keep every cluster informative
        events[:, 0] = 1.0
    return make_survival_dataset(times, events, x), shape, beta, lam


class TestLoglik:
    def test_unit_exponential_event(self):
        data = make_survival_dataset([[1.0]], [[1.0]], np.zeros((1, 1, 1)))
        assert loglik(1.0, [0.0], 0.0, data) == pytest.approx(-1.0)

    def test_unit_exponential_censored(self):
        data = make_survival_dataset([[1.0]], [[0.0]], np.zeros((1, 1, 1)))
        assert loglik(1.0, [0.0], 0.0, data) == pytest.approx(-1.0)

    def test_matches_density_survival_assembly(self):
        rng = np.random.default_rng(0)
        for _ in range(6):
            data, shape, beta, lam = random_survival(rng)
            eta = np.exp(-(lam[:, None] + data.covariates @ beta))
            y = data.responses
            logpdf = (np.log(eta) + np.log(shape) + (shape - 1) * np.log(eta * y)
                      - (eta * y) ** shape)
            logsurv = -(eta * y) ** shape
            d = data.indicators
            oracle = np.where(d == 1, logpdf, logsurv)[data.unit_mask].sum()
            val = loglik(shape, beta, lam, data)
            assert val == pytest.approx(oracle, abs=1e-10)

    def test_rejects_nonpositive_inputs(self):
        data = make_survival_dataset([[1.0]], [[1.0]], np.zeros((1, 1, 1)))
        with pytest.raises(NonPositiveShapeError):
            MODEL.cluster_logliks(np.array([0.0, 0.0]), np.zeros(1), data)
        with pytest.raises(NonPositiveTimeError):
            make_survival_dataset([[0.0]], [[1.0]], np.zeros((1, 1, 1)))


class TestNuisanceScore:
    def test_zero_at_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(6):
            data, shape, beta, _ = random_survival(rng)
            lam = constrained_nuisance_closed_form(shape, beta, data)
            score = nuisance_score(shape, beta, lam, data)
            assert np.abs(score).max() <= 1e-9

    def test_hand_value(self):
        # shape=1, two events, sum(eta y) = 2 -> score 0
        data = make_survival_dataset([[1.0, 1.0]], [[1.0, 1.0]], np.zeros((1, 2, 1)))
        assert nuisance_score(1.0, [0.0], 0.0, data)[0] == pytest.approx(0.0)

    def test_matches_numerical_gradient(self):
        rng = np.random.default_rng(2)
        data, shape, beta, lam = random_survival(rng, n=1)

        def ll(lam_val):
            return loglik(shape, beta, lam_val, data)

        num = optim.numerical_gradient(ll, lam[:1])[0]
        ana = nuisance_score(shape, beta, lam, data)[0]
        assert abs(num - ana) <= 1e-6 * (1 + abs(ana))


class TestConstrainedNuisance:
    def test_single_unit_closed_form(self):
        data = make_survival_dataset([[2.0]], [[1.0]], np.zeros((1, 1, 1)))
        lam = constrained_nuisance_closed_form(1.3, [0.0], data)
        assert lam[0] == pytest.approx(np.log(2.0), abs=1e-12)

    def test_agrees_with_numeric_root(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            t = int(rng.integers(1, 5))
            x = rng.normal(size=(n, t, 1))
            times = rng.exponential(1.0, (n, t)) + 0.05
            events = np.ones((n, t))
            data = make_survival_dataset(times, events, x)
            shape = float(rng.uniform(0.5, 3.0))
            beta = rng.normal(size=1)
            lam = constrained_nuisance_closed_form(shape, beta, data)
            for i in range(n):
                cluster = data.subset([i])

                def g(v):
                    return nuisance_score(shape, beta, v, cluster)[0]

                root = brentq(g, lam[i] - 2.0, lam[i] + 2.0, xtol=1e-14, maxiter=500)
                assert abs(root - lam[i]) <= 1e-10 * (1 + abs(lam[i]))

    def test_no_events_raises(self):
        data = make_survival_dataset([[1.0, 2.0]], [[0.0, 0.0]], np.zeros((1, 2, 1)))
        with pytest.raises(NoEventsError):
            constrained_nuisance_closed_form(1.0, [0.0], data)


class TestLogSumExp:
    def test_bitwise_equal_to_scipy(self):
        rng = np.random.default_rng(11)
        for k in range(2000):
            a = rng.normal(size=(100, 6)) * [0.1, 1.0, 30.0, 1e3][k % 4]
            a[rng.random(a.shape) < 0.2] = -np.inf
            tied = rng.random(100) < 0.3
            a[tied, 2] = a[tied, 0]                     # tied maxima, some rows
            a[rng.random(100) < 0.05] = -np.inf         # rows with no finite term
            if k % 3 == 0:
                a = np.round(a)                          # many more ties
            ours = weibull._logsumexp_rows(a)
            assert np.array_equal(ours, logsumexp(a, axis=1))


class TestProfileLoglik:
    def test_display_equals_plug_in(self):
        rng = np.random.default_rng(4)
        for _ in range(8):
            data, shape, beta, _ = random_survival(rng)
            lam = constrained_nuisance_closed_form(shape, beta, data)
            plug_in = loglik(shape, beta, lam, data)
            assert profile_loglik(shape, beta, data) == pytest.approx(plug_in,
                                                                      abs=1e-10)

    def test_covariate_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        data, shape, beta, _ = random_survival(rng)
        scaled = make_survival_dataset(
            data.responses, data.indicators,
            data.covariates * np.array([2.0, 0.25]))
        beta_scaled = beta / np.array([2.0, 0.25])
        assert profile_loglik(shape, beta, data) == pytest.approx(
            profile_loglik(shape, beta_scaled, scaled), abs=1e-9)

    def test_single_event_reduced_form(self):
        # T=1, delta=1, beta=0: l_P(shape) = log(shape) - log(y) - 1
        y = 1.7
        data = make_survival_dataset([[y]], [[1.0]], np.zeros((1, 1, 1)))
        for shape in (0.5, 1.0, 2.0, 5.0):
            assert profile_loglik(shape, [0.0], data) == pytest.approx(
                np.log(shape) - np.log(y) - 1.0, abs=1e-12)


class TestNuisanceObsInfo:
    def test_equals_shape_sq_events_at_constrained(self):
        rng = np.random.default_rng(6)
        data, shape, beta, _ = random_survival(rng)
        lam = constrained_nuisance_closed_form(shape, beta, data)
        info = nuisance_obs_info(shape, beta, lam, data)
        d_tot = np.where(data.unit_mask, data.indicators, 0.0).sum(axis=1)
        assert info == pytest.approx(shape ** 2 * d_tot, rel=1e-10)

    def test_unit_value(self):
        data = make_survival_dataset([[1.0]], [[1.0]], np.zeros((1, 1, 1)))
        assert nuisance_obs_info(1.0, [0.0], 0.0, data)[0] == 1.0

    def test_matches_second_difference(self):
        rng = np.random.default_rng(7)
        data, shape, beta, lam = random_survival(rng, n=1)

        def ll(v):
            return loglik(shape, beta, v, data)

        h = optim.numerical_hessian(ll, lam[:1])[0, 0]
        ana = nuisance_obs_info(shape, beta, lam, data)[0]
        assert abs(-h - ana) <= 1e-4 * (1 + abs(ana))


class TestKaplanMeier:
    def test_all_censored_product_limit(self):
        data = make_survival_dataset([[1.0, 2.0, 3.0]], [[0.0, 0.0, 0.0]],
                                     np.zeros((1, 3, 1)))
        km = km_censoring(data)
        assert np.allclose(km.jump_times, [1.0, 2.0, 3.0])
        assert np.allclose(km.survival_values, [2 / 3, 1 / 3, 0.0])
        assert km.evaluate(0.5) == 1.0
        assert km.evaluate(1.5) == pytest.approx(2 / 3)

    def test_no_censoring_flat_curve(self):
        data = make_survival_dataset([[1.0, 2.0]], [[1.0, 1.0]], np.zeros((1, 2, 1)))
        km = km_censoring(data)
        assert km.jump_times.size == 0
        assert km.evaluate(100.0) == 1.0

    def test_failure_shrinks_risk_set(self):
        data = make_survival_dataset([[3.0, 5.0]], [[1.0, 0.0]], np.zeros((1, 2, 1)))
        km = km_censoring(data)
        assert np.allclose(km.jump_times, [5.0])
        assert np.allclose(km.survival_values, [0.0])
        assert km.evaluate(4.9) == 1.0

    def test_all_censored_equals_empirical_survival(self):
        rng = np.random.default_rng(8)
        times = rng.exponential(1.0, (1, 40)) + 0.01
        data = make_survival_dataset(times, np.zeros((1, 40)), np.zeros((1, 40, 1)))
        km = km_censoring(data)
        grid = np.linspace(0.01, times.max() + 1, 50)
        empirical = (times[0][None, :] > grid[:, None]).mean(axis=1)
        assert np.allclose(km.evaluate(grid), empirical)

    def test_monotone_right_continuous(self):
        rng = np.random.default_rng(9)
        data, *_ = random_survival(rng, n=8, t=6)
        km = km_censoring(data)
        assert np.all(np.diff(km.survival_values) < 0)
        assert np.all(km.evaluate(km.jump_times) == km.survival_values)

    def test_empty(self):
        data = make_survival_dataset([[1.0]], [[1.0]], np.zeros((1, 1, 1)))
        with pytest.raises(EmptyDataError):
            km_censoring(data.subset(np.zeros(1, dtype=bool)))

    def test_tied_times_match_the_counting_loop(self):
        # two censorings tie at 2 with a failure; a censoring and a failure tie at 3
        data = make_survival_dataset([[1.0, 2.0, 2.0, 2.0], [3.0, 3.0, 4.0, np.nan]],
                                     [[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, 0.0, 0.0]],
                                     np.zeros((2, 4, 1)),
                                     unit_mask=[[True] * 4, [True, True, True, False]])
        km = km_censoring(data)
        assert np.array_equal(km.jump_times, [2.0, 3.0, 4.0])
        # the tied failures stay at risk: 6 units at 2, 3 units at 3
        assert km.survival_values == pytest.approx([2 / 3, 4 / 9, 0.0], abs=1e-15)
        rng = np.random.default_rng(21)
        heavy = make_survival_dataset(np.round(rng.exponential(2.0, (50, 8))) + 1.0,
                                      (rng.random((50, 8)) < 0.5).astype(float),
                                      np.zeros((50, 8, 1)))
        for d in (data, heavy):
            got, want = km_censoring(d), weibull_km_censoring(d)
            assert np.array_equal(got.jump_times, want.jump_times)
            assert np.array_equal(got.survival_values, want.survival_values)

    def test_inverse_matches_the_plain_search(self):
        rng = np.random.default_rng(23)
        data, *_ = random_survival(rng, n=60, t=6)
        curves = [km_censoring(data),
                  KMCurve(jump_times=np.array([2.0]), survival_values=np.array([0.4])),
                  # values on bucket ends, two jumps inside one bucket, and 0
                  KMCurve(jump_times=np.arange(1.0, 7.0),
                          survival_values=np.array([0.75, 0.5, 0.3, 0.2999, 2.0 ** -12, 0.0])),
                  KMCurve(jump_times=np.empty(0), survival_values=np.empty(0))]
        for km in curves:
            s = km.survival_values
            targets = np.concatenate([
                rng.random(5000), s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf),
                [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), 1.5, np.inf,
                 -1e-300, -0.5, -np.inf, np.nan]])
            if s.size:
                idx = np.searchsorted(-s, -targets, side="left")
                want = km.jump_times[np.minimum(idx, s.size - 1)]
            else:
                want = np.full(targets.shape, np.inf)
            got = km.generalized_inverse(targets)
            assert got.tobytes() == want.tobytes()
            grid = km.generalized_inverse(targets[:5000].reshape(50, 100))
            assert grid.tobytes() == want[:5000].tobytes()
            assert [km.generalized_inverse(t) for t in targets[-10:]] == list(want[-10:])


class TestConditionalBootstrap:
    def curve(self):
        return KMCurve(jump_times=np.array([2.0, 5.0]),
                       survival_values=np.array([0.5, 0.0]))

    def test_first_crossing(self):
        assert conditional_bootstrap_censoring(self.curve(), 1.0, 0.6) == 2.0

    def test_deeper_quantile(self):
        assert conditional_bootstrap_censoring(self.curve(), 1.0, 0.2) == 5.0

    def test_tail_rule(self):
        km = KMCurve(jump_times=np.array([2.0]), survival_values=np.array([0.4]))
        # S never reaches 0.4 * 0.1; draw maps to the largest censoring jump
        assert conditional_bootstrap_censoring(km, 1.0, 0.1) == 2.0

    def test_array_draws_match_scalar_draws(self):
        km = self.curve()
        y = np.array([[0.5, 1.0], [3.0, 1.5]])
        u = np.random.default_rng(4).random((3, 2, 2))
        draws = conditional_bootstrap_censoring(km, y, u)
        scalar = [conditional_bootstrap_censoring(km, float(yy), float(uu))
                  for yy, uu in zip(np.broadcast_to(y, u.shape).ravel(), u.ravel())]
        assert np.array_equal(draws.ravel(), scalar)

    def test_draw_exceeds_conditioning_time(self):
        rng = np.random.default_rng(10)
        data, *_ = random_survival(rng, n=10, t=6)
        km = km_censoring(data)
        smallest = km.survival_values.min() if km.jump_times.size else 0.0
        for y in np.linspace(0.05, 1.5, 10):
            if km.evaluate(y) <= smallest:
                continue
            for u in rng.random(20):
                c = conditional_bootstrap_censoring(km, float(y), float(u))
                assert c > y


class TestSimulateReplicate:
    def test_one_draw_of_each_kind(self):
        rng = np.random.default_rng(22)
        data, shape, beta, _ = random_survival(rng, n=5, t=4)
        lam = constrained_nuisance_closed_form(shape, beta, data)
        rng, twin = substream(7, 0), substream(7, 0)
        bank = MODEL.build_replicates(np.concatenate([[shape], beta]), lam, data, rng, 30)
        twin.standard_exponential((30, 5, 4))
        twin.random((30, 5, 4))
        assert rng.random() == twin.random()
        # a censored unit keeps its own censoring time; log_times carries
        # the rounding of the shift by the fitted predictor
        censored = (data.indicators == 0.0) & data.unit_mask
        assert np.all(bank.log_times[:, censored]
                      <= np.log(data.responses[censored]) + 1e-12)

    def test_no_censoring_all_events(self):
        data = make_survival_dataset([[1.0, 2.0]], [[1.0, 1.0]], np.zeros((1, 2, 1)))
        bank = MODEL.build_replicates(np.array([1.0, 0.0]), np.zeros(1), data,
                                      substream(1, 0), 1)
        assert np.all(bank.event_sums == data.unit_mask.sum(axis=1))

    def test_exponential_mean(self):
        n = 100_000
        data = make_survival_dataset(np.ones((1, n)), np.ones((1, n)),
                                     np.zeros((1, n, 1)))
        bank = MODEL.build_replicates(np.array([1.0, 0.0]), np.zeros(1), data,
                                      substream(2, 0), 1)
        assert np.exp(bank.log_times).mean() == pytest.approx(1.0, abs=0.01)

    def test_preserves_structure(self):
        rng = np.random.default_rng(11)
        data, shape, beta, _ = random_survival(rng)
        lam = constrained_nuisance_closed_form(shape, beta, data)
        bank = MODEL.build_replicates(np.concatenate([[shape], beta]), lam, data,
                                      substream(3, 0), 1)
        assert bank.log_times.shape == (1,) + data.responses.shape
        assert np.array_equal(bank.log_times[0] > weibull._PAD, data.unit_mask)
        assert bank.scores_at_mle.shape == (1, data.n_clusters)


class TestMcExpectation:
    def test_nonnegative_at_mle(self):
        rng = np.random.default_rng(12)
        data, *_ = random_survival(rng, n=12, t=6)
        model = WeibullSurvivalModel()
        fit = core.fit(model, data, "profile")
        lam = model.constrained_nuisance(fit.psi_hat, data)
        bank = model.build_replicates(fit.psi_hat, lam, data, substream(4, 0), 300)
        vals = model.replicate_expectation(bank, fit.psi_hat, lam, data)
        assert np.all(vals >= 0.0)

    def test_two_replicate_hand_average(self):
        data = make_survival_dataset([[1.0, 2.0]], [[1.0, 0.0]], np.zeros((1, 2, 1)))
        model = WeibullSurvivalModel()
        psi_mle = np.array([1.0, 0.0])
        lam_mle = np.array([0.3])
        bank = model.build_replicates(psi_mle, lam_mle, data, substream(5, 0), 2)
        psi = np.array([1.4, 0.0])
        lam_psi = model.constrained_nuisance(psi, data)
        got = model.replicate_expectation(bank, psi, lam_psi, data)[0]
        times = np.exp(bank.log_times[:, 0, :])
        d = bank.event_sums[:, 0]
        s_psi = 1.4 * ((times * np.exp(-lam_psi[0])) ** 1.4).sum(axis=1) - 1.4 * d
        s_mle = 1.0 * ((times * np.exp(-0.3)) ** 1.0).sum(axis=1) - 1.0 * d
        assert got == pytest.approx((s_psi * s_mle).mean(), rel=1e-12)

    @staticmethod
    def ragged_fit(seed):
        rng = np.random.default_rng(seed)
        data, *_ = random_survival(rng, n=12, t=6)
        mask = data.unit_mask.copy()
        mask[::3, 4:] = False
        data = make_survival_dataset(np.where(mask, data.responses, np.nan),
                                     data.indicators, data.covariates, unit_mask=mask)
        model = WeibullSurvivalModel()
        data, _ = core.drop_noninformative(model, data)
        fit = core.fit(model, data, "profile")
        lam = model.constrained_nuisance(fit.psi_hat, data)
        bank = model.build_replicates(fit.psi_hat, lam, data, substream(6, 0), 50)
        return rng, model, data, fit.psi_hat, bank

    def test_moment_bank_matches_replicate_scores(self):
        rng, model, data, psi_mle, bank = self.ragged_fit(17)
        assert not data.unit_mask.all()
        for _ in range(5):
            psi = psi_mle * rng.uniform(0.8, 1.2, psi_mle.size)
            lam_psi = model.constrained_nuisance(psi, data)
            got = model.replicate_expectation(bank, psi, lam_psi, data)
            want = (weibull_replicate_scores(bank, psi, lam_psi, data)
                    * bank.scores_at_mle).mean(axis=0)
            assert got == pytest.approx(want, rel=1e-12)

    def test_build_fills_moment_at_the_fit(self):
        _, model, data, psi_mle, bank = self.ragged_fit(20)
        shape = float(psi_mle[0])
        assert list(bank.moments) == [shape]
        fresh = dataclasses.replace(bank, moments={})
        assert np.array_equal(bank.moments[shape], fresh.moment(shape))
        lam = model.constrained_nuisance(psi_mle, data)
        assert np.array_equal(bank.scores_at_mle,
                              weibull_replicate_scores(bank, psi_mle, lam, data))

    def test_memo_keeps_values_and_stays_small(self):
        _, model, data, psi_mle, bank = self.ragged_fit(18)
        psi1 = psi_mle * np.array([1.05, 0.9, 1.1])
        first = core.modified_profile_loglik(model, data, bank, psi1)
        for k, factor in enumerate((0.8, 0.9, 1.1, 1.2, 1.3)):
            psi = psi_mle * np.array([factor, 1.0 + 0.1 * k, 1.0])
            core.modified_profile_loglik(model, data, bank, psi)
            assert len(bank.moments) <= 3
        assert core.modified_profile_loglik(model, data, bank, psi1) == first
        assert len(bank.moments) <= 3

    def test_far_points_without_warning(self):
        _, model, data, _, bank = self.ragged_fit(19)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # the last two overflow the replicate moment: -inf, still quiet
            for psi in ([50.0, 0.0, 0.0], [1.0, 50.0, -50.0], [50.0, -50.0, 50.0],
                        [1000.0, 0.0, 0.0], [1000.0, 50.0, -50.0]):
                assert isinstance(core.modified_profile_loglik(model, data, bank, psi),
                                  float)

    def test_two_seed_consistency(self):
        rng = np.random.default_rng(13)
        data, *_ = random_survival(rng, n=10, t=6)
        model = WeibullSurvivalModel()
        fit = core.fit(model, data, "profile")
        lam = model.constrained_nuisance(fit.psi_hat, data)
        psi = fit.psi_hat * np.array([1.1, 1.0, 1.0])
        lam_psi = model.constrained_nuisance(psi, data)
        vals, errs = [], []
        for seed in (101, 202):
            bank = model.build_replicates(fit.psi_hat, lam, data,
                                          substream(seed, 0), 10_000)
            scores_psi = weibull_replicate_scores(bank, psi, lam_psi, data)
            prods = scores_psi * bank.scores_at_mle
            vals.append(prods.mean(axis=0))
            errs.append(prods.std(axis=0, ddof=1) / np.sqrt(10_000))
        gap = np.abs(vals[0] - vals[1])
        assert np.all(gap <= 3.0 * np.hypot(errs[0], errs[1]))


class TestBetaPart:
    @staticmethod
    def kernel_values(model, data, psi, bank):
        """Every kernel, the modified objective and its gradient at ``psi``."""
        lam = model.constrained_nuisance(psi, data)
        return [lam, model.cluster_logliks(psi, lam, data),
                model.nuisance_score(psi, lam + 0.1, data),
                model.nuisance_obs_info(psi, lam, data),
                model.replicate_expectation(bank, psi, lam, data),
                np.array(core.modified_profile_loglik(model, data, bank, psi)),
                core.envelope_gradient(model, data, psi, bank)]

    def test_kernels_match_a_fresh_model(self):
        rng, model, data, psi_mle, bank = TestMcExpectation.ragged_fit(23)
        assert not data.unit_mask.all()
        other, *_ = random_survival(rng, n=12, t=6)
        for _ in range(5):
            psi = psi_mle * rng.uniform(0.8, 1.2, psi_mle.size)
            fresh = self.kernel_values(WeibullSurvivalModel(), data, psi, bank)
            model.constrained_nuisance(psi, other)
            for _ in range(2):  # a new part, then the remembered one
                for got, want in zip(self.kernel_values(model, data, psi, bank), fresh):
                    assert np.array_equal(got, want)
            assert np.array_equal(constrained_nuisance_closed_form(psi[0], psi[1:], data),
                                  fresh[0])

    def test_datasets_at_the_same_beta_share_no_part(self):
        rng, model, data, psi, _ = TestMcExpectation.ragged_fit(24)
        other, *_ = random_survival(rng, n=12, t=6)
        first = model._part(psi, data)
        second = model._part(psi * np.array([1.3, 1.0, 1.0]), other)
        assert first.data is data and second.data is other
        arrays = [f for f in vars(first) if isinstance(getattr(first, f), np.ndarray)]
        assert not any(np.shares_memory(getattr(first, f), getattr(second, f))
                       for f in arrays)
        assert np.array_equal(model.constrained_nuisance(psi, other),
                              WeibullSurvivalModel().constrained_nuisance(psi, other))

    def test_memo_holds_at_most_two_parts(self):
        rng, model, data, psi, _ = TestMcExpectation.ragged_fit(25)
        other, *_ = random_survival(rng, n=12, t=6)
        for k in range(6):
            model.cluster_logliks(psi + 0.01 * k, np.zeros(data.n_clusters), data)
            model.nuisance_score(psi, np.zeros(other.n_clusters), other)
            assert len(model._parts) <= 2

    def test_part_arrays_are_read_only(self):
        _, model, data, psi, _ = TestMcExpectation.ragged_fit(26)
        part = model._part(psi, data)
        arrays = [v for v in vars(part).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 6
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            part.logy[0, 0] = 1.0

    def test_moment_pass_leaves_earlier_moments_unchanged(self):
        _, model, data, psi_mle, bank = TestMcExpectation.ragged_fit(27)
        shape = float(psi_mle[0])
        kept = [bank.moment(shape), bank.moment(1.1 * shape)]
        copies = [m.tobytes() for m in kept]
        for factor in (0.8, 0.9, 1.2, 1.3):
            assert not np.shares_memory(bank.moment(factor * shape), bank.buffer)
        assert [m.tobytes() for m in kept] == copies


class TestRelativeRisk:
    def test_paper_values(self):
        assert relative_risk(1.5, -1.0) == pytest.approx(np.exp(1.5))
        assert relative_risk(1.5, 1.0) == pytest.approx(np.exp(-1.5))
        assert relative_risk(1.5, 0.0) == 1.0


class TestCalibration:
    def make_skeleton(self, n=40, t=6, seed=14):
        rng = np.random.default_rng(seed)
        x1 = np.zeros((n, t))
        x1[:, t // 2:] = 1.0
        x2 = rng.standard_normal((n, t))
        lam = 0.5 + 0.5 * rng.standard_normal(n)
        return core.make_dataset(np.ones((n, t)), np.stack([x1, x2], axis=2)), lam

    def test_exponential_closed_form(self):
        data = core.make_dataset(np.ones((1, 1)), np.zeros((1, 1, 1)))
        rate = calibrate_censoring_rate(1.0, [0.0], 0.0, data, 0.2)
        assert rate == pytest.approx(0.25, abs=1e-8)

    def test_monotone_toward_zero(self):
        data = core.make_dataset(np.ones((1, 1)), np.zeros((1, 1, 1)))
        rates = [calibrate_censoring_rate(1.0, [0.0], 0.0, data, pc)
                 for pc in (0.4, 0.2, 0.05, 0.01)]
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[-1] < 0.02

    def test_quadrature_matches_adaptive_oracle(self):
        data, lam = self.make_skeleton(n=5, t=4)
        shape, beta = 1.5, np.array([-1.0, 1.0])
        rate = calibrate_censoring_rate(shape, beta, lam, data, 0.3)
        eta = np.exp(-(lam[:, None] + data.covariates @ beta))
        shares = [quad(lambda y, e=e: np.exp(-(e * y) ** shape) * rate * np.exp(-rate * y),
                       0.0, np.inf, epsabs=1e-300, epsrel=1e-8, limit=200)[0]
                  for e in eta.ravel()]
        assert np.mean(shares) == pytest.approx(0.3, abs=1e-6)

    def test_empirical_share_reproduced(self):
        data, lam = self.make_skeleton(n=200, t=10)
        shape, beta = 1.5, np.array([-1.0, 1.0])
        rate = calibrate_censoring_rate(shape, beta, lam, data, 0.2)
        rng = substream(15, 0)
        eta = np.exp(-(lam[:, None] + data.covariates @ beta))
        reps = 50
        fail = rng.standard_exponential((reps,) + eta.shape) ** (1 / shape) / eta
        cens = rng.exponential(1.0 / rate, (reps,) + eta.shape)
        share = (fail > cens).mean()
        assert share == pytest.approx(0.2, abs=0.01)


class TestSingleClusterSanity:
    def test_shape_recovered_without_incidental_bias(self):
        # one cluster, many uncensored exponential draws: profile max near 1
        rng = substream(16, 0)
        times = rng.standard_exponential((1, 2000))
        data = make_survival_dataset(times, np.ones((1, 2000)), np.zeros((1, 2000, 1)))
        fit = core.fit(WeibullSurvivalModel(), data, "profile")
        assert abs(fit.psi_hat[0] - 1.0) <= 0.05
