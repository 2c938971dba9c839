import numpy as np
import pytest

from mcmpl import ar1, binary, core, harness, optim, weibull
from mcmpl.core import (
    MonteCarloConfig,
    NoInformativeClustersError,
    NonPositiveSEError,
    substream,
)


def mcar_toy():
    y = np.array([[1.0, 0.0, 0.0, 1.0]])
    x = np.array([[0.0, 0.0, 1.0, 1.0]])
    return binary.make_binary_dataset(y, x)


def simulated_mcar(n=60, t=6, seed=3):
    rng = substream(seed, 0)
    x = -0.35 + rng.standard_normal((n, t))
    lam = -0.35 + rng.standard_normal(n)
    y = (rng.random((n, t)) < 1.0 / (1.0 + np.exp(-(lam[:, None] + x)))).astype(float)
    zeta = 1.0 / (1.0 + np.exp(-2.5 * x))
    miss = (rng.random((n, t)) < zeta).astype(float)
    return binary.make_binary_dataset(np.where(miss == 1, np.nan, y), x, miss)


def informative_mcar(**kwargs):
    data = simulated_mcar(**kwargs)
    return core.drop_noninformative(binary.BinaryMissingModel(), data)[0]


class TestProfileLoglik:
    def test_one_cluster_logit_toy(self):
        # lambda_hat = logit(2/4) = 0, every pi = 1/2
        model = binary.BinaryMissingModel()
        value = core.profile_loglik(model, mcar_toy(), np.array([0.0]))
        assert value == pytest.approx(4 * np.log(0.5), abs=1e-10)

    def test_equals_full_maximum_at_mle(self):
        data = informative_mcar()
        model = binary.BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        lam = model.constrained_nuisance(fit.psi_hat, data)
        joint = model.cluster_logliks(fit.psi_hat, lam, data).sum()
        assert core.profile_loglik(model, data, fit.psi_hat) == pytest.approx(joint)

    def test_all_censored_weibull_cluster_gives_minus_inf(self):
        times = np.array([[1.0, 2.0], [0.5, 1.5]])
        events = np.array([[1.0, 1.0], [0.0, 0.0]])
        data = weibull.make_survival_dataset(times, events, np.zeros((2, 2, 1)))
        model = weibull.WeibullSurvivalModel()
        assert core.profile_loglik(model, data, np.array([1.0, 0.0])) == -np.inf
        kept, dropped = core.drop_noninformative(model, data)
        assert dropped == 1
        assert np.isfinite(core.profile_loglik(model, kept, np.array([1.0, 0.0])))

    def test_maximality_around_mle(self):
        data = informative_mcar()
        model = binary.BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        at_max = core.profile_loglik(model, data, fit.psi_hat)
        rng = substream(11, 0)
        for _ in range(100):
            psi = fit.psi_hat + 2.0 * fit.std_errors * rng.uniform(-1, 1, 1)
            assert core.profile_loglik(model, data, psi) <= at_max + 1e-9

    def test_empty_dataset_raises(self):
        data = mcar_toy().subset(np.zeros(1, dtype=bool))
        with pytest.raises(NoInformativeClustersError):
            core.profile_loglik(binary.BinaryMissingModel(), data, np.array([0.0]))


class TestScoreAtConstrainedRoot:
    def test_score_vanishes_per_cluster(self):
        data = informative_mcar()
        model = binary.BinaryMissingModel()
        rng = substream(5, 0)
        for _ in range(10):
            psi = np.array([rng.normal(1.0, 0.5)])
            lam = model.constrained_nuisance(psi, data)
            assert np.isfinite(lam).all()
            assert np.abs(model.nuisance_score(psi, lam, data)).max() <= 1e-6


class TestMCExpectation:
    def test_nonnegative_at_mle(self):
        data = informative_mcar()
        model = binary.BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        lam = model.constrained_nuisance(fit.psi_hat, data)
        mc = MonteCarloConfig(replicates=100, master_seed=17)
        bank = model.build_replicates(fit.psi_hat, lam, data, mc.generator(0),
                                      mc.replicates)
        vals = model.replicate_expectation(bank, fit.psi_hat, lam, data)
        assert np.all(vals >= 0.0)

    def test_matches_analytic_logit_value(self):
        # at large R the MC average sits within 3 MC standard errors of the
        # pattern-weighted analytic value sum (1 - zeta) pi (1 - pi)
        data = informative_mcar(n=25, t=5)
        model = binary.BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        psi, lam = fit.psi_hat, model.constrained_nuisance(fit.psi_hat, data)
        mc = MonteCarloConfig(replicates=50_000, master_seed=23)
        bank = model.build_replicates(psi, lam, data, mc.generator(0), mc.replicates)
        vals = model.replicate_expectation(bank, psi, lam, data)
        gamma1, _ = binary.fit_missingness_regression(data)
        pi = 1.0 / (1.0 + np.exp(-(lam[:, None] + data.covariates @ psi)))
        zeta = 1.0 / (1.0 + np.exp(-(data.covariates @ gamma1)))
        analytic = ((1.0 - zeta) * pi * (1.0 - pi)).sum(axis=1)
        products = bank.scores_at_mle ** 2
        mc_se = products.std(axis=0, ddof=1) / np.sqrt(mc.replicates)
        assert np.all(np.abs(vals - analytic) <= 3.0 * mc_se)

    def test_bit_reproducible(self):
        data = informative_mcar()
        model = binary.BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        lam = model.constrained_nuisance(fit.psi_hat, data)
        mc = MonteCarloConfig(replicates=200, master_seed=99)
        psi = fit.psi_hat + 0.1
        lam_psi = model.constrained_nuisance(psi, data)

        def expectation():
            bank = model.build_replicates(fit.psi_hat, lam, data, mc.generator(0),
                                          mc.replicates)
            return model.replicate_expectation(bank, psi, lam_psi, data)

        assert np.array_equal(expectation(), expectation())


class _ExactEqualsInfoModel(binary.BinaryMissingModel):
    """Artificial model whose exact expectation equals the observed info."""

    def replicate_expectation(self, bank, psi, lam_psi, data):
        return self.nuisance_obs_info(psi, lam_psi, data)


class TestModifiedProfile:
    def test_modification_reduces_to_half_log_info(self):
        data = informative_mcar()
        model = _ExactEqualsInfoModel()
        fit = core.fit(model, data, "profile")
        lam_mle = model.constrained_nuisance(fit.psi_hat, data)
        psi = fit.psi_hat + 0.3
        lam_psi = model.constrained_nuisance(psi, data)
        lp = core.profile_loglik(model, data, psi)
        lm = core.modified_profile_loglik(
            model, data, model.exact_bank(fit.psi_hat, lam_mle, data), psi)
        info = model.nuisance_obs_info(psi, lam_psi, data)
        assert lm - lp == pytest.approx(-0.5 * np.log(info).sum(), rel=1e-12)

    def test_logit_mcar_modification_is_half_log_j_plus_constant(self):
        data = informative_mcar()
        model = binary.BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        lam_mle = model.constrained_nuisance(fit.psi_hat, data)
        bank = model.exact_bank(fit.psi_hat, lam_mle, data)

        def parts(psi):
            psi = np.asarray(psi)
            lam = model.constrained_nuisance(psi, data)
            lp = core.profile_loglik(model, data, psi)
            lm = core.modified_profile_loglik(model, data, bank, psi)
            half_log_j = 0.5 * np.log(model.nuisance_obs_info(psi, lam, data)).sum()
            return lm - lp - half_log_j

        # the remaining term is the psi-free -log sum pi_hat(1-pi_hat)
        assert parts([0.2]) == pytest.approx(parts([1.4]), abs=1e-9)

    def test_nonpositive_expectation_gives_minus_inf(self):
        data = informative_mcar()
        model = binary.BinaryMissingModel()
        fit = core.fit(model, data, "profile")
        lam_mle = model.constrained_nuisance(fit.psi_hat, data)

        class NegativeBank:
            pass

        model.replicate_expectation = lambda bank, psi, lam, d: np.full(
            data.n_clusters, -1.0)
        val = core.modified_profile_loglik(model, data, NegativeBank(), fit.psi_hat)
        assert val == -np.inf


class TestFit:
    def test_cluster_permutation_invariance(self):
        data = informative_mcar(n=40)
        model = binary.BinaryMissingModel()
        fit_a = core.fit(model, data, "profile")
        perm = np.arange(data.n_clusters)[::-1]
        fit_b = core.fit(model, data.subset(perm), "profile")
        assert fit_a.psi_hat == pytest.approx(fit_b.psi_hat, abs=1e-7)

    def test_mcmpl_close_to_exact_at_large_r(self):
        data = informative_mcar(n=50, t=6)
        model = binary.BinaryMissingModel()
        mc = MonteCarloConfig(replicates=50_000, master_seed=31)
        exact = core.fit(model, data, "mpl-exact", mc)
        approx = core.fit(model, data, "mcmpl", mc)
        assert abs(exact.psi_hat[0] - approx.psi_hat[0]) < 0.005

    def test_dropping_noninformative_cluster_preserves_profile(self):
        data = simulated_mcar(n=40)
        model = binary.BinaryMissingModel()
        kept, dropped = core.drop_noninformative(model, data)
        assert dropped > 0
        rng = substream(7, 0)
        for _ in range(5):
            psi = np.array([rng.normal(1.0, 0.5)])
            full = model.cluster_logliks(
                psi, model.constrained_nuisance(psi, kept), kept).sum()
            assert core.profile_loglik(model, kept, psi) == pytest.approx(full)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            core.fit(binary.BinaryMissingModel(), mcar_toy(), "bootstrap")

    def test_mpl_exact_requires_formula(self):
        from mcmpl import ar1

        data = ar1.make_panel_dataset(np.array([[0.5, 1.0, 0.3]]), [0.0])
        with pytest.raises(ValueError):
            core.fit(ar1.AR1PanelModel(), data, "mpl-exact")
        mnar = binary.BinaryMissingModel(mechanism="mnar")
        assert not mnar.has_exact_expectation()
        assert binary.BinaryMissingModel(mechanism="mcar").has_exact_expectation()
        with pytest.raises(ValueError):
            core.fit(mnar, informative_mcar(n=20), "mpl-exact")

    def test_weibull_all_events_matches_grid_scan(self):
        # no covariates and no censoring: the profile objective is a scalar
        # function of the shape, so a dense grid scan is an independent oracle
        rng = substream(21, 0)
        times = rng.standard_exponential((6, 5)) + 0.05
        data = weibull.make_survival_dataset(times, np.ones((6, 5)),
                                             np.zeros((6, 5, 0)))
        model = weibull.WeibullSurvivalModel()
        fit = core.fit(model, data, "profile")
        grid = np.linspace(0.2, 4.0, 40_001)
        vals = [weibull.profile_loglik(s, np.empty(0), data) for s in grid]
        oracle = grid[int(np.argmax(vals))]
        assert abs(fit.psi_hat[0] - oracle) <= 1e-4 + (grid[1] - grid[0])

    def test_exact_expectation_constant_leaves_argmax(self):
        # the logit closed-form expectation is constant in the interest
        # parameter, so dropping its log from the objective cannot move the max
        data = informative_mcar(n=50, t=6, seed=8)
        model = binary.BinaryMissingModel()
        fit_exact = core.fit(model, data, "mpl-exact")
        prof = core.fit(model, data, "profile")
        lam_mle = model.constrained_nuisance(prof.psi_hat, data)

        def without_expectation(psi):
            lam = model.constrained_nuisance(psi, data)
            if not np.all(np.isfinite(lam)):
                return -np.inf
            info = model.nuisance_obs_info(psi, lam, data)
            return (model.cluster_logliks(psi, lam, data).sum()
                    + 0.5 * np.log(info).sum())

        alt = optim.maximize_multivariate(without_expectation, prof.psi_hat)
        assert abs(fit_exact.psi_hat[0] - alt.argmax[0]) <= 1e-6

    @pytest.mark.parametrize("method", core.FIT_METHODS)
    def test_shared_profile_stage_gives_the_same_fit(self, method):
        data = simulated_mcar(n=40)
        model = binary.BinaryMissingModel()
        mc = MonteCarloConfig(replicates=50, master_seed=4)
        stage = core.profile_stage(model, data)
        shared = core.fit(model, data, method, mc, stage=stage)
        own = core.fit(model, data, method, mc)
        assert shared.dropped_clusters == own.dropped_clusters > 0
        np.testing.assert_array_equal(shared.psi_hat, own.psi_hat)
        np.testing.assert_array_equal(shared.std_errors, own.std_errors)
        assert shared.iterations == own.iterations

    def test_all_noninformative_raises(self):
        y = np.array([[1.0, 1.0], [0.0, 0.0]])
        data = binary.make_binary_dataset(y, np.zeros((2, 2)))
        with pytest.raises(NoInformativeClustersError):
            core.fit(binary.BinaryMissingModel(), data, "profile")


#: one small dataset per model family and binary link x mechanism
GRADIENT_CASES = {
    "logit-mcar": dict(model="binary", link="logit", mechanism="mcar"),
    "logit-mnar": dict(model="binary", link="logit", mechanism="mnar",
                       gamma1=(5.0,), gamma2=1.0),
    "probit-mcar": dict(model="binary", link="probit", mechanism="mcar"),
    "probit-mnar": dict(model="binary", link="probit", mechanism="mnar",
                        gamma1=(5.0,), gamma2=1.0),
    "weibull": dict(model="weibull", xi=1.5, beta=(-1.0, 1.0), censoring_share=0.2),
    "ar1": dict(model="ar1", rho=0.5, sigma2=1.0),
}


def gradient_case(name):
    """(model, kept data, profile fit, replicate bank, exact bank or None)."""
    spec = harness.ExperimentSpec(n_clusters=40, t_periods=6, n_trials=2,
                                  methods=("profile",), seed=31,
                                  **GRADIENT_CASES[name])
    data, _ = harness.generate_dataset(spec, substream(spec.seed, 0, 0))
    model = harness.FAMILIES[spec.model].model(spec.link, spec.mechanism)
    kept, _ = core.drop_noninformative(model, data)
    prof = core.fit(model, kept, "profile")
    lam_mle = model.constrained_nuisance(prof.psi_hat, kept)
    bank = model.build_replicates(prof.psi_hat, lam_mle, kept, substream(5, 0), 50)
    exact = (model.exact_bank(prof.psi_hat, lam_mle, kept)
             if model.has_exact_expectation() else None)
    return model, kept, prof, bank, exact


class TestEnvelopeGradient:
    @pytest.mark.parametrize("name, objective", [
        (name, objective) for name in sorted(GRADIENT_CASES)
        for objective in ("profile", "mcmpl", "mpl-exact")
        if objective != "mpl-exact" or name.endswith("-mcar")])
    def test_matches_numerical_gradient(self, name, objective):
        model, kept, prof, bank, exact = gradient_case(name)
        if objective == "profile":
            bank = None
        elif objective == "mpl-exact":
            bank = exact

        def f(psi):
            if bank is None:
                return core.profile_loglik(model, kept, psi)
            return core.modified_profile_loglik(model, kept, bank, psi)

        for shift in (0.05, -0.1):
            psi = prof.psi_hat + shift * np.abs(prof.psi_hat)
            envelope = core.envelope_gradient(model, kept, psi, bank)
            numeric = optim.numerical_gradient(f, psi)
            assert np.all(np.abs(envelope - numeric) <= 1e-6 * np.maximum(1.0, np.abs(numeric)))

    @pytest.mark.parametrize("name", sorted(GRADIENT_CASES))
    def test_profile_gradient_small_at_mle(self, name):
        model, kept, prof, _, _ = gradient_case(name)
        grad = core.envelope_gradient(model, kept, prof.psi_hat)
        lp = core.profile_loglik(model, kept, prof.psi_hat)
        assert np.linalg.norm(grad) <= optim.GRAD_TOL * (1.0 + abs(lp))

    def test_stencil_across_gamma2_bound_falls_back(self, monkeypatch):
        model, kept, prof, _, _ = gradient_case("logit-mnar")
        psi = prof.psi_hat.copy()
        psi[-1] = binary.GAMMA2_BOUND - 1e-6  # the stencil step is 3e-4 here
        assert np.isfinite(core.profile_loglik(model, kept, psi))
        assert core.envelope_gradient(model, kept, psi) is None
        calls = []
        numerical_gradient = optim.numerical_gradient

        def counted(f, x):
            calls.append(x)
            return numerical_gradient(f, x)

        monkeypatch.setattr(optim, "numerical_gradient", counted)
        optim.maximize_multivariate(lambda z: core.profile_loglik(model, kept, z), psi,
                                    lambda z: core.envelope_gradient(model, kept, z))
        assert calls and np.array_equal(calls[0], psi)

    def test_infeasible_point_has_no_gradient(self):
        model, kept, _, bank, _ = gradient_case("weibull")
        psi = np.array([-1.0, 0.0, 0.0])
        assert core.envelope_gradient(model, kept, psi) is None
        assert core.envelope_gradient(model, kept, psi, bank) is None


class TestWaldInterval:
    def test_standard_normal_quantile(self):
        fit = core.FitResult(psi_hat=np.array([0.0]), std_errors=np.array([1.0]),
                             lambda_hat=np.array([]), max_value=0.0,
                             method="profile", converged=True, dropped_clusters=0,
                             param_names=("b",))
        iv = core.wald_interval(fit, 0, 0.95)
        assert iv.lo == pytest.approx(-1.959964, abs=1e-6)
        assert iv.hi == pytest.approx(1.959964, abs=1e-6)

    def test_linear_transform(self):
        fit = core.FitResult(psi_hat=np.array([2.0]), std_errors=np.array([0.5]),
                             lambda_hat=np.array([]), max_value=0.0,
                             method="profile", converged=True, dropped_clusters=0,
                             param_names=("b",))
        iv = core.wald_interval(fit, 0, 0.95)
        assert iv.lo == pytest.approx(1.020, abs=1e-3)
        assert iv.hi == pytest.approx(2.980, abs=1e-3)

    def test_zero_se(self):
        fit = core.FitResult(psi_hat=np.array([2.0]), std_errors=np.array([0.0]),
                             lambda_hat=np.array([]), max_value=0.0,
                             method="profile", converged=True, dropped_clusters=0,
                             param_names=("b",))
        with pytest.raises(NonPositiveSEError):
            core.wald_interval(fit, 0, 0.95)


class TestMonteCarloConfig:
    def test_replicate_floor(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(replicates=0)

    def test_substreams_distinct(self):
        a = substream(5, 0, 1).random(4)
        b = substream(5, 0, 2).random(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, substream(5, 0, 1).random(4))
