import numpy as np
import pytest
from scipy.optimize import minimize

from mcmpl import ar1, core, optim
from mcmpl.ar1 import (
    AR1PanelModel,
    DegenerateDesignError,
    constrained_lambda,
    constrained_sigma2,
    make_panel_dataset,
    ols_fit,
)
from mcmpl.core import MonteCarloConfig, substream
from oracles import ar1_trace_curves


def loglik(rho, sigma2, lam, data):
    psi = np.array([rho, sigma2])
    return float(AR1PanelModel().cluster_logliks(psi, lam, data).sum())


def simulate_panel(n, t, rho=0.5, sigma2=1.0, seed=0, lam=None):
    rng = substream(seed, 0)
    lam = 1.0 + rng.standard_normal(n) if lam is None else np.broadcast_to(lam, (n,))
    eps = rng.standard_normal((n, t))
    y = np.empty((n, t))
    prev = np.zeros(n)
    for k in range(t):
        prev = lam + rho * prev + np.sqrt(sigma2) * eps[:, k]
        y[:, k] = prev
    return make_panel_dataset(y, np.zeros(n))


class TestLoglik:
    def test_perfect_fit_zero(self):
        # y_t = 0.5 + 0.5 y_{t-1} from y_0 = 1: residuals vanish
        data = make_panel_dataset(np.array([[1.0, 1.0]]), [1.0])
        assert loglik(0.5, 1.0, 0.5, data) == 0.0

    def test_unit_residuals(self):
        data = make_panel_dataset(np.array([[1.0, -1.0]]), [0.0])
        assert loglik(0.0, 1.0, 0.0, data) == pytest.approx(-1.0)

    def test_matches_normal_density_up_to_constant(self):
        from scipy.stats import norm

        rng = np.random.default_rng(1)
        data = simulate_panel(4, 5, seed=2)
        for _ in range(5):
            rho, s2 = rng.normal(0.4, 0.3), rng.uniform(0.5, 2.0)
            lam = rng.normal(size=4)
            lagged = np.concatenate([data.initial_conditions[:, None],
                                     data.responses[:, :-1]], axis=1)
            dens = norm.logpdf(data.responses, lam[:, None] + rho * lagged,
                               np.sqrt(s2)).sum()
            n_units = data.responses.size
            val = loglik(rho, s2, lam, data)
            assert val == pytest.approx(dens + 0.5 * n_units * np.log(2 * np.pi),
                                        abs=1e-12)


class TestConstrainedLambda:
    def test_rho_zero_gives_mean(self):
        data = make_panel_dataset(np.array([[2.0, 4.0, 6.0]]), [1.0])
        assert constrained_lambda(0.0, data)[0] == pytest.approx(4.0)

    def test_hand_value(self):
        data = make_panel_dataset(np.array([[1.0, 2.0]]), [0.0])
        assert constrained_lambda(1.0, data)[0] == pytest.approx(1.0)

    def test_affine_in_rho(self):
        data = simulate_panel(3, 4, seed=3)
        v0 = constrained_lambda(0.0, data)
        v1 = constrained_lambda(1.0, data)
        v2 = constrained_lambda(2.0, data)
        assert v2 == pytest.approx(2 * v1 - v0, abs=1e-12)

    def test_shift_property(self):
        data = simulate_panel(2, 6, seed=4)
        shift = 3.7
        shifted = make_panel_dataset(data.responses + shift,
                                     data.initial_conditions + shift)
        for rho in (-0.3, 0.5, 1.1):
            assert constrained_lambda(rho, shifted) == pytest.approx(
                constrained_lambda(rho, data) + (1 - rho) * shift, abs=1e-10)


class TestOlsFit:
    def test_exact_recovery_noiseless(self):
        y0 = np.array([1.0, -2.0])
        y = np.empty((2, 4))
        prev = y0
        for k in range(4):
            prev = 0.5 * prev
            y[:, k] = prev
        data = make_panel_dataset(y, y0)
        rho, sigma2, lam = ols_fit(data)
        assert rho == pytest.approx(0.5, abs=1e-12)
        assert sigma2 == pytest.approx(0.0, abs=1e-24)
        assert lam == pytest.approx(np.zeros(2), abs=1e-12)

    def test_matches_joint_maximization(self):
        data = simulate_panel(2, 3, seed=5)
        rho, sigma2, lam = ols_fit(data)

        def joint(v):
            if v[1] <= 0:
                return -np.inf
            return loglik(v[0], v[1], v[2:], data)

        res = optim.maximize_multivariate(joint, np.array([0.0, 1.0, 0.0, 0.0]))
        assert res.argmax[0] == pytest.approx(rho, abs=1e-6)
        assert res.argmax[1] == pytest.approx(sigma2, abs=1e-6)
        assert res.argmax[2:] == pytest.approx(lam, abs=1e-5)

    def test_degenerate_design(self):
        data = make_panel_dataset(np.array([[2.0, 2.0, 2.0]]), [2.0])
        with pytest.raises(DegenerateDesignError):
            ols_fit(data)


class TestConstrainedSigma2:
    def test_zero_residuals(self):
        data = make_panel_dataset(np.array([[1.0, 1.0]]), [1.0])
        assert constrained_sigma2(0.5, data, "NT") == pytest.approx(0.0, abs=1e-28)

    def test_divisor_conventions(self):
        # residuals (1, -1) at rho=0, lam_hat = 0: RSS = 2
        data = make_panel_dataset(np.array([[1.0, -1.0]]), [0.0])
        assert constrained_sigma2(0.0, data, "NT") == pytest.approx(1.0)
        assert constrained_sigma2(0.0, data, "N(T-1)") == pytest.approx(2.0)

    def test_nt_divisor_matches_ml_at_rho_hat(self):
        data = simulate_panel(5, 6, seed=6)
        rho, sigma2, _ = ols_fit(data)
        assert constrained_sigma2(rho, data, "NT") == pytest.approx(sigma2, rel=1e-12)


class TestMcExpectation:
    def fit_and_bank(self, data, replicates=2000, seed=7):
        model = AR1PanelModel()
        rho, sigma2, lam = ols_fit(data)
        psi = np.array([rho, sigma2])
        bank = model.build_replicates(psi, lam, data, substream(seed, 0), replicates)
        return model, psi, lam, bank

    def test_nonnegative_at_mle(self):
        data = simulate_panel(30, 6, seed=8)
        model, psi, lam, bank = self.fit_and_bank(data)
        vals = model.replicate_expectation(bank, psi, lam, data)
        assert np.all(vals >= 0.0)

    def test_semi_analytic_linear_form(self):
        # the same replicates estimate E1 = E[score^2] and E2 = E[lagmean * score];
        # the direct average must agree with (sigma2_hat E1 + T (rho_hat - rho) E2) / sigma2
        data = simulate_panel(20, 5, seed=9)
        model, psi, lam, bank = self.fit_and_bank(data, replicates=20_000)
        rho_hat, sigma2_hat = psi
        t_len = data.responses.shape[1]
        for rho in (rho_hat - 0.3, rho_hat + 0.2):
            sigma2 = constrained_sigma2(rho, data, "N(T-1)")
            direct = model.replicate_expectation(
                bank, np.array([rho, sigma2]),
                constrained_lambda(rho, data), data)
            e1 = (bank.scores_at_mle ** 2).mean(axis=0)
            lagmean = bank.lag_sums / t_len
            e2 = (lagmean * bank.scores_at_mle).mean(axis=0)
            semi = (sigma2_hat * e1 + t_len * (rho_hat - rho) * e2) / sigma2
            spread = (bank.scores_at_mle ** 2).std(axis=0, ddof=1)
            tol = 3.0 * (sigma2_hat * spread + abs(t_len * (rho_hat - rho))
                         * (lagmean * bank.scores_at_mle).std(axis=0, ddof=1)) \
                / (sigma2 * np.sqrt(bank.scores_at_mle.shape[0]))
            assert np.all(np.abs(direct - semi) <= tol + 1e-9)

    def test_far_rho_can_be_nonpositive(self):
        data = simulate_panel(40, 4, seed=10)
        model, psi, lam, bank = self.fit_and_bank(data, replicates=500)
        found = False
        for rho in np.linspace(psi[0] + 0.5, psi[0] + 4.0, 30):
            vals = model.replicate_expectation(
                bank, np.array([rho, 1.0]), constrained_lambda(rho, data), data)
            if np.any(vals <= 0.0):
                found = True
                break
        assert found


def recursion_sums(psi, lam, data, eps):
    """Reference for the bank: run y_t = lam + rho y_{t-1} + sigma eps_t over
    t and sum the (R, N, T) paths; returns (resp_sums, lag_sums, scores)."""
    rho, sigma2 = psi
    y = np.empty_like(eps)
    prev = np.broadcast_to(data.initial_conditions, eps.shape[:2])
    for t in range(eps.shape[2]):
        prev = lam[None] + rho * prev + np.sqrt(sigma2) * eps[:, :, t]
        y[:, :, t] = prev
    lag_sums = data.initial_conditions[None] + y[:, :, :-1].sum(axis=2)
    resp_sums = y.sum(axis=2)
    scores = (resp_sums - eps.shape[2] * lam[None] - rho * lag_sums) / sigma2
    return resp_sums, lag_sums, scores


def power_sum(rho, k):
    """A_k(rho) = sum_{t=1..k} sum_{j=0..t-1} rho^j."""
    return sum(rho ** j for t in range(1, k + 1) for j in range(t))


def sum_weights(rho, t_len):
    """(T, 3) weights [a, b, 1] of the innovations in the response sum, the
    lag sum and the score: a_s = sum_{j=0..T-s} rho^j and b_s =
    sum_{j=0..T-1-s} rho^j, so b_T = 0."""
    a = [sum(rho ** j for j in range(t_len - s + 1)) for s in range(1, t_len + 1)]
    b = [sum(rho ** j for j in range(t_len - s)) for s in range(1, t_len + 1)]
    return np.column_stack([a, b, np.ones(t_len)])


def innovations_behind(z, rho, t_len):
    """(R, N, T) innovations eps = z L^{-1} B^T, B = [1, b], G = B^T B = L L^T,
    whose projections eps.1 and eps.b are the bank's draw z L^T."""
    basis = sum_weights(rho, t_len)[:, [2, 1]]
    chol = np.linalg.cholesky(basis.T @ basis)
    return z @ np.linalg.solve(chol, basis.T)


class TestReplicateBank:
    @pytest.mark.parametrize("rho", [-0.9, 0.5, 1.0, 1.3])
    def test_matches_recursion(self, rho):
        data = make_panel_dataset(simulate_panel(7, 6, seed=16).responses,
                                  np.linspace(-2.0, 3.0, 7))
        lam = np.linspace(-1.0, 1.5, 7)
        psi = np.array([rho, 0.6])
        bank = AR1PanelModel().build_replicates(psi, lam, data, substream(17, 0), 300)
        eps = innovations_behind(substream(17, 0).standard_normal((300, 7, 2)), rho, 6)
        for got, want in zip((bank.resp_sums, bank.lag_sums, bank.scores_at_mle),
                             recursion_sums(psi, lam, data, eps)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_draw_of_the_innovations(self):
        data = simulate_panel(5, 4, seed=18)
        rng, ref = substream(19, 0), substream(19, 0)
        AR1PanelModel().build_replicates(np.array([0.5, 1.0]), np.zeros(5), data, rng, 40)
        ref.standard_normal((40, 5, 2))
        # the same state gives the same stream from here on
        assert np.array_equal(rng.integers(0, 2 ** 63, 64), ref.integers(0, 2 ** 63, 64))

    @pytest.mark.parametrize("rho, sigma2", [(-0.9, 0.6), (0.7, 1.0), (1.3, 2.5)])
    def test_sums_have_the_exact_gaussian_law(self, rho, sigma2):
        # (S, L, score) of each replicate cluster has mean (m_S, m_L, 0) and
        # covariance D W^T W D, W = [a, b, 1], D = diag(sigma, sigma, 1/sigma).
        # A Gaussian sample covariance entry has variance
        # (C_jj C_kk + C_jk^2) / R and a sample mean C_jj / R; every entry of
        # every cluster must lie within 5 of those standard errors
        data = simulate_panel(4, 5, rho=0.7, seed=22)
        lam = np.array([-1.0, 0.0, 0.5, 2.0])
        y0 = np.array([-2.0, 0.0, 1.0, 3.0])
        data = make_panel_dataset(data.responses, y0)
        r, t_len = 50_000, 5
        bank = AR1PanelModel().build_replicates(np.array([rho, sigma2]), lam, data,
                                                substream(23, 0), r)
        sigma = np.sqrt(sigma2)
        w = sum_weights(rho, t_len) * np.array([sigma, sigma, 1.0 / sigma])
        cov = w.T @ w
        # the means from y_t = lam c_{t-1} + rho^t y_0 with c_k = sum_{j<=k} rho^j
        path = np.array([[lam[i] * sum(rho ** j for j in range(t)) + rho ** t * y0[i]
                          for t in range(1, t_len + 1)] for i in range(4)])
        means = np.column_stack([path.sum(axis=1), y0 + path[:, :-1].sum(axis=1),
                                 np.zeros(4)])
        sums = np.stack([bank.resp_sums, bank.lag_sums, bank.scores_at_mle], axis=2)
        mean_se = np.sqrt(np.diag(cov) / r)
        cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / r)
        for i in range(4):
            assert np.all(np.abs(sums[:, i].mean(axis=0) - means[i]) <= 5.0 * mean_se)
            assert np.all(np.abs(np.cov(sums[:, i], rowvar=False) - cov) <= 5.0 * cov_se)

    def test_moments_at_large_r(self):
        # E[S s] = A_T(rho_hat), E[L s] = A_{T-1}(rho_hat) and E[s] = 0 for
        # the response sum S, lag sum L and score s at the fit
        data = simulate_panel(4, 5, rho=0.7, seed=20)
        rho, sigma2, lam = ols_fit(data)
        r = 50_000
        bank = AR1PanelModel().build_replicates(np.array([rho, sigma2]), lam, data,
                                                substream(21, 0), r)
        n, t_len = data.responses.shape
        s = bank.scores_at_mle
        for moment, product, exact in (
                (bank.resp_moment, bank.resp_sums * s, power_sum(rho, t_len)),
                (bank.lag_moment, bank.lag_sums * s, power_sum(rho, t_len - 1)),
                (bank.score_mean, s, 0.0)):
            mc_se = np.sqrt(product.var(axis=0, ddof=1).sum() / r) / n
            assert abs(moment.mean() - exact) <= 4.0 * mc_se


class TestFitBounded:
    def test_info_is_t_over_sigma2(self):
        data = simulate_panel(4, 7, seed=11)
        model = AR1PanelModel()
        psi = np.array([0.4, 1.7])
        info = model.nuisance_obs_info(psi, constrained_lambda(0.4, data), data)
        assert info == pytest.approx(np.full(4, 7 / 1.7), rel=1e-15)

    def test_noiseless_recovery(self):
        y0 = np.array([0.5, 1.0, -1.0])
        y = np.empty((3, 5))
        prev = y0
        for k in range(5):
            prev = 1.0 + 0.7 * prev
            y[:, k] = prev
        data = make_panel_dataset(y, y0)
        fit = core.fit(AR1PanelModel(), data, "profile")
        assert fit.psi_hat[0] == pytest.approx(0.7, abs=1e-10)

    def test_profile_fit_is_closed_form(self):
        data = simulate_panel(30, 5, seed=16)
        fit = core.fit(AR1PanelModel(), data, "profile")
        assert fit.psi_hat[0] == ols_fit(data)[0]
        assert fit.converged and fit.iterations == 0

    def test_lambda_identity(self):
        data = simulate_panel(25, 6, seed=12)
        rho_hat, _, lam_hat = ols_fit(data)
        lagbar = np.concatenate([data.initial_conditions[:, None],
                                 data.responses[:, :-1]], axis=1).mean(axis=1)
        rng = np.random.default_rng(3)
        for rho in rng.normal(0.5, 0.5, size=10):
            lam_rho = constrained_lambda(rho, data)
            assert np.all(np.abs(lam_hat - (lam_rho - (rho_hat - rho) * lagbar))
                          <= 1e-12)

    def test_ols_rho_is_profile_argmax_on_grid(self):
        data = simulate_panel(30, 5, seed=13)
        model = AR1PanelModel()
        rho_hat, *_ = ols_fit(data)
        grid = np.linspace(rho_hat - 0.2, rho_hat + 0.2, 2001)
        vals = [core.profile_loglik(
            model, data, np.array([r, constrained_sigma2(r, data, "NT")]))
            for r in grid]
        assert abs(grid[int(np.argmax(vals))] - rho_hat) <= grid[1] - grid[0]

    def test_double_profile_matches_joint_maximization(self):
        data = simulate_panel(40, 6, seed=14)
        mc = MonteCarloConfig(replicates=300, master_seed=21)
        fit_scalar = core.fit(AR1PanelModel(), data, "mcmpl", mc)

        model = AR1PanelModel()
        rho, sigma2, lam = ols_fit(data)
        psi_mle = np.array([rho, sigma2])
        bank = model.build_replicates(psi_mle, lam, data, mc.generator(0),
                                      mc.replicates)

        def lm(psi):
            return core.modified_profile_loglik(model, data, bank, psi)

        # the oracle is a derivative-free simplex: a quasi-Newton step from
        # psi_mle can land past the local maximum, on the re-increasing
        # branch in rho
        joint = minimize(lambda psi: -lm(psi), psi_mle, method="Nelder-Mead",
                         options={"xatol": 1e-9, "fatol": 1e-12})
        assert np.all(np.abs(joint.x - fit_scalar.psi_hat) <= 1e-5)

    def test_profile_and_mcmpl_bias_directions(self):
        data = simulate_panel(200, 4, rho=0.5, seed=15)
        mc = MonteCarloConfig(replicates=300, master_seed=22)
        prof = core.fit(AR1PanelModel(), data, "profile", mc)
        mod = core.fit(AR1PanelModel(), data, "mcmpl", mc)
        assert prof.psi_hat[0] < 0.45           # strong downward bias at T=4
        assert abs(mod.psi_hat[0] - 0.5) < 0.12  # correction recenters
        assert np.all(np.isfinite(prof.std_errors))
        assert np.all(np.isfinite(mod.std_errors))


class TestDataGate:
    @pytest.mark.parametrize("method", ["profile", "mcmpl"])
    def test_ragged_fit_rejected(self, method):
        # cluster 2 ends a period early, padded as the file reader pads it
        data = simulate_panel(6, 4, seed=17)
        y = data.responses.copy()
        y[2, 3] = np.nan
        mask = ~np.isnan(y)
        ragged = core.make_dataset(y, None, None, mask,
                                   initial_conditions=data.initial_conditions)
        with pytest.raises(ValueError, match="common length") as exc:
            core.fit(AR1PanelModel(), ragged, method,
                     MonteCarloConfig(replicates=20, master_seed=1))
        # a study records a NumericalFailure as a failed trial, not an error
        assert not isinstance(exc.value, optim.NumericalFailure)

    def test_single_period_fit_rejected(self):
        data = core.make_dataset(np.ones((3, 1)), initial_conditions=np.zeros(3))
        with pytest.raises(ValueError, match="two periods") as exc:
            core.fit(AR1PanelModel(), data, "profile")
        assert not isinstance(exc.value, optim.NumericalFailure)


class TestTrace:
    #: (N, T, rho) of each dataset
    DESIGNS = [(40, 6, 0.5), (250, 8, 0.5), (60, 4, 0.9), (100, 5, 0.0)]
    #: reaches past the modified curve's feasibility edge, where it is -inf
    GRID = [-0.5, 0.0, 0.3, 0.5, 0.9, 1.2, 1.5]

    @pytest.mark.parametrize("n, t, rho", DESIGNS)
    def test_generic_curves_match_the_closed_form_variance(self, n, t, rho):
        # core.trace_curves re-maximizes sigma2 at each rho; the oracle puts
        # it at RSS/NT (profile) and RSS/N(T-1) (modified)
        data = simulate_panel(n, t, rho=rho, seed=n + t)
        mc = MonteCarloConfig(replicates=200, master_seed=17)
        model = AR1PanelModel()
        generic = core.trace_curves(model, data, mc, "rho", self.GRID)
        oracle = ar1_trace_curves(model, data, mc, "rho", self.GRID)
        assert not np.isfinite(oracle[1]).all()
        for got, want in zip(generic, oracle):
            got, want = np.array(got), np.array(want)
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite)
            assert np.all(np.abs(got[finite] - want[finite])
                          <= 1e-9 * (1.0 + np.abs(want[finite])))
