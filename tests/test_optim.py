import numpy as np
import pytest

from mcmpl import optim
from mcmpl.optim import (
    SCALAR_GRID,
    X_TOL,
    NoFinitePointError,
    NonFiniteEvaluationError,
    NonFiniteStartError,
    maximize_multivariate,
    maximize_scalar_bounded,
    numerical_gradient,
    numerical_hessian,
)


def grid_argmax(f, lo, hi, n=10_000):
    xs = np.linspace(lo, hi, n)
    vals = np.array([f(x) for x in xs])
    vals[~np.isfinite(vals)] = -np.inf
    return xs[int(np.argmax(vals))]


class TestScalarBounded:
    def test_quadratic(self):
        res = maximize_scalar_bounded(lambda x: -(x - 2.0) ** 2, 0, 5, 4.0)
        assert res.converged
        assert abs(res.argmax - 2.0) <= X_TOL

    def test_sine(self):
        res = maximize_scalar_bounded(np.sin, 0, np.pi, 0.5)
        assert abs(res.argmax - np.pi / 2) <= X_TOL

    def test_infeasible_region(self):
        def f(x):
            return -np.inf if x < 0.5 else -abs(x - 0.7) ** 1.5

        oracle = grid_argmax(f, 0.0, 1.0, n=10_001)  # step 1e-4
        res = maximize_scalar_bounded(f, 0, 1, 0.2)
        assert abs(res.argmax - 0.7) <= 1e-4
        assert abs(res.argmax - oracle) <= 2e-4
        assert np.isfinite(res.value)

    def test_iteration_cap_returns_unconverged(self, monkeypatch):
        monkeypatch.setattr(optim, "MAX_ITERS", 3)
        res = maximize_scalar_bounded(lambda x: -(x - 2.0) ** 2, 0, 5, 4.0)
        assert np.isfinite(res.argmax) and np.isfinite(res.value)
        assert not res.converged

    def test_climb_evaluates_only_visited_grid_points(self):
        calls = []

        def f(x):
            calls.append(x)
            return -(x - 2.0) ** 2

        maximize_scalar_bounded(f, 0, 5, 2.5)
        grid = 5.0 * np.arange(1, SCALAR_GRID + 1) / (SCALAR_GRID + 1.0)
        assert np.isin(grid, calls).sum() < 10

    def test_never_returns_below_the_climb(self):
        # a spike at the climb's grid point that the refinement never meets
        peak = (np.arange(1, SCALAR_GRID + 1) / (SCALAR_GRID + 1.0))[20]

        def f(x):
            return 0.0 if x == peak else -1.0 - 0.01 * x

        res = maximize_scalar_bounded(f, 0.0, 1.0, peak)
        assert res.argmax == peak
        assert res.value == 0.0

    def test_all_infeasible(self):
        with pytest.raises(NoFinitePointError):
            maximize_scalar_bounded(lambda x: -np.inf, 0, 1, 0.5)

    @pytest.mark.parametrize("f, lo, hi", [
        (lambda x: -(x - 0.3) ** 2, -1.0, 1.0),
        (lambda x: np.cos(x), -2.0, 2.0),
        (lambda x: -abs(x - 1.234), 0.0, 3.0),
        (lambda x: x * np.exp(-x), 0.0, 5.0),
    ])
    def test_matches_grid_scan(self, f, lo, hi):
        res = maximize_scalar_bounded(f, lo, hi, lo)
        step = (hi - lo) / 9_999
        assert abs(res.argmax - grid_argmax(f, lo, hi)) <= 2 * step


class TestMultivariate:
    def test_separable_quadratic(self):
        res = maximize_multivariate(lambda v: -(v[0] - 1) ** 2 - (v[1] + 2) ** 2,
                                    np.zeros(2))
        assert np.allclose(res.argmax, [1.0, -2.0], atol=1e-6)
        assert res.converged

    def test_rosenbrock(self):
        def f(v):
            return -(100.0 * (v[1] - v[0] ** 2) ** 2 + (1.0 - v[0]) ** 2)

        res = maximize_multivariate(f, np.array([-1.2, 1.0]))
        assert np.allclose(res.argmax, [1.0, 1.0], atol=1e-4)
        grad = numerical_gradient(f, res.argmax)
        assert np.linalg.norm(grad) < 1e-3

    def test_given_gradient_replaces_numerical_one(self, monkeypatch):
        # a gradient that declines (None) left of 0.5 sends only those points
        # to numerical_gradient
        fallback = []
        numerical = optim.numerical_gradient
        monkeypatch.setattr(optim, "numerical_gradient",
                            lambda f, x: fallback.append(x.copy()) or numerical(f, x))

        def f(v):
            return -(v[0] - 1) ** 2 - (v[1] + 2) ** 2

        def grad(v):
            return None if v[0] < 0.5 else np.array([-2 * (v[0] - 1), -2 * (v[1] + 2)])

        res = maximize_multivariate(f, np.zeros(2), grad)
        assert np.allclose(res.argmax, [1.0, -2.0], atol=1e-6)
        assert res.converged
        assert fallback and all(x[0] < 0.5 for x in fallback)
        fallback.clear()
        maximize_multivariate(f, np.array([0.6, 0.0]), grad)
        assert not fallback

    @pytest.mark.parametrize("with_grad", [False, True])
    def test_start_is_evaluated_once(self, with_grad):
        x0 = np.array([0.3, -0.4])
        at_start = []

        def f(v):
            at_start.append(np.array_equal(v, x0))
            return -(v[0] - 1) ** 2 - (v[1] + 2) ** 2

        def grad(v):
            return np.array([-2 * (v[0] - 1), -2 * (v[1] + 2)])

        res = maximize_multivariate(f, x0, grad if with_grad else None)
        assert np.allclose(res.argmax, [1.0, -2.0], atol=1e-6)
        assert len(at_start) > 1 and sum(at_start) == 1

    def test_constant(self):
        res = maximize_multivariate(lambda v: 3.5, np.array([0.7, -0.2]))
        assert np.allclose(res.argmax, [0.7, -0.2])
        assert res.converged

    def test_nonfinite_start(self):
        with pytest.raises(NonFiniteStartError):
            maximize_multivariate(lambda v: -np.inf, np.zeros(1))

    @pytest.mark.parametrize("dim", [1, 3])
    def test_concave_quadratic(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim))
        prec = a @ a.T + dim * np.eye(dim)
        center = rng.normal(size=dim)

        def f(v):
            d = v - center
            return -0.5 * d @ prec @ d

        res = maximize_multivariate(f, np.zeros(dim))
        assert res.converged
        assert np.allclose(res.argmax, center, atol=1e-6)

    def test_infeasible_wall_at_maximum(self):
        # the maximum sits on the wall, so every gradient stencil near it
        # touches -inf on one side and turns one-sided
        def f(v):
            return -np.inf if v[0] > 1.0 else -(v[0] - 1.0) ** 2 - (v[1] + 0.5) ** 2

        x0 = np.array([0.0, 0.0])
        res = maximize_multivariate(f, x0)
        assert np.all(np.isfinite(res.argmax)) and res.argmax[0] <= 1.0
        assert np.isfinite(f(res.argmax)) and res.value == f(res.argmax)
        assert res.value >= f(x0)
        assert np.allclose(res.argmax, [1.0, -0.5], atol=1e-3)

    def test_returns_start_when_no_improvement(self):
        # every ascent direction from the start leaves the feasible region
        x0 = np.zeros(2)
        res = maximize_multivariate(
            lambda v: v[0] + v[1] if v[0] <= 0.0 else -np.inf, x0)
        assert np.array_equal(res.argmax, x0) and res.value == 0.0
        assert not res.converged

    def test_returns_start_when_search_ends_below_it(self):
        # an objective that drifts down with every call: whatever BFGS
        # finds is worth less than the start
        calls = []

        def f(v):
            calls.append(1)
            return -v @ v - 0.01 * len(calls)

        x0 = np.array([0.5, -0.5])
        res = maximize_multivariate(f, x0)
        assert len(calls) > 1
        assert np.array_equal(res.argmax, x0) and res.value == -0.5 - 0.01
        assert not res.converged

    @pytest.mark.parametrize("f, x0", [
        (lambda v: -(v[0] - 1) ** 2 - (v[1] + 2) ** 2, [0.0, 0.0]),
        (lambda v: np.sin(v[0]) * np.cos(v[1]), [0.3, 0.2]),
        (lambda v: -np.log1p(np.exp(v[0])) - np.log1p(np.exp(-v[0] - v[1])), [0.0, 0.0]),
        (lambda v: -np.inf if v[0] < 0 else -v[0] - (v[1] - 2) ** 2, [0.5, 0.0]),
        (lambda v: 3.5, [0.7, -0.2]),
    ])
    def test_never_below_start(self, f, x0):
        res = maximize_multivariate(f, np.array(x0))
        assert res.value >= f(np.array(x0))
        assert res.value == f(np.atleast_1d(res.argmax))

    def test_hessian_at_max(self):
        f = lambda v: -(v[0] ** 2) - 3 * v[1] ** 2
        res = maximize_multivariate(f, np.ones(2))
        hessian_at_max = numerical_hessian(f, res.argmax)
        assert hessian_at_max is not None
        assert np.allclose(hessian_at_max, np.diag([-2.0, -6.0]), atol=1e-3)


class TestDerivatives:
    def test_square(self):
        g = numerical_gradient(lambda x: x[0] ** 2, np.array([3.0]))
        assert abs(g[0] - 6.0) <= 1e-6
        h = numerical_hessian(lambda x: x[0] ** 2, np.array([3.0]))
        assert abs(h[0, 0] - 2.0) <= 1e-3

    def test_bilinear(self):
        f = lambda v: v[0] * v[1]
        g = numerical_gradient(f, np.array([2.0, 5.0]))
        assert np.allclose(g, [5.0, 2.0], atol=1e-8)
        h = numerical_hessian(f, np.array([2.0, 5.0]))
        assert abs(h[0, 1] - 1.0) <= 1e-6

    def test_logistic_cluster_loglik_score(self):
        # 4-unit toy cluster: gradient in the intercept equals sum(y - pi)
        y = np.array([1.0, 0.0, 1.0, 1.0])
        x = np.array([0.3, -0.2, 0.5, 0.1])
        beta = 0.8

        def loglik(lam):
            eta = lam + beta * x
            return float(np.sum(y * eta - np.log1p(np.exp(eta))))

        for lam in (-0.5, 0.0, 0.7):
            pi = 1.0 / (1.0 + np.exp(-(lam + beta * x)))
            analytic = float(np.sum(y - pi))
            g = numerical_gradient(lambda v: loglik(v[0]), np.array([lam]))
            assert abs(g[0] - analytic) <= 1e-5

    def test_gradient_property_polynomial_exponential(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            a, b, c = rng.normal(size=3)

            def f(v):
                return a * v[0] ** 3 + b * v[0] * v[1] + c * np.exp(0.3 * v[1])

            x = rng.normal(size=2)
            analytic = np.array([3 * a * x[0] ** 2 + b * x[1],
                                 b * x[0] + 0.3 * c * np.exp(0.3 * x[1])])
            num = numerical_gradient(f, x)
            assert np.all(np.abs(num - analytic) <= 1e-4 * (1 + np.abs(analytic)))

    def test_hessian_exactly_symmetric(self):
        def f(v):
            return np.sin(v[0] * v[1]) + v[2] ** 3 - v[0] * v[2]

        h = numerical_hessian(f, np.array([0.4, -1.2, 0.9]))
        assert np.array_equal(h, h.T)

    def test_one_sided_at_a_wall(self):
        def f(x):
            return -np.inf if x[0] > 1.0 else x[0]

        g = numerical_gradient(f, np.array([1.0]))
        assert abs(g[0] - 1.0) <= 1e-6

    @pytest.mark.parametrize("f", [
        lambda x: -np.inf if abs(x[0] - 1.0) > 1e-9 else 0.0,  # both sides
        lambda x: -np.inf if x[0] >= 1.0 else x[0],            # the centre
    ])
    def test_nonfinite_stencil(self, f):
        with pytest.raises(NonFiniteEvaluationError):
            numerical_gradient(f, np.array([1.0]))
