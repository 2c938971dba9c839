"""Numerical routines shared by every model fitter.

Bounded scalar maximization, derivative-free simplex descent with
quasi-Newton polishing, central-difference derivatives, bracketed root
finding, and quadrature on the positive half-line.

Objectives signal infeasible regions by returning ``-inf``; the
optimizers treat such points as worse than any finite value and never
return them as a maximizer.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.optimize import brentq, minimize


class NoFinitePointError(ValueError):
    """Objective was -inf at every initialization point."""


class NonFiniteStartError(ValueError):
    """Multivariate maximization started at a non-finite objective value."""


class NonFiniteEvaluationError(ValueError):
    """A finite-difference stencil point evaluated to a non-finite value."""


class NoSignChangeError(ValueError):
    """Root bracket endpoints have the same sign."""


class NonConvergentQuadratureError(RuntimeError):
    """Quadrature failed to reach the requested relative error."""


@dataclass(frozen=True)
class ScalarBounds:
    """Finite search interval for one-dimensional optimization."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError("bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")


@dataclass(frozen=True)
class Tolerances:
    """Convergence tolerances shared across the numerical routines."""

    x_tol: float = 1e-8
    f_tol: float = 1e-10
    grad_tol: float = 1e-6
    max_iters: int = 500

    def __post_init__(self):
        if min(self.x_tol, self.f_tol, self.grad_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


DEFAULT_SCALAR_TOL = Tolerances()
DEFAULT_MULTI_TOL = Tolerances(max_iters=2000)

#: fraction of the larger sub-interval used by a golden-section step
_CGOLD = 0.3819660112501051


@dataclass
class OptimResult:
    argmax: np.ndarray | float
    value: float
    converged: bool
    iterations: int


def maximize_scalar_bounded(f, bounds: ScalarBounds, tol: Tolerances | None = None,
                            init_grid: int = 32, start: float | None = None) -> OptimResult:
    """Maximize ``f`` on a bounded interval.

    An equispaced interior grid locates a starting bracket, after which a
    golden-section search with parabolic acceleration refines it. Points
    where ``f`` is ``-inf`` are infeasible; they shrink the bracket but are
    never returned.

    With ``start`` given, the search hill-climbs over the grid from the
    point nearest ``start`` and refines the first local maximum reached,
    instead of jumping to the globally best grid point. Objectives whose
    global maximum sits on a spurious re-increasing branch are thereby
    maximized locally around the seed.

    Raises
    ------
    NoFinitePointError
        If ``f`` is non-finite on the whole initialization grid.
    """
    tol = tol or DEFAULT_SCALAR_TOL
    a, b = bounds.lo, bounds.hi
    xs = a + (b - a) * np.arange(1, init_grid + 1) / (init_grid + 1.0)
    fs = np.array([f(x) for x in xs], dtype=float)
    fs[~np.isfinite(fs)] = -np.inf
    if not np.isfinite(fs).any():
        raise NoFinitePointError(
            f"objective is -inf on all {init_grid} initialization points")
    if start is None:
        k = int(np.argmax(fs))
    else:
        k = int(np.argmin(np.abs(xs - start)))
        if not np.isfinite(fs[k]):
            k = int(np.argmax(fs))
        moved = True
        while moved:
            moved = False
            for step in (-1, 1):
                j = k + step
                if 0 <= j < len(xs) and fs[j] > fs[k]:
                    k, moved = j, True
    lo = xs[k - 1] if k > 0 else a
    hi = xs[k + 1] if k < len(xs) - 1 else b
    x, fx, n_iter, converged = _brent_max(f, lo, hi, xs[k], fs[k],
                                          tol.x_tol, tol.max_iters)
    return OptimResult(argmax=x, value=fx, converged=converged,
                       iterations=n_iter + init_grid)


def _brent_max(f, a, b, x0, f0, xtol, max_iters):
    """Brent-style bounded maximization seeded at an interior point."""
    x = w = v = x0
    fx = fw = fv = f0
    d = e = 0.0
    for it in range(max_iters):
        m = 0.5 * (a + b)
        tol1 = 0.3 * xtol * (abs(x) + 1.0)
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return x, fx, it, True
        use_golden = True
        if abs(e) > tol1 and np.isfinite(fx) and np.isfinite(fw) and np.isfinite(fv):
            # successive parabolic interpolation through (v, w, x)
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d = p / q
                u = x + d
                if (u - a) < tol2 or (b - u) < tol2:
                    d = tol1 if m > x else -tol1
                use_golden = False
        if use_golden:
            e = (b - x) if x < m else (a - x)
            d = _CGOLD * e
        u = x + d if abs(d) >= tol1 else x + (tol1 if d > 0 else -tol1)
        fu = f(u)
        if not np.isfinite(fu):
            fu = -np.inf
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx, max_iters, False


def maximize_multivariate(f, x0, tol: Tolerances | None = None) -> OptimResult:
    """Maximize ``f`` from ``x0`` by simplex descent with quasi-Newton polish.

    The simplex stage is robust to the mild roughness of Monte Carlo
    objectives; the polish stage is skipped whenever a gradient stencil
    touches an infeasible (``-inf``) point.

    Raises
    ------
    NonFiniteStartError
        If ``f(x0)`` is not finite.
    """
    tol = tol or DEFAULT_MULTI_TOL
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    f0 = f(x0)
    if not np.isfinite(f0):
        raise NonFiniteStartError("objective not finite at the starting point")

    def neg(x):
        v = f(x)
        return -v if np.isfinite(v) else np.inf

    simplex = np.tile(x0, (x0.size + 1, 1))
    for j in range(x0.size):
        simplex[j + 1, j] += max(0.1, 0.1 * abs(x0[j]))
    res = minimize(neg, x0, method="Nelder-Mead",
                   options={"maxiter": tol.max_iters, "maxfev": 4 * tol.max_iters,
                            "xatol": max(tol.x_tol, 1e-7), "fatol": tol.f_tol,
                            "initial_simplex": simplex})
    x, val = np.asarray(res.x, dtype=float), -float(res.fun)
    n_iter = res.nit

    polished = _polish_quasi_newton(f, x, val, tol)
    if polished is not None:
        x, val, extra = polished
        n_iter += extra

    # converged means a small gradient at the returned point (scaled by the
    # objective's magnitude); where the gradient is incomputable the simplex
    # termination status decides
    try:
        gnorm = float(np.linalg.norm(numerical_gradient(f, x)))
        converged = gnorm <= tol.grad_tol * (1.0 + abs(val))
    except NonFiniteEvaluationError:
        converged = bool(res.success)
    return OptimResult(argmax=x, value=val, converged=converged,
                       iterations=n_iter)


def _polish_quasi_newton(f, x, val, tol):
    """BFGS refinement with numerical gradients; None if not applicable."""
    try:
        numerical_gradient(f, x)
    except NonFiniteEvaluationError:
        return None

    def neg(z):
        v = f(z)
        return -v if np.isfinite(v) else 1e300

    def neg_grad(z):
        return -numerical_gradient(f, z)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = minimize(neg, x, jac=neg_grad, method="BFGS",
                           options={"gtol": tol.grad_tol, "maxiter": 200})
    except NonFiniteEvaluationError:
        return None
    cand = np.asarray(res.x, dtype=float)
    fcand = f(cand)
    # accept the quasi-Newton point also on near-ties: it terminated on a
    # small gradient, which the simplex point cannot promise
    if np.isfinite(fcand) and fcand >= val - tol.f_tol * (1.0 + abs(val)):
        return cand, float(fcand), res.nit
    return None


def _steps(x, step_scale):
    return step_scale * np.maximum(1.0, np.abs(x))


def _vectorize_scalar(f, scalar):
    if not scalar:
        return f
    return lambda v: f(float(v[0]))


def numerical_gradient(f, x, step_scale: float = 1e-5) -> np.ndarray | float:
    """Central-difference gradient with per-coordinate relative steps."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    f = _vectorize_scalar(f, scalar)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    h = _steps(x, step_scale)
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j]
        fp, fm = f(x + e), f(x - e)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteEvaluationError(f"non-finite stencil in coordinate {j}")
        g[j] = (fp - fm) / (2.0 * h[j])
    return float(g[0]) if scalar else g


def numerical_hessian(f, x, step_scale: float = 1e-4) -> np.ndarray:
    """Central-difference Hessian, symmetrized as (H + H^T)/2.

    Uses a coarser default step than the gradient to keep subtractive
    cancellation under control on Monte Carlo objectives.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    f = _vectorize_scalar(f, scalar)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.size
    h = _steps(x, step_scale)
    fc = f(x)
    if not np.isfinite(fc):
        raise NonFiniteEvaluationError("non-finite value at the expansion point")
    H = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h[i]
        fp, fm = f(x + ei), f(x - ei)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteEvaluationError(f"non-finite stencil in coordinate {i}")
        H[i, i] = (fp - 2.0 * fc + fm) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h[j]
            fpp, fpm = f(x + ei + ej), f(x + ei - ej)
            fmp, fmm = f(x - ei + ej), f(x - ei - ej)
            if not np.all(np.isfinite([fpp, fpm, fmp, fmm])):
                raise NonFiniteEvaluationError(
                    f"non-finite stencil in coordinates ({i}, {j})")
            H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
    H = 0.5 * (H + H.T)
    return H[0, 0] * np.ones((1, 1)) if scalar and n == 1 else H


def find_root_scalar(g, bracket: ScalarBounds, tol: Tolerances | None = None) -> float:
    """Root of ``g`` inside a sign-changing bracket (bisection/secant hybrid)."""
    tol = tol or DEFAULT_SCALAR_TOL
    glo, ghi = g(bracket.lo), g(bracket.hi)
    if glo == 0.0:
        return bracket.lo
    if ghi == 0.0:
        return bracket.hi
    if glo * ghi > 0.0:
        raise NoSignChangeError(
            f"g({bracket.lo}) = {glo} and g({bracket.hi}) = {ghi} share a sign")
    return float(brentq(g, bracket.lo, bracket.hi, xtol=tol.x_tol,
                        maxiter=max(tol.max_iters, 100)))


def integrate_semi_infinite(f, tol: float = 1e-8) -> float:
    """Integrate a nonnegative, decaying ``f`` over [0, inf).

    The substitution y = t/(1-t) maps the half-line onto (0, 1), where an
    adaptive Gauss-Kronrod rule is applied.

    Raises
    ------
    NonConvergentQuadratureError
        If the estimated error exceeds the requested relative tolerance.
    """
    def transformed(t):
        t = min(t, 1.0 - 1e-16)
        y = t / (1.0 - t)
        return f(y) / (1.0 - t) ** 2

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, err = integrate.quad(transformed, 0.0, 1.0,
                                    epsabs=1e-300, epsrel=tol, limit=200)
    if not np.isfinite(value) or err > tol * max(abs(value), 1e-12):
        raise NonConvergentQuadratureError(
            f"estimated error {err} exceeds tolerance for value {value}")
    return float(value)
