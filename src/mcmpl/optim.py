"""Numerical routines shared by every model fitter.

Bounded scalar maximization, one quasi-Newton (BFGS) search for several
parameters, and central-difference derivatives. Every fit runs with the
one set of settings below.

Objectives signal infeasible regions by returning ``-inf``; the
optimizers treat such points as worse than any finite value and never
return them as a maximizer, and a gradient stencil that meets such a
wall on one side turns one-sided.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize


class NumericalFailure(ValueError):
    """Valid input whose data draw or fit broke down numerically.

    Every numerical error class of the package derives from this one; a
    study records the trial as failed and goes on.
    """


class NoFinitePointError(NumericalFailure):
    """Objective was -inf at every initialization point."""


class NonFiniteStartError(NumericalFailure):
    """Multivariate maximization started at a non-finite objective value."""


class NonFiniteEvaluationError(NumericalFailure):
    """A finite-difference stencil point evaluated to a non-finite value."""


#: x-tolerance of the bounded scalar search
X_TOL = 1e-8
#: near-tie margin of a BFGS result against its start, and of the binary
#: gamma2 wall probe
F_TOL = 1e-10
#: gradient tolerance of the BFGS search and of the convergence flag
GRAD_TOL = 1e-6
#: iteration cap of the bounded scalar search (BFGS stops at 200)
MAX_ITERS = 2000
#: interior grid points that seed the bounded scalar search
SCALAR_GRID = 64

#: fraction of the larger sub-interval used by a golden-section step
_CGOLD = 0.3819660112501051


@dataclass
class OptimResult:
    argmax: np.ndarray | float
    value: float
    converged: bool
    iterations: int


def maximize_scalar_bounded(f, lo: float, hi: float, start: float) -> OptimResult:
    """Maximize ``f`` on ``[lo, hi]`` near ``start``.

    The search hill-climbs over an equispaced interior grid from the point
    nearest ``start``, evaluating only the grid points it visits, and
    refines the first local maximum reached by a golden-section search with
    parabolic acceleration. If ``f`` is ``-inf`` at the starting grid point,
    the whole grid is evaluated and the climb starts from its best point.
    Objectives whose global maximum sits on a spurious re-increasing branch
    are thereby maximized locally around the seed. Points where ``f`` is
    ``-inf`` are infeasible; they shrink the bracket but are never returned.

    Raises
    ------
    NoFinitePointError
        If ``f`` is non-finite on the whole initialization grid.
    """
    xs = lo + (hi - lo) * np.arange(1, SCALAR_GRID + 1) / (SCALAR_GRID + 1.0)
    fs = np.full(SCALAR_GRID, np.nan)  # NaN marks a grid point not yet evaluated

    def at(j):
        if np.isnan(fs[j]):
            v = f(xs[j])
            fs[j] = v if np.isfinite(v) else -np.inf
        return fs[j]

    k = int(np.argmin(np.abs(xs - start)))
    if not np.isfinite(at(k)):
        for j in range(SCALAR_GRID):
            at(j)
        if not np.isfinite(fs).any():
            raise NoFinitePointError(
                f"objective is -inf on all {SCALAR_GRID} initialization points")
        k = int(np.argmax(fs))
    moved = True
    while moved:
        moved = False
        for step in (-1, 1):
            j = k + step
            if 0 <= j < SCALAR_GRID and at(j) > fs[k]:
                k, moved = j, True
    a = xs[k - 1] if k > 0 else lo
    b = xs[k + 1] if k < SCALAR_GRID - 1 else hi
    x, fx, n_iter, converged = _brent_max(f, a, b, xs[k], fs[k])
    return OptimResult(argmax=x, value=fx, converged=converged,
                       iterations=n_iter + int(np.count_nonzero(~np.isnan(fs))))


def _brent_max(f, a, b, x0, f0):
    """Brent-style bounded maximization seeded at an interior point."""
    x = w = v = x0
    fx = fw = fv = f0
    d = e = 0.0
    for it in range(MAX_ITERS):
        m = 0.5 * (a + b)
        tol1 = 0.3 * X_TOL * (abs(x) + 1.0)
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
    return x, fx, MAX_ITERS, False


def maximize_multivariate(f, x0, grad=None) -> OptimResult:
    """Maximize ``f`` from ``x0`` by one BFGS search.

    ``grad(x)``, when given, returns the gradient of ``f`` at ``x``, or None
    where it cannot form one; there, and everywhere without ``grad``, the
    search takes :func:`numerical_gradient` of ``f``, whose stencils turn
    one-sided at an infeasible wall. Infeasible (``-inf``) trial points
    rank below every finite value, and a gradient that cannot be computed
    there is NaN, so the line search backs off from them. The result is
    converged when the gradient BFGS computed there is small relative to
    the objective. A search that ends below ``f(x0)`` returns ``x0``,
    unconverged.

    Raises
    ------
    NonFiniteStartError
        If ``f(x0)`` is not finite.
    """
    x0 = np.array(x0, dtype=float, ndmin=1)
    f0 = f(x0)
    if not np.isfinite(f0):
        raise NonFiniteStartError("objective not finite at the starting point")

    def neg(z):
        v = f(z)
        return -v if np.isfinite(v) else 1e300

    def neg_grad(z):
        g = None if grad is None else grad(z)
        if g is None:
            try:
                g = numerical_gradient(f, z)
            except NonFiniteEvaluationError:
                return np.full(z.size, np.nan)
        return -g

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = minimize(neg, x0, jac=neg_grad, method="BFGS",
                       options={"gtol": GRAD_TOL, "maxiter": 200})
    value = -float(res.fun)
    # accept near-ties with ``f0``: the search ended on a small gradient,
    # which the point it started from cannot promise
    if not (res.fun < 1e300 and value >= f0 - F_TOL * (1.0 + abs(f0))):
        return OptimResult(argmax=x0, value=float(f0), converged=False,
                           iterations=res.nit)
    # res.jac is the gradient at res.x, the last one the search computed
    return OptimResult(argmax=np.asarray(res.x, dtype=float), value=value,
                       converged=_small_gradient(res.jac, value), iterations=res.nit)


def _small_gradient(grad, value) -> bool:
    """The convergence test: gradient norm scaled by the objective's size."""
    return float(np.linalg.norm(grad)) <= GRAD_TOL * (1.0 + abs(value))


def _steps(x, scale):
    return scale * np.maximum(1.0, np.abs(x))


def numerical_gradient(f, x) -> np.ndarray:
    """Central-difference gradient with per-coordinate relative steps 1e-5.

    A coordinate whose stencil is infeasible (non-finite) on exactly one
    side takes the one-sided difference against ``f(x)`` instead.

    Raises
    ------
    NonFiniteEvaluationError
        If both sides of a stencil, or ``f(x)`` itself, are non-finite.
    """
    x = np.asarray(x, dtype=float)
    h = _steps(x, 1e-5)
    g = np.empty_like(x)
    fx = None  # evaluated only at a wall
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h[j]
        fp, fm = f(x + e), f(x - e)
        if np.isfinite(fp) and np.isfinite(fm):
            g[j] = (fp - fm) / (2.0 * h[j])
            continue
        if fx is None:
            fx = f(x)
        if not (np.isfinite(fx) and (np.isfinite(fp) or np.isfinite(fm))):
            raise NonFiniteEvaluationError(f"non-finite stencil in coordinate {j}")
        g[j] = (fp - fx) / h[j] if np.isfinite(fp) else (fx - fm) / h[j]
    return g


def numerical_hessian(f, x) -> np.ndarray:
    """Central-difference Hessian, symmetrized as (H + H^T)/2.

    Uses a coarser relative step (1e-4) than the gradient to keep subtractive
    cancellation under control on Monte Carlo objectives.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    h = _steps(x, 1e-4)
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
    return 0.5 * (H + H.T)
