"""Numerical routines shared by every model fitter.

Bounded scalar maximization (a grid climb whose bracket SciPy's bounded
Brent method refines), one quasi-Newton (BFGS) search for several
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
from scipy.optimize import minimize, minimize_scalar


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


#: x-tolerance of the bounded scalar search: SciPy's bounded Brent stops
#: once both ends of its bracket lie within 2(sqrt(eps)|x| + X_TOL/3) of
#: its best point x, eps the double-precision machine epsilon
X_TOL = 1e-8
#: near-tie margin of a BFGS result against its start, and of the binary
#: gamma2 wall probe
F_TOL = 1e-10
#: gradient tolerance of the BFGS search and of the convergence flag
GRAD_TOL = 1e-6
#: cap on the objective evaluations of the bounded Brent refinement (BFGS
#: stops at 200 iterations)
MAX_ITERS = 2000
#: interior grid points that seed the bounded scalar search
SCALAR_GRID = 64


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
    refines the first local maximum reached by SciPy's bounded Brent method
    (golden-section steps with parabolic acceleration) on the bracket
    between its grid neighbours; the grid point is returned where the
    refinement finds nothing higher. If ``f`` is ``-inf`` at the starting
    grid point, the whole grid is evaluated and the climb starts from its
    best point. Objectives whose global maximum sits on a spurious
    re-increasing branch are thereby maximized locally around the seed.
    Points where ``f`` is ``-inf`` are infeasible; they shrink the bracket
    but are never returned.

    Kept while ``perfbench/spans.py`` ``TARGETS`` traces it by name, until
    ROADMAP item 1 changes that list, even after no search of mcmpl uses it.

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
    res = minimize_scalar(_negated(f), bounds=(a, b), method="bounded",
                          options={"xatol": X_TOL, "maxiter": MAX_ITERS})
    x, fx = float(res.x), -float(res.fun)
    if not fx > fs[k]:
        x, fx = float(xs[k]), float(fs[k])
    return OptimResult(argmax=x, value=fx, converged=bool(res.success),
                       iterations=res.nit + int(np.count_nonzero(~np.isnan(fs))))


def _negated(f):
    """``-f`` for SciPy's minimizers, 1e300 (above every finite value) where
    ``f`` is not finite."""
    def neg(x):
        v = f(x)
        return -v if np.isfinite(v) else 1e300
    return neg


def maximize_multivariate(f, x0, grad=None) -> OptimResult:
    """Maximize ``f`` from ``x0`` by one BFGS search.

    ``grad(x)``, when given, returns the gradient of ``f`` at ``x``, or None
    where it cannot form one; there, and everywhere without ``grad``, the
    search takes :func:`numerical_gradient` of ``f``, whose stencils turn
    one-sided at an infeasible wall. Infeasible (``-inf``) trial points
    rank below every finite value, and a gradient that cannot be computed
    there is NaN, so the line search backs off from them. The result is
    converged when the gradient BFGS computed there is small relative to
    the objective. ``f`` is evaluated once at ``x0``. A search that ends
    below ``f(x0)`` returns ``x0``, unconverged.

    Raises
    ------
    NonFiniteStartError
        If ``f(x0)`` is not finite.
    """
    x0 = np.array(x0, dtype=float, ndmin=1)
    f0 = f(x0)
    if not np.isfinite(f0):
        raise NonFiniteStartError("objective not finite at the starting point")

    def neg_grad(z):
        g = None if grad is None else grad(z)
        if g is None:
            try:
                g = numerical_gradient(f, z)
            except NonFiniteEvaluationError:
                return np.full(z.size, np.nan)
        return -g

    neg = _negated(f)

    def neg_f(z):
        # SciPy evaluates the start once more; its value is known
        return -f0 if z.tobytes() == x0.tobytes() else neg(z)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = minimize(neg_f, x0, jac=neg_grad, method="BFGS",
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


def check_scale(values, what: str) -> None:
    """Raise :class:`NumericalFailure` where the square of the sum of squares
    of ``values`` overflows: a fit linear in them meets that order in its
    squared gradient norms and in the squared Hessian step of a variance."""
    with np.errstate(over="ignore", invalid="ignore"):
        ss = np.square(values).sum()
        finite = np.isfinite(ss * ss)
    if not finite:
        raise NumericalFailure(f"{what} too large: the square of their sum of "
                               "squares overflows")


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
