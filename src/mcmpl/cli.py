"""Command-line front end: fit datasets, run experiments, emit trace grids.

Exit codes: 0 success, 1 usage or input error, 2 converged with warnings
(results are still written).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import ar1, core, harness, io, optim, weibull
from .core import MonteCarloConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmpl",
        description="Monte Carlo modified profile likelihood for clustered data")
    sub = parser.add_subparsers(dest="command", required=True)

    fit_p = sub.add_parser("fit", help="fit one dataset file")
    fit_p.add_argument("--model", required=True,
                       choices=("binary", "weibull", "ar1"))
    fit_p.add_argument("--link", default="logit", choices=("logit", "probit"))
    fit_p.add_argument("--mechanism", default="mcar", choices=("mcar", "mnar"))
    fit_p.add_argument("--method", default="mcmpl",
                       choices=("profile", "mpl-exact", "mcmpl"))
    fit_p.add_argument("--data", required=True)
    fit_p.add_argument("--replicates", type=int, default=500)
    fit_p.add_argument("--seed", type=int, default=core.DEFAULT_SEED)
    fit_p.add_argument("--level", type=float, default=0.95)
    fit_p.add_argument("--out", required=True)

    sim_p = sub.add_parser("simulate", help="run an experiment from a config file")
    sim_p.add_argument("--config", required=True)
    sim_p.add_argument("--out", required=True)
    sim_p.add_argument("--threads", type=int, default=None)

    trace_p = sub.add_parser("trace", help="profile/MCMPL grids for plotting")
    trace_p.add_argument("--model", choices=("binary", "weibull", "ar1"))
    trace_p.add_argument("--data")
    trace_p.add_argument("--config")
    trace_p.add_argument("--link", default="logit", choices=("logit", "probit"))
    trace_p.add_argument("--mechanism", default="mcar", choices=("mcar", "mnar"))
    trace_p.add_argument("--param", required=True)
    trace_p.add_argument("--grid", required=True, metavar="LO:HI:STEP")
    trace_p.add_argument("--replicates", type=int, default=500)
    trace_p.add_argument("--seed", type=int, default=core.DEFAULT_SEED)
    trace_p.add_argument("--out", required=True)
    return parser


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handler = {"fit": cmd_fit, "simulate": cmd_simulate, "trace": cmd_trace}
    return handler[args.command](args)


def cmd_fit(args) -> int:
    if not 0.0 < args.level < 1.0:
        return _fail(f"--level {args.level} must lie inside (0, 1)")
    model = harness.make_model(args.model, args.link, args.mechanism)
    if args.method == "mpl-exact" and not model.has_exact_expectation():
        return _fail("mpl-exact has a closed form for the MCAR binary model only; "
                     "use mcmpl")
    try:
        data = io.read_dataset(args.data, args.model)
    except (io.DataFileError, OSError) as exc:
        return _fail(str(exc))
    extra_rows = []
    try:
        mc = MonteCarloConfig(replicates=args.replicates, master_seed=args.seed)
        if args.model == "ar1":
            fit = ar1.fit_bounded(data, mc, method=args.method)
        else:
            fit = core.fit(model, data, args.method, mc)
            if args.model == "weibull":
                for j in range(data.n_covariates):
                    rr, se = weibull.relative_risk_with_se(fit, j)
                    extra_rows.append((f"rr{j + 1}", rr, se))
    except (core.NoInformativeClustersError, optim.NoFinitePointError,
            ValueError) as exc:
        return _fail(str(exc))
    io.write_fit_results(args.out, fit, args.level, args.seed, args.replicates,
                         extra_rows=extra_rows)
    flagged = not fit.converged or bool(fit.warnings)
    return 2 if flagged else 0


def _thread_count(requested) -> int:
    if requested is not None:
        return max(1, requested)
    env = os.environ.get("MCMPL_THREADS", "")
    return max(1, int(env)) if env.isdigit() else 1


def cmd_simulate(args) -> int:
    try:
        spec = io.read_config(args.config)
    except (io.ConfigError, OSError) as exc:
        return _fail(str(exc))
    try:
        result = harness.run_experiment(spec, threads=_thread_count(args.threads))
    except harness.InsufficientTrialsError as exc:
        return _fail(str(exc))
    io.write_metrics(args.out, spec, result.rows)
    return 0


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be LO:HI:STEP")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0 or lo >= hi:
        raise ValueError("grid needs step > 0 and lo < hi")
    grid = np.arange(lo, hi + 0.5 * step, step)
    if grid.size == 0:
        raise ValueError("empty grid")
    return grid


def cmd_trace(args) -> int:
    try:
        grid = _parse_grid(args.grid)
    except ValueError as exc:
        return _fail(str(exc))
    if bool(args.data) == bool(args.config):
        return _fail("provide exactly one of --data or --config")
    try:
        if args.config:
            spec = io.read_config(args.config)
            model_kind = spec.model
            data, _ = harness.generate_dataset(spec, core.substream(spec.seed, 0, 0))
            link, mechanism = spec.link, spec.mechanism
            replicates, seed = spec.replicates, spec.seed
        else:
            if not args.model:
                return _fail("--model is required with --data")
            model_kind = args.model
            data = io.read_dataset(args.data, model_kind)
            link, mechanism = args.link, args.mechanism
            replicates, seed = args.replicates, args.seed
    except (io.DataFileError, io.ConfigError, OSError) as exc:
        return _fail(str(exc))
    try:
        mc = MonteCarloConfig(replicates=replicates, master_seed=seed)
        if model_kind == "ar1":
            if args.param != "rho":
                return _fail("AR(1) traces support --param rho")
            grid_lp, grid_lm = _ar1_trace(data, mc, grid)
        else:
            model = harness.make_model(model_kind, link, mechanism)
            grid_lp, grid_lm = _generic_trace(model, data, mc, args.param, grid)
    except (core.NoInformativeClustersError, optim.NoFinitePointError,
            ValueError) as exc:
        return _fail(str(exc))
    io.write_trace(args.out, grid, _relative(grid_lp), _relative(grid_lm))
    return 0


def _relative(values):
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        return values
    return values - values[finite].max()


def _ar1_trace(data, mc, grid):
    model = ar1.AR1PanelModel()
    rho_ml, sigma2_ml, lam_ml = ar1.ols_fit(data)
    psi_mle = np.array([rho_ml, max(sigma2_ml, ar1.SIGMA2_FLOOR)])
    bank = model.build_replicates(psi_mle, lam_ml, data, mc.generator(0),
                                  mc.replicates)
    fit_at_mle = (psi_mle, lam_ml)
    lp, lm = [], []
    for rho in grid:
        s2_p = max(ar1.constrained_sigma2(rho, data, "NT"), ar1.SIGMA2_FLOOR)
        lp.append(core.profile_loglik(model, data, np.array([rho, s2_p])))
        s2_m = max(ar1.constrained_sigma2(rho, data, "N(T-1)"), ar1.SIGMA2_FLOOR)
        lm.append(core.modified_profile_loglik(model, data, fit_at_mle,
                                               np.array([rho, s2_m]), bank))
    return lp, lm


def _generic_trace(model, data, mc, param, grid):
    """Curves in one interest component, maximizing over the others."""
    kept, _ = core.drop_noninformative(model, data)
    if kept.n_clusters == 0:
        raise core.NoInformativeClustersError("no informative clusters")
    names = model.param_names(kept)
    if param not in names:
        raise ValueError(f"unknown parameter {param!r}; choices: {', '.join(names)}")
    k = names.index(param)
    prof_fit = core.fit(model, kept, "profile", mc)
    psi_mle = prof_fit.psi_hat
    lam_mle = model.constrained_nuisance(psi_mle, kept)
    bank = model.build_replicates(psi_mle, lam_mle, kept, mc.generator(0),
                                  mc.replicates)
    fit_at_mle = (psi_mle, lam_mle)
    free = [j for j in range(len(names)) if j != k]

    def embed(value, rest):
        psi = np.empty(len(names))
        psi[k] = value
        psi[free] = rest
        return psi

    def maximize_rest(objective, value, start_rest):
        if not free:
            return objective(embed(value, np.empty(0))), np.empty(0)
        res = optim.maximize_multivariate(
            lambda rest: objective(embed(value, rest)), start_rest,
            optim.Tolerances(max_iters=500))
        return res.value, np.asarray(res.argmax, dtype=float)

    lp_curve, lm_curve = [], []
    rest_p = psi_mle[free].copy()
    rest_m = psi_mle[free].copy()
    for value in grid:
        def lp(psi):
            return core.profile_loglik(model, kept, psi)

        def lm(psi):
            return core.modified_profile_loglik(model, kept, fit_at_mle, psi, bank)

        try:
            val_p, rest_p = maximize_rest(lp, value, rest_p)
        except optim.NonFiniteStartError:
            val_p = lp(embed(value, rest_p))
        lp_curve.append(val_p)
        try:
            val_m, rest_m = maximize_rest(lm, value, rest_m)
        except optim.NonFiniteStartError:
            val_m = lm(embed(value, rest_m))
        lm_curve.append(val_m)
    return lp_curve, lm_curve


if __name__ == "__main__":
    sys.exit(main())
