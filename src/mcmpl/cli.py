"""Command-line front end: fit datasets, run experiments, emit trace grids.

Exit codes: 0 success, 1 error, 2 converged with warnings (results are
still written). Every error reaches :func:`main` as a ValueError (a bad
option or input file, or an ``optim.NumericalFailure``) or an OSError (a
file that cannot be read or written), and main reports it as one
``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import binary, core, harness, io
from .core import MonteCarloConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmpl",
        description="Monte Carlo modified profile likelihood for clustered data")
    sub = parser.add_subparsers(dest="command", required=True)
    mechanisms = harness.FAMILIES["binary"].mechanisms

    fit_p = sub.add_parser("fit", help="fit one dataset file")
    fit_p.add_argument("--model", required=True, choices=tuple(harness.FAMILIES))
    fit_p.add_argument("--link", default="logit", choices=tuple(binary.LINKS))
    fit_p.add_argument("--mechanism", default="mcar", choices=mechanisms)
    fit_p.add_argument("--method", default="mcmpl", choices=core.FIT_METHODS)
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
    trace_p.add_argument("--model", choices=tuple(harness.FAMILIES))
    trace_p.add_argument("--data")
    trace_p.add_argument("--config")
    trace_p.add_argument("--link", default="logit", choices=tuple(binary.LINKS))
    trace_p.add_argument("--mechanism", default="mcar", choices=mechanisms)
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
    try:
        return handler[args.command](args)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


def cmd_fit(args) -> int:
    if not 0.0 < args.level < 1.0:
        return _fail(f"--level {args.level} must lie inside (0, 1)")
    family = harness.FAMILIES[args.model]
    model = family.model(args.link, args.mechanism)
    data = io.read_dataset(args.data, args.model)
    mc = MonteCarloConfig(replicates=args.replicates, master_seed=args.seed)
    fit = core.fit(model, data, args.method, mc)
    io.write_fit_results(args.out, fit, args.level, args.seed, args.replicates,
                         extra_rows=family.derived(fit))
    flagged = not fit.converged or bool(fit.warnings)
    return 2 if flagged else 0


def _thread_count(requested) -> int:
    """``--threads``, else ``MCMPL_THREADS``, else 1; ValueError unless a
    positive integer."""
    if requested is None:
        env = os.environ.get("MCMPL_THREADS", "")
        if not env:
            return 1
        if not (env.isdecimal() and int(env) >= 1):
            raise ValueError(f"MCMPL_THREADS={env!r} must be a positive integer")
        return int(env)
    if requested < 1:
        raise ValueError(f"--threads {requested} must be at least 1")
    return requested


def cmd_simulate(args) -> int:
    threads = _thread_count(args.threads)
    spec = io.read_config(args.config)
    result = harness.run_experiment(spec, threads=threads)
    io.write_metrics(args.out, spec, result.rows)
    return 0


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("grid must be LO:HI:STEP")
    lo, hi, step = (float(p) for p in parts)
    if not np.all(np.isfinite([lo, hi, step, hi - lo, hi + 0.5 * step])):
        raise ValueError(f"grid {text!r} leaves the floating-point range")
    if step <= 0 or lo >= hi:
        raise ValueError("grid needs step > 0 and lo < hi")
    if (hi - lo) / step > 1e6:
        raise ValueError(f"grid {text!r} has more than 10^6 points")
    grid = np.arange(lo, hi + 0.5 * step, step)
    if grid.size == 0:
        raise ValueError("empty grid")
    return grid


def cmd_trace(args) -> int:
    grid = _parse_grid(args.grid)
    if bool(args.data) == bool(args.config):
        return _fail("provide exactly one of --data or --config")
    if args.config:
        spec = io.read_config(args.config)
        kind, link, mechanism = spec.model, spec.link, spec.mechanism
        data, _ = harness.generate_dataset(spec, core.substream(spec.seed, 0, 0))
        mc = MonteCarloConfig(replicates=spec.replicates, master_seed=spec.seed)
    else:
        if not args.model:
            return _fail("--model is required with --data")
        kind, link, mechanism = args.model, args.link, args.mechanism
        data = io.read_dataset(args.data, kind)
        mc = MonteCarloConfig(replicates=args.replicates, master_seed=args.seed)
    model = harness.FAMILIES[kind].model(link, mechanism)
    grid_lp, grid_lm = core.trace_curves(model, data, mc, args.param, grid)
    io.write_trace(args.out, grid, _relative(grid_lp), _relative(grid_lm))
    return 0


def _relative(values):
    values = np.asarray(values, dtype=float)
    finite = np.isfinite(values)
    if not finite.any():
        return values
    return values - values[finite].max()


if __name__ == "__main__":
    sys.exit(main())
