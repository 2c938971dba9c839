"""Run one benchmark workload of mcmpl and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload study-mcar --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: one BLAS/OpenMP thread: the workloads are single-process, so a run uses one
#: core of the two the reference figures were taken on
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKLOADS = ("study-mcar", "study-weibull", "study-ar1", "fit-mnar-cli")
#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="import mcmpl, build the inputs and exit (timed for setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _import_program():
    """Import mcmpl from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mcmpl" / "__init__.py").is_file():
        raise SystemExit(f"error: no mcmpl sources under {src}")
    sys.path.insert(0, str(src))
    import mcmpl
    if Path(mcmpl.__file__).resolve().parent != (src / "mcmpl").resolve():
        raise SystemExit(f"error: imported mcmpl from {mcmpl.__file__}, not {src}")
    import workloads
    return workloads


def _setup_seconds(args) -> float:
    """Median wall time of fresh processes that import mcmpl and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run_rounds(work, seconds):
    """Rounds 0, 1, 2, ... until ``seconds`` have passed (at least one)."""
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(work.run_round(len(rounds)))
    return rounds


def _untraced(work, args):
    rounds = _run_rounds(work, args.seconds)
    trials = sum(r.trials for r in rounds)
    ops = sum(r.attempted for r in rounds)
    wall = sum(r.wall for r in rounds)
    metrics = {
        "setup_s": (_setup_seconds(args), "s"),
        "s_per_trial": (statistics.median(r.wall / r.trials for r in rounds), "s"),
        # a CLI round is one fit, so this is the median fit time there
        "fit_s": (statistics.median(r.wall / r.attempted for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"# {len(rounds)} rounds, {trials} trials, {ops} operations, "
          f"{wall:.3f} s in rounds, mean {wall / trials:.4f} s/trial", flush=True)
    print("# round walls (s): " + " ".join(f"{r.wall:.3f}" for r in rounds), flush=True)
    return rounds, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _traced(work, args, spans):
    """Alternate untraced and traced passes over the same fixed rounds."""
    plain, traced = [], []
    recorder = spans.SpanRecorder()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append([work.run_round(k) for k in work.trace_rounds])
        recorder.install()
        try:
            traced.append([work.run_round(k) for k in work.trace_rounds])
        finally:
            recorder.uninstall()
    plain_wall = statistics.median(sum(r.wall for r in p) for p in plain)
    traced_wall = statistics.median(sum(r.wall for r in p) for p in traced)
    overhead = 100.0 * (traced_wall - plain_wall) / plain_wall
    units = sum(r.trials for p in traced for r in p)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    recorder.dump(path, workload=args.workload, seed=args.seed, units=units,
                  passes=len(traced))
    print(f"# {len(traced)} traced passes, {units} units, {len(recorder.spans)} spans "
          f"written to {path.relative_to(ROOT)}; tracing overhead {overhead:+.1f}% "
          f"({traced_wall:.3f} s traced vs {plain_wall:.3f} s untraced per pass)",
          flush=True)
    rounds = [r for p in plain + traced for r in p]
    return rounds, spans.layer_metrics(recorder.spans, units, overhead)


def main(argv=None) -> int:
    args = _parse(argv)
    workloads = _import_program()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        work = workloads.make(args.workload, args.seed, workdir)
        work.setup()
        if args.setup_only:
            return 0
        if args.trace:
            import spans
            rounds, metrics = _traced(work, args, spans)
        else:
            rounds, metrics = _untraced(work, args)
        checks = work.checks(rounds)
    for c in checks:
        print(f"# check {c.name}: {'ok' if c.ok else 'FAILED'} ({c.detail})")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": all(c.ok for c in checks),
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
