"""Run one oat benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload oat_noisy_lt --seed 1 --seconds 10 --trace 0

A run sets up the workload's inputs from ``--seed`` at least three times, and
as often as fits in one second (``setup_s`` is the median), then runs
round(--seconds / round_seconds) whole rounds of the workload, at least one,
then checks the outputs of the last round. With ``--trace 1`` it runs one
round untraced, then installs the tracer, sets up once more and runs one round
traced, and reports per-layer metrics for that unit of work (one set-up plus
one round), with the tracing overhead against the untraced unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a record of the machine, the settings and every figure of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SETUPS_MIN, SETUPS_MAX, SETUP_SECONDS = 3, 25, 1.0
RESULTS = ("clean_acc", "robust_acc", "cw_robust_acc", "label_acc", "dataset_mb")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path.cwd()
START = time.perf_counter()


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def limit_threads(nproc: int) -> None:
    """One process, no evaluation pool, at most nproc BLAS threads."""
    os.environ.pop("OAT_THREADS", None)
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))


def _machine(nproc: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "platform": platform.platform(),
            "env": {v: os.environ.get(v) for v in THREAD_VARS + ("OAT_THREADS",)}}


def _run_setups(wl, seed: int, work: Path):
    """At least SETUPS_MIN set-ups, more while they fit in SETUP_SECONDS."""
    times, prints = [], []
    while len(times) < SETUPS_MIN or (sum(times) < SETUP_SECONDS and len(times) < SETUPS_MAX):
        t0 = time.perf_counter()
        inputs, fingerprint = wl.setup(seed, work)
        times.append(time.perf_counter() - t0)
        prints.append(fingerprint)
    return inputs, times, prints


def _run_rounds(wl, inputs, work: Path, count: int):
    rounds, totals = [], []
    for _ in range(count):
        if rounds:
            rounds[-1].out = None   # keep one round's outputs alive, as a user would
        t0 = time.perf_counter()
        rounds.append(wl.run_round(inputs, work))
        totals.append(time.perf_counter() - t0)
    return rounds, totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_file = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not (src / "oat" / "__init__.py").is_file() or not spec_file.is_file():
        _fail("run from the repository root: src/oat and BENCHMARK.json are needed")
    spec = json.loads(spec_file.read_text())
    nproc = len(os.sched_getaffinity(0))
    limit_threads(nproc)
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    import oat
    if Path(oat.__file__).resolve().parent != (src / "oat").resolve():
        _fail(f"imported oat from {oat.__file__}, not from {src}")
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=wl.name + "-", dir=scratch))
    # a traced run measures one untraced unit (set-up plus round), then one traced
    count = 1 if args.trace else max(1, round(args.seconds / wl.round_seconds))
    try:
        inputs, setup_times, setup_prints = _run_setups(wl, args.seed, work)
        rounds, totals = _run_rounds(wl, inputs, work, count)
        # read before the checks, whose own arrays are not the workload's
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        outcome = wl.check(inputs, rounds[-1])
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                t0 = time.perf_counter()
                traced_inputs, traced_print = wl.setup(args.seed, work)
                traced_setup = time.perf_counter() - t0
                traced, traced_totals = _run_rounds(wl, traced_inputs, work, 1)
            finally:
                tracer.uninstall()
            setup_prints.append(traced_print)
            rounds += traced
            layers = tracing.per_layer(tracer, traced_setup + traced_totals[0],
                                       statistics.median(setup_times) + totals[0])
        outcome.require(len(set(setup_prints)) == 1, "set-ups from one seed differ")
        outcome.require(len({r.fingerprint for r in rounds}) == 1,
                        "rounds on the same inputs produced different outputs")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    rows_per_s = statistics.median(r.rows / r.wall for r in rounds[:len(totals)])
    figures = {"setup_s": (statistics.median(setup_times), "s"),
               "rows_per_s": (rows_per_s, "rows/s"), wl.rows_name: (rows_per_s, "rows/s"),
               "peak_rss_mb": (rss_mb, "MB"), **outcome.figures}
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        figures.update({k: (v, units[k]) for k, v in layers.items()})
        # results a workload does not produce read 0 in the per-layer list
        figures = {**{name: (0.0, units[name]) for name in RESULTS}, **figures}
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    unknown = [m["name"] for m in wanted if m["name"] not in figures]
    if unknown:
        _fail(f"BENCHMARK.json names metrics this benchmark does not measure: {unknown}")
    metrics = {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]} for m in wanted}

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(nproc), "setups": len(setup_times),
              "rounds": len(rounds), "round_walls": [r.wall for r in rounds],
              "setup_walls": setup_times, "attempted": attempted, "failed": failed,
              "cpu_s": usage.ru_utime + usage.ru_stime, "wall_s": time.perf_counter() - START,
              "problems": outcome.problems,
              "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not outcome.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
