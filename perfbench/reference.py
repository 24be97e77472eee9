"""Reference figures: every workload over a range of seeds, plus the PGD floor.

From the repository root:

    python3 perfbench/reference.py --seeds 1-10
    python3 perfbench/reference.py --seeds 1-5 --workloads oat_noisy_lt --trace 1
    python3 perfbench/reference.py --floor-only

For each workload it runs ``perfbench/run.py`` once per seed, one run after
another, prints each run's result line, then each metric's median, quartiles
and spread (the distance between the quartiles as a share of the median), the
operations attempted and failed, and whether every run was correct. Then it
times one PGD step at the acceptance shapes (batch 128, a 16-64-32-10 MLP,
cross-entropy) through the engine and through a hand-written numpy forward and
input gradient, the floor the engine is measured against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def _seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: list[dict], bounds: dict) -> None:
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{workload}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"attempted={[r['attempted'] for r in results]}, failed shares={sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"  {name:28s} {med:14.6g} {unit:9s} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f}{flag}")


def pgd_floor(repeats: int = 7, steps: int = 50) -> None:
    """Engine PGD step against a hand-written numpy step at acceptance shapes."""
    from run import limit_threads
    limit_threads(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from oat.adversary import AttackSpec, pgd_attack
    from oat.models import AT_MODEL, ArchSpec, init_model
    from oat.rng import SplitMix64

    model = init_model(ArchSpec(16, (64,), 32, 10), AT_MODEL, seed=1)
    rng = SplitMix64(7).fork("floor")
    x = rng.uniform(128 * 16).reshape(128, 16)
    y = np.array([rng.randint(10) for _ in range(128)])
    spec = AttackSpec(epsilon=0.15, alpha=0.0375, steps=steps, random_start=False)
    (w0, b0), (w1, b1) = [(w.data, b.data) for w, b in model.encoder]
    wh, bh = model.head[0].data, model.head[1].data
    onehot = np.eye(10)[y]

    def numpy_pgd():
        adv = x.copy()
        for _ in range(steps):
            h = adv @ w0 + b0
            a = np.maximum(h, 0.0)
            z = (a @ w1 + b1) @ wh + bh
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            gz = (p - onehot) / len(y)
            gx = (((gz @ wh.T) @ w1.T) * (h > 0)) @ w0.T
            adv = np.clip(x + np.clip(adv + spec.alpha * np.sign(gx) - x,
                                      -spec.epsilon, spec.epsilon), 0.0, 1.0)
        return adv

    # alternate the two so that drift in the machine's speed hits both alike
    times = {"engine": [], "floor": []}
    for _ in range(repeats):
        for name, fn in (("engine", lambda: pgd_attack(model, x, y, spec)),
                         ("floor", numpy_pgd)):
            t0 = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t0)
    engine_us, floor_us = (statistics.median(times[n]) / steps * 1e6 for n in ("engine", "floor"))
    agree = float(np.mean(pgd_attack(model, x, y, spec) == numpy_pgd()))
    print(f"\nPGD step, batch 128, 16-64-32-10 MLP, median of {repeats} x {steps} steps:")
    print(f"  engine {engine_us:.1f} us   numpy floor {floor_us:.1f} us   "
          f"ratio {engine_us / floor_us:.2f}   outputs equal on {agree:.4f} of entries")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--floor-only", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    if not args.floor_only:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        bounds = {} if args.trace else {m["name"]: m["bound"] for m in spec["end_to_end"]}
        names = args.workloads.split(",") if args.workloads else \
            [w["name"] for w in spec["workloads"]]
        for workload in names:
            results = []
            for seed in _seed_range(args.seeds):
                results.append(_run(workload, seed, spec["run_seconds"], args.trace))
                print(workload, seed, json.dumps(results[-1]), flush=True)
            summarize(workload, results, bounds)
    pgd_floor()
    return 0


if __name__ == "__main__":
    sys.exit(main())
