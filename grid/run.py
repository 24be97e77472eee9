"""The first slice of the method comparison: three cells, five runs, three seeds.

From the repository root:

    python grid/run.py --tag f32

trains every (cell, run, seed) of the slice one after another and writes
``BENCH_grid_<tag>.json`` in the current directory. The quality figures are
deterministic and do not depend on the BLAS thread count, so two invocations
on one tree write the same figures; only ``wall_s`` and the machine block
differ. The committed tables were written with ``OPENBLAS_NUM_THREADS=1``.

Cells, each with 400 test rows:
  - ``acceptance``: 16-d clusters at spread 0.10, symmetric noise 0.4, then
    imbalance 0.1 (``corrupt``), as in the acceptance tests;
  - ``imbalance_first``: the same clean data, imbalance 0.1 first, then
    symmetric noise 0.4, so the tail's observed labels are mostly noise;
  - ``spread_0.25``: the acceptance corruption of clusters at spread 0.25,
    which no method saturates.

Runs: each entry of ``RUNS`` is its overrides of ``TrainConfig``'s defaults,
the acceptance config, as an ``oat train --config`` file holds them, and its
labels, ``observed`` or ``gt`` (hidden true). ``oat``; ``oat_no_adjust``
(logits adjustment off); ``pgd_at``; ``ceiling`` (``pgd_at`` on the true
labels); ``erm`` (``pgd_at`` at epsilon = alpha = 0, plain training). Every
figure but ``best_epoch`` and ``wall_s`` is ``evaluate`` of the run's best/ or
last/ checkpoint with PGD-20 at the acceptance epsilon and the run's seed, so
every run, ``erm`` included (its records attack at its own epsilon 0), is
scored by one estimator. For every other run these are its records' figures,
since a record is ``evaluate`` of its epoch's checkpoint at the run's seed.

Figures per run: ``best_epoch`` (the trainer's choice, the highest robust
accuracy on the test set), ``best_clean`` and ``best_robust`` at that epoch,
``last_clean`` and ``last_robust`` at the last epoch, and ``wall_s``, the
training wall time. Each figure also gets its median over the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from oat.corruption import (CorruptionSpec, apply_exponential_imbalance,  # noqa: E402
                            apply_symmetric_noise, corrupt)
from oat.dataio import SyntheticSpec, gen_synthetic  # noqa: E402
from oat.evaluation import evaluate  # noqa: E402
from oat.models import load_model  # noqa: E402
from oat.trainer import TrainConfig, train  # noqa: E402

SEEDS = (1, 2, 3)
EVAL_ATTACK = TrainConfig().eval_attack  # PGD-20 at epsilon 0.15
FIGURES = ("best_epoch", "best_clean", "best_robust", "last_clean", "last_robust", "wall_s")


def cells() -> dict:
    """Each cell's (training set, test set)."""
    def clusters(spread):
        return (gen_synthetic(SyntheticSpec(10, 16, 200, spread, seed=11)),
                gen_synthetic(SyntheticSpec(10, 16, 40, spread, seed=99)))

    noisy_lt = lambda clean: corrupt(clean, CorruptionSpec("symmetric", 0.4, 0.1, seed=5))[0]
    clean, test = clusters(0.10)
    spread, spread_test = clusters(0.25)
    lt_first = apply_exponential_imbalance(clean, 0.1, seed=5)
    return {"acceptance": (noisy_lt(clean), test),
            "imbalance_first": (apply_symmetric_noise(lt_first, 0.4, seed=5), test),
            "spread_0.25": (noisy_lt(spread), spread_test)}


RUNS = {
    "oat": ({}, "observed"),
    "oat_no_adjust": ({"adjustment_enabled": False}, "observed"),
    "pgd_at": ({"method": "pgd_at"}, "observed"),
    "ceiling": ({"method": "pgd_at"}, "gt"),
    "erm": ({"method": "pgd_at", "attack": {"epsilon": 0.0, "alpha": 0.0, "steps": 10}},
            "observed"),
}


def run_inputs(name: str, ds, seed: int):
    """Run ``name``'s (config, training set) at ``seed``, the config read as
    ``oat train --config`` reads its file."""
    overrides, labels = RUNS[name]
    config = TrainConfig.from_dict({**overrides, "seed": seed})
    return config, ds if labels == "observed" else ds.with_observed(ds.gt_labels)


def run_figures(cfg: TrainConfig, ds, test, out_dir: Path) -> dict:
    t0 = time.perf_counter()
    state = train(cfg, ds, test, out_dir)
    wall = time.perf_counter() - t0
    figures = {"best_epoch": state.best_epoch}
    for which in ("best", "last"):
        record = evaluate(load_model(out_dir / which), test, [EVAL_ATTACK], seed=cfg.seed)
        figures[f"{which}_clean"] = record.clean_accuracy
        figures[f"{which}_robust"] = record.robust_accuracy[EVAL_ATTACK.name()]
    figures["wall_s"] = round(wall, 2)
    return figures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="names the output BENCH_grid_<tag>.json")
    args = parser.parse_args()

    table: dict = {}
    with tempfile.TemporaryDirectory(prefix="oat-grid-") as work:
        for cell, (ds, test) in cells().items():
            for name in RUNS:
                per_seed = {}
                for seed in SEEDS:
                    cfg, train_ds = run_inputs(name, ds, seed)
                    per_seed[str(seed)] = run_figures(cfg, train_ds, test,
                                                      Path(work) / f"{cell}-{name}-{seed}")
                    print(json.dumps({"cell": cell, "run": name, "seed": seed,
                                      **per_seed[str(seed)]}), flush=True)
                median = {f: statistics.median(s[f] for s in per_seed.values())
                          for f in FIGURES}
                table.setdefault(cell, {})[name] = {"seeds": per_seed, "median": median}

    out = Path(f"BENCH_grid_{args.tag}.json")
    out.write_text(json.dumps({
        "tag": args.tag, "seeds": list(SEEDS), "figures": list(FIGURES),
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
                    "env": {v: os.environ.get(v) for v in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "cells": table}, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
