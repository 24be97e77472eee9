"""The benchmark's workloads: inputs made from a seed, one timed round, checks.

Every call into the program goes through a module attribute
(``trainer.train``, ``dataio.load_idx``, ...) so that a traced run, which
patches those attributes, sees it.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from oat import adversary, corruption, dataio, evalcli, models, oracle, trainer
from oat.adversary import AttackSpec
from oat.corruption import CorruptionSpec
from oat.dataio import SyntheticSpec
from oat.oracle import AugmentationPolicy, KnnIndex
from oat.trainer import TrainConfig

import checks


# Each workload's ``round_seconds`` is the wall time of one round on the machine
# the benchmark was written on. A run does round(--seconds / round_seconds)
# rounds, at least one, so it lasts about --seconds there and every run of a
# workload does the same operations, however fast the machine is at the time.


@dataclass
class Round:
    """One timed round: its wall time, the rows it processed, its operations."""
    wall: float
    rows: float
    attempted: int
    failed: int
    fingerprint: str      # equal on every round of a run: the program is deterministic
    out: object = None    # what the checks look at (kept for the last round only)


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    figures: dict[str, tuple[float, str]] = field(default_factory=dict)

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _seeds(workload: str, seed: int, n: int) -> list[int]:
    rnd = random.Random(f"{workload}:{seed}")
    return [rnd.randrange(2**31) for _ in range(n)]


def _check_attack(out: Outcome, model, x, y, spec: AttackSpec) -> None:
    adv = adversary.pgd_attack(model, x, y, spec)
    out.require(checks.in_linf_box(adv, x, spec.epsilon),
                f"{spec.name()} output leaves the eps-ball or the [0,1] box")


# ---------------------------------------------------------------------------
# oat_noisy_lt and pgd_at_noisy_lt: the acceptance task, one full run per round
# ---------------------------------------------------------------------------

def acceptance_config(method: str, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=60, batch_size=128, lr=0.005, momentum=0.9, weight_decay=5e-4,
        lr_decay_epochs=(30, 45), lr_decay_factor=0.1, theta_r=0.8, k=200,
        attack=AttackSpec(epsilon=0.15, alpha=0.0375, steps=10),
        method=method, seed=seed, encoder_widths=(64,), feature_dim=32,
        augment=AugmentationPolicy(flip_prob=0.0, jitter_amp=0.04,
                                   scale_amp=0.15, erase_frac=0.2),
        eval_steps=20)


class NoisyLT:
    """10 classes, 16-d clusters, symmetric NR 0.4 then IR 0.1, 400 test rows."""

    rows_name = "train_rows_per_s"

    def __init__(self, method: str):
        self.method = method
        self.name = f"{method}_noisy_lt"
        self.round_seconds = 48.0 if method == "oat" else 6.0

    def setup(self, seed: int, work: Path):
        s = _seeds(self.name, seed, 3)
        clean = dataio.gen_synthetic(SyntheticSpec(10, 16, 200, 0.10, s[0]))
        # the acceptance corruption seed picks the same rows whatever the
        # samples are, so every seed trains on 898 rows (2200 oversampled)
        # and the cost of a round does not hinge on a partial last batch
        ds, _ = corruption.corrupt(clean, CorruptionSpec("symmetric", 0.4, 0.1, seed=5))
        test = dataio.gen_synthetic(SyntheticSpec(10, 16, 40, 0.10, s[1]))
        config = acceptance_config(self.method, s[2])
        fp = _digest(ds.samples, ds.observed_labels, ds.gt_labels, test.samples)
        return (ds, test, config), fp

    def run_round(self, inp, work: Path) -> Round:
        ds, test, config = inp
        out_dir = work / "run"
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        state = trainer.train(config, ds, test, out_dir)
        wall = time.perf_counter() - t0
        fp = _digest((out_dir / "metrics.jsonl").read_bytes(),
                     (out_dir / "best" / "params.bin").read_bytes())
        return Round(wall, config.epochs * len(ds), 1, 0, fp, (state, out_dir))

    def check(self, inp, last: Round) -> Outcome:
        ds, test, config = inp
        state, out_dir = last.out
        out = Outcome()
        best = state.records[state.best_epoch]
        ca = best["clean_accuracy"]
        ra = best["robust_accuracy"][f"pgd{config.eval_steps}"]
        out.figures.update(clean_acc=(ca, "fraction"), robust_acc=(ra, "fraction"))
        out.require(ra <= ca, f"robust_acc {ra} exceeds clean_acc {ca}")
        hand = checks.mlp_accuracy(out_dir / "best", test.samples, test.gt_labels)
        out.require(hand == ca, f"numpy forward of best/params.bin gives {hand}, record says {ca}")
        _check_attack(out, models.load_model(out_dir / "best"), test.samples[:128],
                      test.gt_labels[:128], config.attack)
        if self.method == "oat":
            self._check_oracle(state, ds, config, out)
        return out

    @staticmethod
    def _check_oracle(state, ds, config, out: Outcome) -> None:
        over = state.oversampled
        label_acc = float(np.mean(state.labels == over.gt_labels))
        observed_acc = float(np.mean(over.observed_labels == over.gt_labels))
        out.figures["label_acc"] = (label_acc, "fraction")
        out.require(label_acc > observed_acc,
                    f"label_acc {label_acc} does not beat the observed labels' {observed_acc}")

        gt_counts = np.bincount(ds.gt_labels, minlength=ds.num_classes)
        prior = np.bincount(ds.observed_labels, minlength=ds.num_classes)
        est_err = checks.total_variation(state.distribution.counts, gt_counts)
        prior_err = checks.total_variation(prior, gt_counts)
        out.require(est_err < prior_err,
                    f"estimated distribution TV {est_err} not below the prior's {prior_err}")

        feats = oracle.embed(state.oracle, over.samples)
        k = max(1, min(config.k, len(over) // 10, len(over) - 1))
        split = oracle.knn_split(KnnIndex(points=feats, k=k), feats, state.labels, k)
        majority = checks.knn_majority(feats, state.labels, k, over.num_classes)
        out.require(np.array_equal(split.clean_idx, np.flatnonzero(majority == state.labels)),
                    f"knn_split disagrees with brute force (n={len(over)}, k={k})")


# ---------------------------------------------------------------------------
# eval_wide: PGD-100 and CW-100 over 2000 rows of 128-d data
# ---------------------------------------------------------------------------

EVAL_EPS = 8 / 255
EVAL_ATTACKS = [AttackSpec(epsilon=EVAL_EPS, alpha=EVAL_EPS / 4, steps=100),
                AttackSpec(epsilon=EVAL_EPS, alpha=EVAL_EPS / 4, steps=100,
                           loss_kind="cw_margin")]


class EvalWide:
    """A PGD-AT checkpoint trained during set-up, then attacked by evalcli."""

    name = "eval_wide"
    rows_name = "attack_rows_per_s"
    round_seconds = 2.9

    def setup(self, seed: int, work: Path):
        s = _seeds(self.name, seed, 5)
        train_ds = dataio.gen_synthetic(SyntheticSpec(10, 128, 100, 0.10, s[0]))
        val = dataio.gen_synthetic(SyntheticSpec(10, 128, 40, 0.10, s[1]))
        test = dataio.gen_synthetic(SyntheticSpec(10, 128, 200, 0.10, s[2]))
        # batch 32 at lr 0.003: at the acceptance batch and rate a 128-d model
        # either stays at chance or diverges within 10 epochs
        config = TrainConfig(
            epochs=10, batch_size=32, lr=0.003, momentum=0.9, weight_decay=5e-4,
            lr_decay_epochs=(), attack=AttackSpec(epsilon=EVAL_EPS, alpha=EVAL_EPS / 4, steps=10),
            method="pgd_at", seed=s[3], encoder_widths=(64,), feature_dim=32, eval_steps=20)
        run_dir = work / "checkpoint"
        shutil.rmtree(run_dir, ignore_errors=True)
        trainer.train(config, train_ds, val, run_dir)
        model = models.load_model(run_dir / "best")
        fp = _digest(test.samples, (run_dir / "best" / "params.bin").read_bytes())
        return (model, test, run_dir / "best", s[4]), fp

    def run_round(self, inp, work: Path) -> Round:
        model, test, _, attack_seed = inp
        t0 = time.perf_counter()
        record = evalcli.evaluate(model, test, EVAL_ATTACKS, seed=attack_seed)
        wall = time.perf_counter() - t0
        fp = json.dumps(record.to_dict(), sort_keys=True)
        return Round(wall, len(test) * len(EVAL_ATTACKS), 1, 0, fp, record)

    def check(self, inp, last: Round) -> Outcome:
        model, test, ckpt, _ = inp
        record = last.out
        out = Outcome()
        ca = record.clean_accuracy
        out.figures["clean_acc"] = (ca, "fraction")
        out.figures["robust_acc"] = (record.robust_accuracy["pgd100"], "fraction")
        out.figures["cw_robust_acc"] = (record.robust_accuracy["cw100"], "fraction")
        for name, ra in record.robust_accuracy.items():
            out.require(ra <= ca, f"{name} robust accuracy {ra} exceeds clean {ca}")
        hand = checks.mlp_accuracy(ckpt, test.samples, test.gt_labels)
        out.require(hand == ca, f"numpy forward of params.bin gives {hand}, evaluate says {ca}")
        for spec in EVAL_ATTACKS:
            _check_attack(out, model, test.samples[:128], test.gt_labels[:128], spec)
        return out


# ---------------------------------------------------------------------------
# dataset_io: IDX pair -> corrupt -> CSV directory -> reload -> oversample
# ---------------------------------------------------------------------------

IO_ROWS, IO_SIDE, IO_CLASSES = 5000, 28, 10
IO_SPEC = CorruptionSpec("asymmetric", 0.3, 0.1,
                         asym_pairs=((7, 1), (2, 7), (5, 6), (6, 5), (3, 8)), seed=0)
TRUNCATED_ROWS = 3


class DatasetIO:
    """5000 28x28 images with uniform random pixels and balanced labels."""

    name = "dataset_io"
    rows_name = "io_rows_per_s"
    round_seconds = 6.5

    def setup(self, seed: int, work: Path):
        s = _seeds(self.name, seed, 2)
        rng = np.random.default_rng(s[0])
        pixels = rng.integers(0, 256, size=(IO_ROWS, IO_SIDE * IO_SIDE), dtype=np.uint8)
        labels = rng.permutation(np.repeat(np.arange(IO_CLASSES, dtype=np.uint8),
                                           IO_ROWS // IO_CLASSES))
        idx = work / "idx"
        idx.mkdir(parents=True, exist_ok=True)
        images, label_file = idx / "images.idx", idx / "labels.idx"
        images.write_bytes(struct.pack(">IIII", 0x803, IO_ROWS, IO_SIDE, IO_SIDE)
                           + pixels.tobytes())
        label_file.write_bytes(struct.pack(">II", 0x801, IO_ROWS) + labels.tobytes())
        return (images, label_file, pixels, labels, s[1]), _digest(pixels, labels)

    def run_round(self, inp, work: Path) -> Round:
        images, label_file, _, _, seed = inp
        saved, cut = work / "dataset", work / "truncated"
        for d in (saved, cut):
            shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        source = dataio.load_idx(images, label_file)
        noisy, provenance = corruption.corrupt(source, IO_SPEC)
        dataio.save_dataset(noisy, saved)
        back = dataio.load_dataset(saved)
        over = corruption.balanced_oversample(back, seed=seed)
        wall = time.perf_counter() - t0
        # the known fault: a directory whose CSVs lost their last rows must
        # not load; until load_dataset rejects it, this operation fails
        checks.truncated_copy(saved, cut, TRUNCATED_ROWS)
        try:
            dataio.load_dataset(cut)
            failed = 1
        except ValueError:
            failed = 0
        fp = _digest(over.samples, over.observed_labels, over.gt_labels, over.ids,
                     json.dumps(provenance, sort_keys=True).encode())
        return Round(wall, len(source), 6, failed, fp,
                     (source, noisy, provenance, back, over, checks.dir_bytes(saved)))

    def check(self, inp, last: Round) -> Outcome:
        _, _, pixels, labels, _ = inp
        source, noisy, provenance, back, over, nbytes = last.out
        out = Outcome()
        out.figures["dataset_mb"] = (nbytes / 1e6, "MB")
        out.require(np.array_equal(source.samples, pixels / 255.0)
                    and np.array_equal(source.observed_labels, labels),
                    "load_idx does not return pixels/255 and the written labels")

        gt_counts = np.bincount(labels, minlength=IO_CLASSES).tolist()
        flips = checks.asymmetric_flips(gt_counts, IO_SPEC.target_nr, IO_SPEC.asym_pairs)
        flipped = corruption.apply_asymmetric_noise(source, IO_SPEC.target_nr,
                                                    IO_SPEC.asym_pairs, IO_SPEC.seed)
        for (src, dst), want in flips.items():
            got = int(np.sum((flipped.gt_labels == src) & (flipped.observed_labels == dst)))
            out.require(got == want, f"pair {src}->{dst} flipped {got} rows, want {want}")
        out.require(provenance["realized_nr"] == sum(flips.values()) / len(source),
                    f"corrupt reports realized_nr {provenance['realized_nr']}")
        noisy_counts = list(gt_counts)
        for (src, dst), n in flips.items():
            noisy_counts[src] -= n
            noisy_counts[dst] += n
        want_counts = checks.imbalanced_counts(noisy_counts, IO_SPEC.target_ir)
        got_counts = np.bincount(noisy.observed_labels, minlength=IO_CLASSES).tolist()
        out.require(got_counts == want_counts,
                    f"class counts {got_counts}, closed form {want_counts}")

        out.require(back.num_classes == noisy.num_classes
                    and all(a.tobytes() == b.tobytes() for a, b in (
                        (back.samples, noisy.samples), (back.ids, noisy.ids),
                        (back.observed_labels, noisy.observed_labels),
                        (back.gt_labels, noisy.gt_labels))),
                    "the reloaded dataset differs from the saved one")

        counts = np.bincount(over.observed_labels, minlength=IO_CLASSES)
        out.require(bool(np.all(counts == counts.max())) and counts.max() == max(want_counts),
                    f"oversampled class counts {counts.tolist()}")
        n = len(back)
        row_of = {int(i): r for r, i in enumerate(back.ids)}
        src_rows = np.array([row_of.get(int(i), -1) for i in over.ids[n:]], dtype=np.int64)
        copies_ok = (np.array_equal(over.samples[:n], back.samples)
                     and np.all(src_rows >= 0)
                     and np.array_equal(over.samples[n:], back.samples[src_rows])
                     and np.array_equal(over.observed_labels[n:], back.observed_labels[src_rows])
                     and np.array_equal(over.gt_labels[n:], back.gt_labels[src_rows]))
        out.require(bool(copies_ok), "an appended row is not a copy of the row whose id it keeps")
        return out


WORKLOADS = {w.name: w for w in (NoisyLT("oat"), NoisyLT("pgd_at"), EvalWide(), DatasetIO())}
