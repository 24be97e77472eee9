"""Dataset corruption: label noise, exponential imbalance, and diagnostics.

Flip counts are exact (round(nr*|S|) samples, not per-sample Bernoulli) so
realized noise ratios are assertable without tolerance. The imbalance profile
indexes classes by descending observed count and keeps at least one sample
per class; when ground truth is available it also force-retains one correctly
labeled sample per class whenever the class still has one. Every operation is
a pure function of (inputs, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import LabeledDataset, require
from .rng import SplitMix64


@dataclass(frozen=True)
class CorruptionSpec:
    noise_type: str              # "symmetric" | "asymmetric" | "none"
    target_nr: float
    target_ir: float
    asym_pairs: tuple[tuple[int, int], ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.noise_type not in ("symmetric", "asymmetric", "none"):
            raise ValueError(f"unknown noise_type {self.noise_type!r}")
        require(self, "corruption", ("target_nr",), lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
        require(self, "corruption", ("target_ir",), lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
        if self.noise_type == "asymmetric" and not self.asym_pairs:
            raise ValueError("asymmetric noise requires asym_pairs")
        if self.noise_type != "asymmetric" and self.asym_pairs:
            raise ValueError("asym_pairs only valid for asymmetric noise")
        if self.noise_type == "none" and self.target_nr > 0:
            raise ValueError(f"target_nr {self.target_nr} needs a noise type, got 'none'")
        for src, dst in self.asym_pairs:
            if src == dst:
                raise ValueError(f"asym pair {src}->{dst} maps a class to itself")
        _check_distinct_sources(self.asym_pairs)


@dataclass(frozen=True)
class ClassCounts:
    """Per-class sample counts; smoothed entries are >= 1 so the log prior is
    always defined."""
    counts: tuple[int, ...]

    @staticmethod
    def of(labels: np.ndarray, num_classes: int) -> "ClassCounts":
        return ClassCounts(tuple(int(c) for c in np.bincount(labels, minlength=num_classes)))

    @property
    def smoothed(self) -> np.ndarray:
        return np.maximum(np.asarray(self.counts, dtype=np.float64), 1.0)


def class_counts(ds: LabeledDataset) -> ClassCounts:
    """Counts of the observed labels."""
    return ClassCounts.of(ds.observed_labels, ds.num_classes)


def compute_nr(ds: LabeledDataset) -> float:
    """Fraction of samples whose observed label differs from ground truth."""
    if ds.gt_labels is None:
        raise ValueError("compute_nr requires gt_labels")
    return float(np.mean(ds.observed_labels != ds.gt_labels))


def compute_ir(counts: ClassCounts) -> float:
    """min(N_i) / max(N_i) over class counts."""
    arr = np.asarray(counts.counts)
    if arr.max() <= 0:
        raise ValueError("compute_ir: all class counts are zero")
    return float(arr.min() / arr.max())


def _round_half_up(x: float) -> int:
    # repo convention for the imbalance profile: round half away from zero
    return int(math.floor(x + 0.5))


def apply_symmetric_noise(ds: LabeledDataset, nr: float, seed: int) -> LabeledDataset:
    """Relabel exactly round(nr*|S|) samples uniformly to a non-gt class."""
    if not 0.0 <= nr < 1.0:
        raise ValueError("nr must lie in [0, 1)")
    if ds.gt_labels is None:
        raise ValueError("symmetric noise requires gt_labels")
    if nr > 0 and ds.num_classes < 2:
        raise ValueError("symmetric noise needs at least 2 classes")
    n_flip = _round_half_up(nr * len(ds))
    rng = SplitMix64(seed).fork("symmetric_noise")
    chosen = rng.sample(len(ds), n_flip)
    # uniform over [0, C) \ {gt}
    draws = np.asarray(rng.randints(np.full(n_flip, ds.num_classes - 1)), dtype=np.int64)
    observed = ds.observed_labels.copy()
    observed[chosen] = draws + (draws >= ds.gt_labels[chosen])
    return ds.with_observed(observed)


def _check_distinct_sources(pairs: tuple[tuple[int, int], ...]) -> None:
    # a second pair from one source would draw again from all of its rows,
    # so the first pair's flip count would no longer be exact
    sources = [src for src, _ in pairs]
    for src in sources:
        if sources.count(src) > 1:
            raise ValueError(f"asym pairs name source class {src} more than once")


def apply_asymmetric_noise(ds: LabeledDataset, nr: float,
                           pairs: tuple[tuple[int, int], ...], seed: int) -> LabeledDataset:
    """For each (src, dst) pair relabel round(nr*N_src) of src's samples to
    dst; each source class may appear in one pair only."""
    if not 0.0 <= nr < 1.0:
        raise ValueError("nr must lie in [0, 1)")
    if ds.gt_labels is None:
        raise ValueError("asymmetric noise requires gt_labels")
    if not pairs:
        raise ValueError("asymmetric noise requires at least one class pair")
    for src, dst in pairs:
        if not (0 <= src < ds.num_classes and 0 <= dst < ds.num_classes):
            raise ValueError(f"pair {src}->{dst} references class outside [0, {ds.num_classes})")
    _check_distinct_sources(pairs)
    rng = SplitMix64(seed).fork("asymmetric_noise")
    observed = ds.observed_labels.copy()
    for src, dst in pairs:
        members = np.flatnonzero(ds.gt_labels == src)
        n_flip = _round_half_up(nr * len(members))
        observed[members[rng.sample(len(members), n_flip)]] = dst
    return ds.with_observed(observed)


def exponential_targets(n_max: int, ir: float, num_classes: int) -> list[int]:
    """Per-rank retention targets K_i = round(N_max * ir^(i/(C-1))), clamped to >= 1."""
    if ir <= 0:
        raise ValueError("ir must be positive")
    if num_classes == 1:
        return [max(1, n_max)]
    return [max(1, _round_half_up(n_max * ir ** (i / (num_classes - 1))))
            for i in range(num_classes)]


def apply_exponential_imbalance(ds: LabeledDataset, ir: float, seed: int) -> LabeledDataset:
    """Subsample observed classes onto an exponential count profile.

    Classes are ranked by descending observed count (ties by class id). When
    gt labels exist, each class keeps at least one correctly labeled sample
    if it had one before subsampling.
    """
    if not 0.0 < ir <= 1.0:
        raise ValueError("ir must lie in (0, 1]")
    counts = np.bincount(ds.observed_labels, minlength=ds.num_classes)
    order = sorted(range(ds.num_classes), key=lambda c: (-counts[c], c))
    targets = exponential_targets(int(counts.max()), ir, ds.num_classes)

    rng = SplitMix64(seed).fork("exponential_imbalance")
    keep: list[np.ndarray] = []
    for rank, cls in enumerate(order):
        members = np.flatnonzero(ds.observed_labels == cls)
        want = min(targets[rank], len(members))
        picked = members[rng.sample(len(members), want)]
        if ds.gt_labels is not None and want:
            correct = members[ds.gt_labels[members] == ds.observed_labels[members]]
            if len(correct) and not np.any(ds.gt_labels[picked] == ds.observed_labels[picked]):
                picked = picked.copy()
                picked[-1] = correct[0]
        keep.append(picked)

    return ds.take(np.sort(np.concatenate([k for k in keep if len(k)]).astype(np.int64)))


def balanced_oversample(ds: LabeledDataset, seed: int = 0) -> LabeledDataset:
    """Pad every observed class to N_max by resampling its members with replacement.

    The output keeps the input rows first (in order) and appends duplicate
    rows per class; duplicates carry the id of the row they copy.
    """
    counts = np.bincount(ds.observed_labels, minlength=ds.num_classes)
    if np.any(counts == 0):
        empty = int(np.argmin(counts))
        raise ValueError(f"cannot oversample: class {empty} has no samples")
    n_max = int(counts.max())
    rng = SplitMix64(seed).fork("balanced_oversample")
    # class by class, n_max - N_c draws of randint(N_c), each picking one of
    # the class's members in row order
    need = n_max - counts
    members = np.argsort(ds.observed_labels, kind="stable")
    picks = np.asarray(rng.randints(np.repeat(counts, need)), dtype=np.int64)
    extra = members[np.repeat(np.cumsum(counts) - counts, need) + picks]
    return ds.take(np.concatenate([np.arange(len(ds)), extra]))


def corrupt(ds: LabeledDataset, spec: CorruptionSpec) -> tuple[LabeledDataset, dict]:
    """Noise first, then imbalance on the noisy labels; returns (dataset, provenance)."""
    noisy = ds
    if spec.noise_type == "symmetric":
        noisy = apply_symmetric_noise(ds, spec.target_nr, spec.seed)
    elif spec.noise_type == "asymmetric":
        noisy = apply_asymmetric_noise(ds, spec.target_nr, spec.asym_pairs, spec.seed)
    realized_nr = compute_nr(noisy) if noisy.gt_labels is not None else None

    out = noisy
    if spec.target_ir < 1.0:
        out = apply_exponential_imbalance(noisy, spec.target_ir, spec.seed + 1)

    provenance = {
        "noise_type": spec.noise_type,
        "target_nr": spec.target_nr,
        "target_ir": spec.target_ir,
        "asym_pairs": [list(p) for p in spec.asym_pairs],
        "seed": spec.seed,
        "realized_nr": realized_nr,
        "realized_ir": compute_ir(class_counts(out)),
        "final_nr": compute_nr(out) if out.gt_labels is not None else None,
        "final_counts": list(class_counts(out).counts),
        "final_size": len(out),
    }
    return out, provenance
