"""Dataset loading, synthesis and persistence.

A dataset is a frozen bundle of float feature vectors in [0,1]^d, observed
class labels, optional hidden ground-truth labels (kept only for metrics),
and stable per-sample ids. Persistence uses a plain directory with
``meta.json`` + ``samples.csv`` + ``labels.csv`` so round trips are lossless
and diffable.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .rng import SplitMix64

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class LabeledDataset:
    samples: np.ndarray          # (n, d) float64 in [0, 1]
    observed_labels: np.ndarray  # (n,) int64 in [0, C)
    gt_labels: np.ndarray | None
    num_classes: int
    ids: np.ndarray              # (n,) int64, stable identifiers

    def __post_init__(self):
        n = len(self.samples)
        if len(self.observed_labels) != n or len(self.ids) != n:
            raise ValueError("samples, observed_labels and ids must have equal length")
        if self.gt_labels is not None and len(self.gt_labels) != n:
            raise ValueError("gt_labels length mismatch")
        for name, labels in (("observed", self.observed_labels), ("gt", self.gt_labels)):
            if labels is not None and len(labels) and (
                    labels.min() < 0 or labels.max() >= self.num_classes):
                raise ValueError(f"{name} labels outside [0, {self.num_classes})")
        # negated, so that a NaN minimum or maximum fails the test too
        if len(self.samples) and not (self.samples.min() >= 0.0 and self.samples.max() <= 1.0):
            raise ValueError("sample values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    def with_observed(self, labels: np.ndarray) -> "LabeledDataset":
        return replace(self, observed_labels=np.asarray(labels, dtype=np.int64))


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int
    dim: int
    per_class: int
    cluster_spread: float
    seed: int

    def __post_init__(self):
        if self.per_class < 1:
            raise ValueError("per_class must be >= 1")
        if self.cluster_spread <= 0:
            raise ValueError("cluster_spread must be positive")


def class_means(num_classes: int, dim: int) -> np.ndarray:
    """Cluster centers on a grid inside [0.2, 0.8]^d, pairwise distinct.

    Coordinate 0 spaces classes linearly (guarantees distinctness for any C);
    the remaining coordinates place each class on a binary corner of the box
    so separation grows with dim.
    """
    means = np.full((num_classes, dim), 0.2)
    if num_classes > 1:
        means[:, 0] = 0.2 + 0.6 * np.arange(num_classes) / (num_classes - 1)
    for c in range(num_classes):
        for j in range(1, dim):
            if (c >> (j - 1)) & 1:
                means[c, j] = 0.8
    return means


def gen_synthetic(spec: SyntheticSpec) -> LabeledDataset:
    """Isotropic Gaussian clusters, clipped to [0,1]^d, labels = cluster id."""
    rng = SplitMix64(spec.seed).fork("gen_synthetic")
    means = class_means(spec.num_classes, spec.dim)
    n = spec.num_classes * spec.per_class
    samples = rng.normal(n * spec.dim).reshape(n, spec.dim)
    labels = np.repeat(np.arange(spec.num_classes), spec.per_class)
    samples *= spec.cluster_spread
    samples += means[labels]
    np.clip(samples, 0.0, 1.0, out=samples)
    return LabeledDataset(
        samples=samples,
        observed_labels=labels.astype(np.int64),
        gt_labels=labels.astype(np.int64).copy(),
        num_classes=spec.num_classes,
        ids=np.arange(n, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# IDX (MNIST-style) loading
# ---------------------------------------------------------------------------

def _read_exact(f, count: int, what: str) -> bytes:
    buf = f.read(count)
    if len(buf) != count:
        raise ValueError(f"truncated IDX file while reading {what}")
    return buf


def load_idx(image_path: str | Path, label_path: str | Path) -> LabeledDataset:
    """Load an IDX image/label pair; pixels scaled to [0,1], labels trusted as gt."""
    with open(image_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">IIII", _read_exact(f, 16, "image header"))
        if magic != IDX_IMAGE_MAGIC:
            raise ValueError(f"bad image magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
        pixels = np.frombuffer(
            _read_exact(f, count * rows * cols, "pixel data"), dtype=np.uint8)
    with open(label_path, "rb") as f:
        magic, label_count = struct.unpack(">II", _read_exact(f, 8, "label header"))
        if magic != IDX_LABEL_MAGIC:
            raise ValueError(f"bad label magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
        labels = np.frombuffer(_read_exact(f, label_count, "label data"), dtype=np.uint8)
    if label_count != count:
        raise ValueError(f"image/label count mismatch: {count} images vs {label_count} labels")
    samples = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    observed = labels.astype(np.int64)
    num_classes = int(observed.max()) + 1 if count else 1
    return LabeledDataset(
        samples=samples,
        observed_labels=observed,
        gt_labels=observed.copy(),
        num_classes=num_classes,
        ids=np.arange(count, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# directory persistence
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 256


def _format_block(ids: np.ndarray, block: np.ndarray):
    """Yield the CSV lines ``id,repr(v0),...`` of a block of sample rows,
    each ending in CRLF.

    repr round-trips float64 exactly. Each distinct bit pattern in the block
    is formatted once; bit patterns, not values, keep -0.0 apart from 0.0.
    The inverse is reshaped because numpy versions differ in its shape.
    """
    block = np.ascontiguousarray(block, dtype=np.float64)
    bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
    table = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    for i, row in zip(ids.tolist(), table[inverse.reshape(block.shape)].tolist()):
        yield f"{i},{','.join(row)}\r\n"


@contextmanager
def replaced_together(path: Path, names: tuple[str, ...]):
    """Yield {name: temp path} for files in directory ``path``; rename every
    temp over its target only once the block completes. A block that raises
    leaves the previous files untouched, and no temp file is left behind."""
    temps = {name: path / f".{name}.{os.getpid()}.tmp" for name in names}
    try:
        yield temps
        for name, temp in temps.items():
            os.replace(temp, path / name)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def save_dataset(ds: LabeledDataset, path: str | Path) -> None:
    """Write samples.csv, labels.csv and meta.json; round trip is lossless.

    Every file is written to a temp file in ``path`` first and renamed over
    its target only after all three are complete, so a failed save leaves a
    previous dataset in ``path`` untouched.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": 1,
        "num_classes": ds.num_classes,
        "dim": ds.dim,
        "count": len(ds),
        "has_gt": ds.gt_labels is not None,
    }
    ids = np.asarray(ds.ids, dtype=np.int64)
    labels = {"id": ids, "observed_label": ds.observed_labels}
    if ds.gt_labels is not None:
        labels["gt_label"] = ds.gt_labels
    with replaced_together(path, ("samples.csv", "labels.csv", "meta.json")) as temps:
        with open(temps["samples.csv"], "w", newline="") as f:
            f.write(",".join(["id"] + [f"f{j}" for j in range(ds.dim)]) + "\r\n")
            for start in range(0, len(ds), _BLOCK_ROWS):
                stop = start + _BLOCK_ROWS
                f.writelines(_format_block(ids[start:stop], ds.samples[start:stop]))
        with open(temps["labels.csv"], "w", newline="") as f:
            f.write(",".join(labels) + "\r\n")
            rows = zip(*(np.asarray(c, dtype=np.int64).tolist() for c in labels.values()))
            f.writelines(",".join(map(str, row)) + "\r\n" for row in rows)
        temps["meta.json"].write_text(json.dumps(meta, indent=2) + "\n")


def _csv_rows(file: Path, count: int, width: int):
    """Yield (i, row) for the data rows of a CSV file under a header line.

    Lines may end in CRLF or LF. Raises ValueError unless there are exactly
    ``count`` rows of ``width`` fields each.
    """
    n = 0
    with open(file) as f:
        next(f, None)
        for n, line in enumerate(f, 1):
            if n > count:
                raise ValueError(f"{file.name} has more than the {count} rows meta.json declares")
            row = line.rstrip("\n").split(",")
            if len(row) != width:
                raise ValueError(f"{file.name} row {n} has {len(row)} fields, expected {width}")
            yield n - 1, row
    if n != count:
        raise ValueError(f"{file.name} has {n} rows, meta.json declares {count}")


# the most distinct field texts load_dataset remembers per call: 8-bit data has
# at most 256, and continuous data stops adding to the table once it is full
_TEXT_TABLE_LIMIT = 4096


def _read_meta(meta_file: Path) -> dict:
    """meta.json as a dict, with the keys load_dataset relies on checked."""
    meta = json.loads(meta_file.read_text())
    if not isinstance(meta, dict):
        raise ValueError(f"meta.json must hold a JSON object, not a {type(meta).__name__}")
    version = meta.get("version")
    if type(version) is not int or version != 1:
        raise ValueError(f"unsupported dataset version {version!r}")
    for key in ("count", "dim", "num_classes", "has_gt"):
        if key not in meta:
            raise ValueError(f"meta.json has no {key!r}")
    for key, least in (("count", 0), ("dim", 1), ("num_classes", 1)):
        if type(meta[key]) is not int or meta[key] < least:
            raise ValueError(f"meta.json {key!r} must be an integer >= {least}, "
                             f"got {meta[key]!r}")
    if type(meta["has_gt"]) is not bool:
        raise ValueError(f"meta.json 'has_gt' must be true or false, got {meta['has_gt']!r}")
    return meta


def load_dataset(path: str | Path) -> LabeledDataset:
    """Read a directory written by save_dataset.

    Each sample value is ``float()`` of its field text, and each distinct
    text is parsed once: a row whose texts have all been seen is converted
    by table lookups. A row with a new text is parsed field by field, as if
    there were no table, and its texts join the table until it holds
    ``_TEXT_TABLE_LIMIT`` entries. So 8-bit pixel data (at most 256 texts)
    is mostly looked up, and continuous data costs one parse per field.

    Raises ValueError when meta.json is not an object with ``version`` 1,
    integer ``count`` >= 0, ``dim`` >= 1 and ``num_classes`` >= 1 and a
    boolean ``has_gt``; when either CSV's row count differs from meta.json's,
    a row has the wrong number of fields, a field is not a number, or the
    ids of labels.csv differ from those of samples.csv.
    """
    path = Path(path)
    meta_file = path / "meta.json"
    if not meta_file.exists():
        raise FileNotFoundError(f"no meta.json under {path}")
    meta = _read_meta(meta_file)
    count, dim = meta["count"], meta["dim"]

    samples = np.zeros((count, dim))
    ids = np.zeros(count, dtype=np.int64)
    table: dict[str, float] = {}
    lookup = table.__getitem__
    for i, row in _csv_rows(path / "samples.csv", count, dim + 1):
        ids[i] = int(row[0])
        fields = row[1:]
        try:
            samples[i] = np.fromiter(map(lookup, fields), np.float64, dim)
        except KeyError:
            samples[i] = np.fromiter(map(float, fields), np.float64, dim)
            room = _TEXT_TABLE_LIMIT - len(table)
            if room > 0:
                table.update(islice(zip(fields, samples[i].tolist()), room))

    labels_file = path / "labels.csv"
    if not labels_file.exists():
        raise FileNotFoundError(f"no labels.csv under {path}")
    observed = np.zeros(count, dtype=np.int64)
    gt = np.zeros(count, dtype=np.int64) if meta["has_gt"] else None
    for i, row in _csv_rows(labels_file, count, 2 if gt is None else 3):
        if int(row[0]) != ids[i]:
            raise ValueError(f"labels.csv row {i + 1} has id {row[0]}, "
                             f"samples.csv row {i + 1} has id {ids[i]}")
        observed[i] = int(row[1])
        if gt is not None:
            gt[i] = int(row[2])

    return LabeledDataset(
        samples=samples,
        observed_labels=observed,
        gt_labels=gt,
        num_classes=meta["num_classes"],
        ids=ids,
    )
