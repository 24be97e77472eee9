"""Dataset loading, synthesis and persistence.

A dataset is a frozen bundle of float feature vectors in [0,1]^d, observed
class labels, optional hidden ground-truth labels (kept only for metrics),
and stable per-sample ids. Persistence uses a plain directory with
``meta.json`` + ``samples.csv`` + ``labels.csv`` so round trips are lossless
and diffable.
"""

from __future__ import annotations

import builtins
import dataclasses
import json
import math
import os
import struct
import types
import typing
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

    def take(self, rows: np.ndarray) -> "LabeledDataset":
        """The dataset of the given rows, in that order; a row may repeat."""
        return replace(self, samples=self.samples[rows],
                       observed_labels=self.observed_labels[rows],
                       gt_labels=None if self.gt_labels is None else self.gt_labels[rows],
                       ids=self.ids[rows])


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int
    dim: int
    per_class: int
    cluster_spread: float
    seed: int

    def __post_init__(self):
        require(self, "synthetic", ("num_classes", "dim", "per_class"),
                lambda v: v >= 1, "be at least 1")
        require(self, "synthetic", ("cluster_spread",),
                lambda v: math.isfinite(v) and v > 0, "be finite and positive")


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
# checked JSON: the config, meta.json, checkpoint.json and metrics.jsonl
# ---------------------------------------------------------------------------

def parse_json(path: Path, text: str, line: int = 1):
    """``json.loads(text)`` for text that starts at ``line`` of ``path``; a
    decode error names the file, line and column."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"{path} line {line + err.lineno - 1}, column {err.colno}: "
                         f"{err.msg}") from None


def from_json(cls, d, where: str, defaults: bool = True):
    """Dataclass ``cls`` built from a JSON object: nested dataclass fields are
    built from objects, and lists become tuples where the field is a tuple.
    Raises ValueError naming ``where`` and the key of any unknown or missing
    key, or of a value of the wrong type or a NaN or infinite number. A key
    may be left out only where its field has a default and ``defaults`` is
    set."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must hold a JSON object, not a {type(d).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(fields))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    missing = [name for name, f in fields.items() if name not in d and not (defaults and (
        f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING))]
    if missing:
        raise ValueError(f"missing {where} key(s): {', '.join(missing)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in d.items():
        hint = hints[key]
        if dataclasses.is_dataclass(hint) and isinstance(value, dict):
            value = from_json(hint, value, key, defaults)
        if not _matches(value, hint):
            # f.type is the annotation as written
            raise ValueError(f"{where} key {key!r} must be {fields[key].type}, got {value!r}")
        kwargs[key] = tuple(value) if typing.get_origin(hint) is tuple else value
    return cls(**kwargs)


def require(spec, where: str, keys: tuple[str, ...], ok, what: str) -> None:
    """Raise ValueError ``<where> key '<key>' must <what>, got <value>`` for
    the first of ``keys`` whose value on ``spec`` fails ``ok``; a tuple value
    prints as the list a JSON user wrote."""
    for key in keys:
        value = getattr(spec, key)
        if not ok(value):
            shown = list(value) if isinstance(value, tuple) else value
            raise ValueError(f"{where} key {key!r} must {what}, got {shown!r}")


def _matches(value, hint) -> bool:
    # builtins.float, not float: a test counts load_dataset's calls by
    # shadowing this module's float with a function
    number = builtins.float
    if hint is bool:
        return isinstance(value, bool)
    if hint in (int, number, str):
        # a bool is an int in Python but not a number in JSON; an int passes
        # as a float, and json.loads parses NaN and Infinity, which no key takes
        if isinstance(value, number) and not math.isfinite(value):
            return False
        return not isinstance(value, bool) and isinstance(
            value, (int, number) if hint is number else hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):  # X | None
        return any(_matches(value, arm) for arm in args)
    if origin in (tuple, list):                 # tuple[X, ...] and list[X]
        kinds = (list, tuple) if origin is tuple else list
        return isinstance(value, kinds) and all(_matches(v, args[0]) for v in value)
    if origin is dict:                          # dict[str, X]
        return isinstance(value, dict) and all(
            _matches(k, args[0]) and _matches(v, args[1]) for k, v in value.items())
    return isinstance(value, hint)              # a dataclass, or None's type


def read_json(path: Path, cls, where: str):
    """Dataclass ``cls`` from the JSON file ``path``, every key present
    (``from_json``). A ValueError names the file first, then the line and
    column of a decode error or the key of a rejected value."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path} is not UTF-8 text: {err.reason}") from None
    d = parse_json(path, text)
    try:
        return from_json(cls, d, where, defaults=False)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# directory persistence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Meta:
    """meta.json, read before either CSV: ``version`` 1, ``count`` >= 0,
    ``dim`` and ``num_classes`` >= 1, and whether labels.csv has gt labels."""
    version: int
    num_classes: int
    dim: int
    count: int
    has_gt: bool

    def __post_init__(self):
        if self.version != 1:
            raise ValueError(f"unsupported dataset version {self.version!r}")
        require(self, "dataset", ("count",), lambda v: v >= 0, "be at least 0")
        require(self, "dataset", ("dim", "num_classes"), lambda v: v >= 1, "be at least 1")


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
    meta = _Meta(1, ds.num_classes, ds.dim, len(ds), ds.gt_labels is not None)
    ids = np.asarray(ds.ids, dtype=np.int64)
    labels = [ids, ds.observed_labels] + [ds.gt_labels] * meta.has_gt
    with replaced_together(path, ("samples.csv", "labels.csv", "meta.json")) as temps:
        with open(temps["samples.csv"], "w", newline="") as f:
            f.write(",".join(_csv_header("samples.csv", meta)) + "\r\n")
            for start in range(0, len(ds), _BLOCK_ROWS):
                stop = start + _BLOCK_ROWS
                f.writelines(_format_block(ids[start:stop], ds.samples[start:stop]))
        with open(temps["labels.csv"], "w", newline="") as f:
            f.write(",".join(_csv_header("labels.csv", meta)) + "\r\n")
            rows = zip(*(np.asarray(c, dtype=np.int64).tolist() for c in labels))
            f.writelines(",".join(map(str, row)) + "\r\n" for row in rows)
        temps["meta.json"].write_text(json.dumps(dataclasses.asdict(meta), indent=2) + "\n")


def _csv_header(name: str, meta: _Meta) -> list[str]:
    """The header fields save_dataset writes to ``name`` for ``meta``."""
    if name == "samples.csv":
        return ["id"] + [f"f{j}" for j in range(meta.dim)]
    return ["id", "observed_label"] + ["gt_label"] * meta.has_gt


def _csv_rows(file: Path, meta: _Meta):
    """Yield (i, row) for the data rows of a CSV file under the header that
    save_dataset writes to it for ``meta``.

    Lines may end in CRLF or LF. Raises ValueError unless the file is UTF-8
    text of exactly ``meta.count`` rows, each as wide as that header, under
    that header. A header of another width blames meta.json's key that sets
    the width; one of the same width with other names blames the file.
    """
    # the meta.json key that sets the file's width, and what its columns after id hold
    key, kind = ("dim", "feature") if file.name == "samples.csv" else ("has_gt", "label")
    header = _csv_header(file.name, meta)
    count, width, n = meta.count, len(header), 0
    with open(file, encoding="utf-8") as f:
        try:
            got = next(f, "").rstrip("\n").split(",")
            if len(got) != width:
                raise ValueError(f"{file.with_name('meta.json')}: dataset key {key!r} is "
                                 f"{json.dumps(getattr(meta, key))}, but {file.name}'s "
                                 f"header has {len(got) - 1} {kind} columns")
            if got != header:
                raise ValueError(f"{file.name}'s header is {','.join(got)!r}, expected "
                                 f"{','.join(header)!r}")
            for n, line in enumerate(f, 1):
                if n > count:
                    raise ValueError(f"{file.name} has more than the {count} rows "
                                     f"meta.json declares")
                row = line.rstrip("\n").split(",")
                if len(row) != width:
                    raise ValueError(f"{file.name} row {n} has {len(row)} fields, "
                                     f"expected {width}")
                yield n - 1, row
        except UnicodeDecodeError as err:  # text is decoded ahead of the rows read
            raise ValueError(f"{file.name} is not UTF-8 text: {err.reason}") from None
    if n != count:
        raise ValueError(f"{file.name} has {n} rows, meta.json declares {count}")


# the most distinct field texts load_dataset remembers per call: 8-bit data has
# at most 256, and continuous data stops adding to the table once it is full
_TEXT_TABLE_LIMIT = 4096


def load_dataset(path: str | Path) -> LabeledDataset:
    """Read a directory written by save_dataset.

    Each sample value is ``float()`` of its field text, and each distinct
    text is parsed once: a row whose texts have all been seen is converted
    by table lookups. A row with a new text is parsed field by field, as if
    there were no table, and its texts join the table until it holds
    ``_TEXT_TABLE_LIMIT`` entries. So 8-bit pixel data (at most 256 texts)
    is mostly looked up, and continuous data costs one parse per field.

    Raises ValueError naming the file when meta.json is not the object
    save_dataset writes (``_Meta``), a CSV's header is not the one
    save_dataset writes (naming meta.json and its ``dim`` or ``has_gt`` when
    the width differs), a CSV's row count differs from meta.json's, a row has
    the wrong number of fields, or a CSV is not UTF-8 text; and naming the
    row as well when a field is not a number, a sample value lies outside
    [0, 1], a label lies outside [0, num_classes), or an id of labels.csv
    differs from that of samples.csv.
    """
    path = Path(path)
    meta = read_json(path / "meta.json", _Meta, "dataset")
    count, dim = meta.count, meta.dim

    samples = np.zeros((count, dim))
    ids = np.zeros(count, dtype=np.int64)
    table: dict[str, float] = {}
    lookup = table.__getitem__

    for i, row in _csv_rows(path / "samples.csv", meta):
        try:
            ids[i] = int(row[0])
            fields = row[1:]
            try:
                samples[i] = np.fromiter(map(lookup, fields), np.float64, dim)
            except KeyError:
                samples[i] = np.fromiter(map(float, fields), np.float64, dim)
                room = _TEXT_TABLE_LIMIT - len(table)
                if room > 0:
                    table.update(islice(zip(fields, samples[i].tolist()), room))
        except ValueError as err:
            raise ValueError(f"samples.csv row {i + 1}: {err}") from None

    observed = np.zeros(count, dtype=np.int64)
    gt = np.zeros(count, dtype=np.int64) if meta.has_gt else None
    for i, row in _csv_rows(path / "labels.csv", meta):
        try:
            row_id, observed[i] = int(row[0]), int(row[1])
            if gt is not None:
                gt[i] = int(row[2])
        except ValueError as err:
            raise ValueError(f"labels.csv row {i + 1}: {err}") from None
        if row_id != ids[i]:
            raise ValueError(f"labels.csv row {i + 1} has id {row[0]}, "
                             f"samples.csv row {i + 1} has id {ids[i]}")
    for column, labels in (("observed_label", observed), ("gt_label", gt)):
        outside = [] if labels is None else np.flatnonzero(
            (labels < 0) | (labels >= meta.num_classes))
        if len(outside):
            raise ValueError(f"labels.csv row {outside[0] + 1}: {column} {labels[outside[0]]} "
                             f"lies outside [0, {meta.num_classes})")

    try:
        return LabeledDataset(samples=samples, observed_labels=observed, gt_labels=gt,
                              num_classes=meta.num_classes, ids=ids)
    except ValueError as err:
        # the lengths and labels passed above, so a sample lies outside [0, 1];
        # negated, so that a NaN is found too
        outside = np.flatnonzero(~((samples >= 0.0) & (samples <= 1.0)).all(axis=1))
        if not len(outside):
            raise
        raise ValueError(f"samples.csv row {outside[0] + 1}: {err}") from None
