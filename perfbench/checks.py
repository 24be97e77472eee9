"""Independent computations the workloads compare the program's outputs with.

Nothing here calls into ``oat``: each function re-derives a result from first
principles (the checkpoint's byte format, the k-NN definition, the closed-form
corruption profile) so that a check cannot pass by agreeing with itself.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np


def mlp_predict(checkpoint_dir: Path, x: np.ndarray) -> np.ndarray:
    """Argmax class of a saved encoder + head, read straight from params.bin."""
    manifest = json.loads((checkpoint_dir / "checkpoint.json").read_text())
    blob = (checkpoint_dir / "params.bin").read_bytes()
    buf = {}
    for entry in manifest["buffers"]:
        raw = blob[entry["offset"]:entry["offset"] + entry["nbytes"]]
        buf[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"])
    layers = len(manifest["arch"]["encoder_widths"]) + 1
    h = x
    for i in range(layers):
        h = h @ buf[f"encoder.{i}.w"] + buf[f"encoder.{i}.b"]
        if i < layers - 1:
            h = np.maximum(h, 0.0)
    return (h @ buf["head.w"] + buf["head.b"]).argmax(axis=1)


def mlp_accuracy(checkpoint_dir: Path, x: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(mlp_predict(checkpoint_dir, x) == labels))


def knn_majority(points: np.ndarray, labels: np.ndarray, k: int,
                 num_classes: int) -> np.ndarray:
    """Exhaustive k-NN vote per point: direct squared differences, stable sort
    (lower index wins a distance tie), the point itself excluded, and the
    lowest class winning a vote tie."""
    majority = np.empty(len(points), dtype=np.int64)
    block = 32
    for start in range(0, len(points), block):
        rows = np.arange(start, min(start + block, len(points)))
        d = ((points[rows, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        d[np.arange(len(rows)), rows] = np.inf
        nearest = np.argsort(d, axis=1, kind="stable")[:, :k]
        for i, votes in zip(rows, labels[nearest]):
            majority[i] = np.argmax(np.bincount(votes, minlength=num_classes))
    return majority


def total_variation(a, b) -> float:
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    return float(0.5 * np.abs(pa / pa.sum() - pb / pb.sum()).sum())


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def asymmetric_flips(gt_counts: list[int], nr: float,
                     pairs: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], int]:
    """Rows each (src, dst) pair must relabel: round(nr * N_src)."""
    return {(src, dst): round_half_up(nr * gt_counts[src]) for src, dst in pairs}


def imbalanced_counts(counts: list[int], ir: float) -> list[int]:
    """Class counts after subsampling onto K_i = round(N_max * ir^(i/(C-1))),
    classes ranked by descending count (ties by class id), at least one row kept
    and never more than the class holds."""
    c = len(counts)
    order = sorted(range(c), key=lambda k: (-counts[k], k))
    n_max = max(counts)
    out = [0] * c
    for rank, cls in enumerate(order):
        target = max(1, round_half_up(n_max * ir ** (rank / (c - 1))))
        out[cls] = min(target, counts[cls])
    return out


def in_linf_box(adv: np.ndarray, x: np.ndarray, eps: float) -> bool:
    """Adversarial inputs inside the eps-ball around x and the [0, 1] box."""
    return bool(np.max(np.abs(adv - x)) <= eps + 1e-12
                and adv.min() >= 0.0 and adv.max() <= 1.0)


def truncated_copy(src: Path, dst: Path, drop: int) -> None:
    """Copy a dataset directory with the last ``drop`` rows cut from both CSVs.

    Reads only the tail of each file, so the copy adds little to peak memory.
    """
    dst.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(src / "meta.json", dst / "meta.json")
    for name in ("samples.csv", "labels.csv"):
        shutil.copyfile(src / name, dst / name)
        with open(dst / name, "r+b") as f:
            size = f.seek(0, 2)
            tail = b""
            while tail.count(b"\n") <= drop and len(tail) < size:
                step = min(size - len(tail), max(len(tail), 1 << 16))
                f.seek(size - len(tail) - step)
                tail = f.read(step) + tail
            cut = len(tail)
            for _ in range(drop):
                cut = tail.rindex(b"\n", 0, cut - 1) + 1
            f.truncate(size - len(tail) + cut)


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())
