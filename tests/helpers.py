"""Shared test utilities: finite-difference gradients, a probe loss node,
a graph-built CW margin node and PGD reference, brute-force k-NN, a
reference dataset writer and reader, a model-untouched check, small
fixture builders and readers of the README's code blocks."""

from __future__ import annotations

import csv
import dataclasses
import json
import shlex
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from oat import autodiff as ad
from oat.dataio import LabeledDataset
from oat.models import ArchSpec, ModelParams, detached, forward_logits
from oat.oracle import AugmentationPolicy
from oat.rng import SplitMix64

TINY_ARCH = ArchSpec(input_dim=5, encoder_widths=(7,), feature_dim=6, num_classes=3,
                     projector_hidden=8, projector_out=4,
                     predictor_hidden=8, predictor_out=4)

# every augmentation op at a nonzero amplitude, flips included: the
# augmentation tests and the float64 engine digest draw these
ALL_OPS_AUGMENT = AugmentationPolicy(jitter_amp=0.05, flip_prob=0.5, scale_amp=0.2,
                                     erase_frac=0.25)
# the small training runs' amplitudes: no flip and a lighter jitter
SMALL_RUN_AUGMENT = dataclasses.replace(ALL_OPS_AUGMENT, jitter_amp=0.03, flip_prob=0.0)


def fd_max_rel_error(loss_fn, params, h: float = 1e-5, coords_per_tensor: int = 6,
                     rng: SplitMix64 | None = None) -> float:
    """Max relative error between autodiff and central differences.

    Checks a deterministic subsample of coordinates from every parameter
    tensor (all coordinates when the tensor is small enough).
    """
    for p in params:
        p.grad[...] = 0.0
    ad.backward(loss_fn())
    worst = 0.0
    rng = rng or SplitMix64(0).fork("fd")
    for p in params:
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        if flat.size <= coords_per_tensor:
            coords = range(flat.size)
        else:
            coords = sorted({rng.randint(flat.size) for _ in range(coords_per_tensor)})
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(gflat[i] - fd) / max(1.0, abs(fd)))
    for p in params:
        p.grad[...] = 0.0
    return worst


def probe(a: ad.Value, weights=1.0) -> ad.Value:
    """``sum(a * weights)`` as one scalar graph node: a root for engine tests
    whose backward sends ``adj * weights`` (weights broadcast to ``a``'s
    shape) to ``a``."""
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), a.shape)

    def backward_fn(adj):
        return (weights * adj,)

    return ad._make(np.asarray((a.data * weights).sum()), (a,), backward_fn)


def cw_margin_loss(logits: ad.Value, y: np.ndarray) -> ad.Value:
    """The CW margin as one graph node: the mean over the B rows of
    ``max_{j != y_i} z_j - z_{y_i}``, the max taken over the logits plus
    ``_MASK_NEG`` at the label. Backward puts ``adj / B`` at each row's
    maximizer, the lowest-index one on a tie, and ``-adj / B`` at its label.
    ``autodiff.cw_margin_adjoint`` must give these bits."""
    rows = np.arange(len(y))
    mask = np.zeros(logits.shape, dtype=logits.data.dtype)
    mask[rows, y] = ad._MASK_NEG
    masked = logits.data + mask
    other = np.argmax(masked, axis=1)

    def backward_fn(adj):
        u = float(adj) / len(y)
        g = np.zeros_like(masked)
        g[rows, other] += u
        g[rows, y] -= u
        return (g,)

    return ad._make(np.asarray((masked[rows, other] - logits.data[rows, y]).mean()),
                    (logits,), backward_fn)


@contextmanager
def leaves_model_untouched(model: ModelParams):
    """Assert that the ``with`` block adds nothing into ``model``'s ``grad``
    buffers, which must start at zero, and leaves every parameter bitwise
    unchanged."""
    params = model.parameters()
    assert all(not np.any(p.grad) for p in params), "grad buffers must start at zero"
    before = [p.data.tobytes() for p in params]
    yield
    assert all(not np.any(p.grad) for p in params), "a grad buffer was written"
    assert [p.data.tobytes() for p in params] == before, "a parameter changed"


def reference_pgd_attack(model: ModelParams, x, y, spec, rng: SplitMix64 | None = None,
                         prior=None) -> np.ndarray:
    """PGD whose every step builds a graph and walks it with ``ad.backward``:
    ``forward_logits`` of a ``detached`` model on an input leaf in the
    model's dtype, the prior's log shift as an ``add`` node, and the loss
    node. The step ``alpha * sign(grad)`` is taken in the leaf's dtype and
    added to the float64 input. ``pgd_attack`` must give these bits; it draws
    the same random start and projects the same way."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    rng = rng or SplitMix64(0).fork("pgd_attack")
    if spec.random_start:
        start = rng.uniform_range(x.size, -spec.epsilon, spec.epsilon).reshape(x.shape)
        adv = np.clip(x + start, 0.0, 1.0)
    else:
        adv = x.copy()
    frozen, shift = detached(model), None
    dtype = model.head[0].data.dtype
    if prior is not None:
        log_prior = np.log(prior.smoothed)
        shift = ad.Value((log_prior - log_prior.max()).astype(dtype))
    loss_fn = cw_margin_loss if spec.loss_kind == "cw_margin" else ad.cross_entropy
    for _ in range(spec.steps):
        xv = ad.Value(adv.astype(dtype), requires_grad=True)
        logits = forward_logits(frozen, xv)
        if shift is not None:
            logits = ad.add(logits, shift)
        ad.backward(loss_fn(logits, y))
        adv = adv + spec.alpha * np.sign(xv.grad)
        adv = x + np.clip(adv - x, -spec.epsilon, spec.epsilon)
        adv = np.clip(adv, 0.0, 1.0)
    return adv


def brute_force_knn_majority(points: np.ndarray, labels: np.ndarray, k: int,
                             num_classes: int) -> np.ndarray:
    """Exhaustive per-query reference: direct distances, full stable sort,
    self excluded, majority with lowest-class tie break.

    Its direct differences ``sum((q - p) ** 2)`` round differently from
    ``knn_split``'s expansion form ``|q|^2 + |p|^2 - 2 q.p``, so on exactly
    tied points the two can pick different neighbours: on the 12
    grid-plus-duplicate cases of ``test_knn_split_grid_ties_match_stable_sort``
    the clean split differs from this one's in 9. It is a reference for
    continuous points only; ``stable_sort_knn_majority`` is the tie
    reference."""
    n = len(points)
    majority = np.zeros(n, dtype=np.int64)
    for i in range(n):
        d = ((points - points[i]) ** 2).sum(axis=1)
        order = [j for j in np.argsort(d, kind="stable") if j != i][:k]
        counts = np.bincount(labels[order], minlength=num_classes)
        majority[i] = int(np.argmax(counts))
    return majority


def stable_sort_knn_majority(points: np.ndarray, labels: np.ndarray, k: int,
                             num_classes: int) -> np.ndarray:
    """Per-query reference on knn_split's distance formula: the expansion-form
    d2 of each row against every row (computed here 256 rows at a time, which
    moves no value of a row), self excluded, a full stable sort (lower index
    wins a distance tie) and majority with lowest-class tie break. It shares
    none of knn_split's grouping or blocking."""
    sq = (points * points).sum(axis=1)
    majority = np.zeros(len(points), dtype=np.int64)
    for start in range(0, len(points), 256):
        q = points[start:start + 256]
        d2 = (q * q).sum(axis=1)[:, None] + sq[None, :] - 2.0 * (q @ points.T)
        for i in range(len(q)):
            d2[i, start + i] = np.inf
            nearest = np.argsort(d2[i], kind="stable")[:k]
            counts = np.bincount(labels[nearest], minlength=num_classes)
            majority[start + i] = int(np.argmax(counts))
    return majority


def tiny_dataset(n_per_class: int = 6, num_classes: int = 3, dim: int = 4,
                 seed: int = 0) -> LabeledDataset:
    rng = SplitMix64(seed).fork("tiny_dataset")
    means = np.linspace(0.2, 0.8, num_classes)
    labels = np.repeat(np.arange(num_classes), n_per_class)
    samples = np.clip(
        means[labels][:, None] + 0.02 * rng.normal(len(labels) * dim).reshape(-1, dim),
        0.0, 1.0)
    return LabeledDataset(samples=samples, observed_labels=labels.astype(np.int64),
                          gt_labels=labels.astype(np.int64).copy(),
                          num_classes=num_classes,
                          ids=np.arange(len(labels), dtype=np.int64))


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(after: str, lang: str) -> str:
    """The first ```lang code block of the README after the text ``after``."""
    text = README.read_text().split(after, 1)[1]
    return text.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_quickstart() -> tuple[str, list[list[str]]]:
    """The README's CLI block: its ``python -c`` snippet and the argv of
    each of its ``oat`` commands."""
    block = readme_block("## CLI", "sh")
    snippet = block.split('python -c "', 1)[1].split('"\n', 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return snippet, [shlex.split(line)[1:] for line in lines if line.startswith("oat ")]


def dir_bytes(path) -> dict[str, bytes]:
    """Each file under directory ``path`` by relative path: equal dicts mean
    nothing changed."""
    path = Path(path)
    return {str(p.relative_to(path)): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


def reference_save_dataset(ds: LabeledDataset, path) -> None:
    """Row-by-row csv.writer + repr writer of the dataset directory format:
    the bytes save_dataset must reproduce."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {"version": 1, "num_classes": ds.num_classes, "dim": ds.dim,
            "count": len(ds), "has_gt": ds.gt_labels is not None}
    (path / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    with open(path / "samples.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id"] + [f"f{j}" for j in range(ds.dim)])
        for i in range(len(ds)):
            writer.writerow([int(ds.ids[i])] + [repr(float(v)) for v in ds.samples[i]])
    with open(path / "labels.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id", "observed_label"]
                        + (["gt_label"] if ds.gt_labels is not None else []))
        for i in range(len(ds)):
            row = [int(ds.ids[i]), int(ds.observed_labels[i])]
            if ds.gt_labels is not None:
                row.append(int(ds.gt_labels[i]))
            writer.writerow(row)


def reference_load_dataset(path) -> LabeledDataset:
    """Row-by-row csv.reader reader of the dataset directory format, with a
    plain float() per field: the values load_dataset must reproduce bit for
    bit."""
    path = Path(path)
    meta = json.loads((path / "meta.json").read_text())
    with open(path / "samples.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    with open(path / "labels.csv", newline="") as f:
        labels = np.array([[int(v) for v in row] for row in list(csv.reader(f))[1:]],
                          dtype=np.int64).reshape(len(rows), -1)
    return LabeledDataset(
        samples=np.array([[float(v) for v in row[1:]] for row in rows]).reshape(
            len(rows), meta["dim"]),
        observed_labels=labels[:, 1],
        gt_labels=labels[:, 2] if meta["has_gt"] else None,
        num_classes=meta["num_classes"],
        ids=np.array([int(row[0]) for row in rows], dtype=np.int64))
