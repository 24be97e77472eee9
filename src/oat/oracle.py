"""Oracle training: label refurbishment, k-NN clean/noisy split, and the
contrastive + supervised + divergence losses that drive one oracle epoch.

The oracle's job is to fit the training set's correct labeling, not to
generalize: it relabels samples it is confident about, votes with exact
k-nearest neighbors in its own feature space to decide which labels to trust,
and trains with a two-view stop-gradient cosine loss alongside cross-entropy
on the trusted subset. Its inference, ``predict_probs`` and ``embed``, comes
from ``oat.models``, and both names import from here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .dataio import LabeledDataset, require
from .models import (ModelParams, detached, embed, forward_features, forward_logits,
                     predict_probs, project_predict)
from .rng import SplitMix64

if TYPE_CHECKING:  # pragma: no cover
    from .trainer import RunState


@dataclass(frozen=True)
class RefurbishedLabels:
    labels: np.ndarray            # (n,) int64
    refurbished_mask: np.ndarray  # (n,) bool, True where the label was replaced


@dataclass(frozen=True)
class SplitSets:
    clean_idx: np.ndarray
    noisy_idx: np.ndarray


@dataclass(frozen=True)
class KnnIndex:
    """Read-only exact k-NN index over the points ``knn_split`` splits; the
    split is a self-query, and no point counts as its own neighbor."""
    points: np.ndarray
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k={self.k} must be at least 1")
        if self.k >= len(self.points):
            raise ValueError(f"k={self.k} must be smaller than n={len(self.points)}")


ERASE_PROB = 0.5  # chance that a strong view erases a window of a row

# groups knn_split answers per block. A block holds about 30 bytes per (query,
# group) pair (distances, products, argpartition indices, masks), so it takes
# ~1.9 KB per group of the index at 64, a quarter of what 256 took, and ran
# no slower. Each query's answer depends only on its own row of distances, so
# the block size moves no result.
KNN_BLOCK = 64


@dataclass(frozen=True)
class AugmentationPolicy:
    """Two fixed augmentation views over flat feature vectors in [0,1]^d.

    weak: jitter + flip. strong: jitter + flip + per-feature scaling jitter +
    random erasing. The knobs control amplitude; each strong view erases a
    window with probability ``ERASE_PROB``. Flip reverses the feature order,
    which only makes sense for data without coordinate semantics such as
    flattened images; it is off by default.
    """
    jitter_amp: float = 0.04
    flip_prob: float = 0.0
    scale_amp: float = 0.15
    erase_frac: float = 0.2

    def __post_init__(self):
        require(self, "augment", ("flip_prob", "erase_frac"),
                lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
        require(self, "augment", ("jitter_amp", "scale_amp"),
                lambda v: v >= 0.0, "be nonnegative")

    def apply(self, x: np.ndarray, which: str, rng: SplitMix64) -> np.ndarray:
        if which not in ("weak", "strong"):
            raise ValueError(f"unknown augmentation view {which!r}: expected 'weak' or 'strong'")
        out = x.copy()
        n, d = out.shape
        out += rng.uniform_range(n * d, -self.jitter_amp, self.jitter_amp).reshape(n, d)
        flips = rng.uniform(n) < self.flip_prob
        out[flips] = out[flips, ::-1]
        if which == "strong":
            out *= 1.0 + rng.uniform_range(n * d, -self.scale_amp, self.scale_amp).reshape(n, d)
            width = max(1, int(round(self.erase_frac * d)))
            hits = rng.uniform(n) < ERASE_PROB
            starts = (rng.uniform(n) * max(1, d - width + 1)).astype(int)[:, None]
            offset = np.arange(d) - starts
            out[hits[:, None] & (offset >= 0) & (offset < width)] = 0.0
        return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# refurbishment and splitting
# ---------------------------------------------------------------------------

def refurbish(oracle: ModelParams, ds: LabeledDataset, theta_r: float) -> RefurbishedLabels:
    """Replace a label with the oracle argmax when max confidence >= theta_r."""
    if not 0.0 < theta_r <= 1.0:
        raise ValueError("theta_r must lie in (0, 1]")
    probs = predict_probs(oracle, ds.samples)
    confident = probs.max(axis=1) >= theta_r
    predicted = probs.argmax(axis=1)  # ties resolve to the lowest class index
    labels = np.where(confident, predicted, ds.observed_labels).astype(np.int64)
    replaced = confident & (predicted != ds.observed_labels)
    return RefurbishedLabels(labels=labels, refurbished_mask=replaced)


def _row_groups(x: np.ndarray, labels: np.ndarray):
    """Group rows by bit-identical features plus label: each group's first row,
    each row's group and each group's size."""
    x = np.ascontiguousarray(x)
    key = np.concatenate([x.view(np.uint8).reshape(len(x), -1),
                          np.ascontiguousarray(labels).view(np.uint8).reshape(len(x), -1)],
                         axis=1)
    key = key.view(np.dtype((np.void, key.shape[1]))).ravel()
    _, first, group, size = np.unique(key, return_index=True, return_inverse=True,
                                      return_counts=True)
    return first, group, size


def knn_split(index: KnnIndex, feats: np.ndarray, labels: np.ndarray, k: int) -> SplitSets:
    """Partition the index's points by whether the majority label of each
    point's k nearest other points agrees with its own.

    The split is a self-query: ``feats`` must be ``index.points`` itself, and
    any other array, a view or a copy of it included, raises ``ValueError``;
    so does a ``k`` other than ``index.k``. ``labels`` holds one label per
    point.

    Distances are squared Euclidean in the expansion form
    ``|q|^2 + |p|^2 - 2 q.p``. A point's k nearest are every other row
    strictly nearer than its k-th smallest distance, then the lowest-index
    rows tied at that distance until it has k. Ties are judged on those
    computed values, which can round differently from the direct
    ``sum((q - p)^2)``, so on exactly tied points the neighbor set can differ
    from a direct-difference one. The votes are exact integer counts, and
    majority ties resolve to the lower class index.

    The work is done on groups, not rows: rows with bit-identical features
    and the same label (the copies oversampling appends) form one group that
    votes with its size as weight, and each group is answered once. Copies of
    a point therefore always sit at one computed distance, as they do in the
    direct form. A row excludes itself, not its copies, so its own group votes
    with its size less one. Only where the groups tied at the k-th distance
    carry more than one label does the lowest-index fill look at rows again.
    Groups are answered in blocks of ``KNN_BLOCK``, so the transient arrays
    take about 30 bytes times ``KNN_BLOCK`` times the number of groups.
    """
    pts = index.points
    if feats is not pts:
        raise ValueError("knn_split answers only the self-query: feats must be index.points")
    if k != index.k:
        raise ValueError(f"k={k} differs from the index's k={index.k}")
    n = len(pts)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ValueError(f"need one label per point: got {len(labels)} labels for {n} points")
    if labels.min() < 0:
        raise ValueError(f"labels must be non-negative, got {labels.min()}")

    first, group, weight = _row_groups(pts, labels)
    cols, col_labels = pts[first], labels[first]
    num_groups = len(first)
    cols_sq = (cols * cols).sum(axis=1)
    num_classes = int(labels.max()) + 1
    # vote counts stay below 2**24, so float32 products and sums of them are exact
    onehot = np.zeros((num_groups, num_classes), dtype=np.float32)
    onehot[np.arange(num_groups), col_labels] = weight
    # every group weighs at least 1 (an own group of weight 0 is moved to inf),
    # so the k-th weighted distance lies among each row's k nearest groups
    reach = min(k, num_groups)
    majority = np.zeros(num_groups, dtype=np.int64)
    split_ties = []  # (group, its tied column groups, its strict votes, its room)

    for start in range(0, num_groups, KNN_BLOCK):
        q = cols[start:start + KNN_BLOCK]
        rows = np.arange(len(q))
        own = start + rows
        m = q @ cols.T
        m *= 2.0
        d2 = (q * q).sum(axis=1)[:, None] + cols_sq[None, :]
        d2 -= m
        alone = weight[own] == 1
        d2[rows[alone], own[alone]] = np.inf
        near = np.argpartition(d2, reach - 1, axis=1)[:, :reach]
        near = np.take_along_axis(near, np.argsort(np.take_along_axis(d2, near, axis=1),
                                                   axis=1), axis=1)
        near_weight = weight[near]
        near_weight -= near == own[:, None]
        at_kth = np.argmax(np.cumsum(near_weight, axis=1) >= k, axis=1)
        kth = d2[rows, near[rows, at_kth]][:, None]
        less = d2 < kth
        votes = less.astype(np.float32) @ onehot
        own_less = rows[less[rows, own]]
        votes[own_less, col_labels[own[own_less]]] -= 1.0
        room = k - votes.sum(axis=1).astype(np.int64)
        # the groups tied at the k-th distance, row by row; where they share
        # one label it takes the whole room, whichever of their rows fill it
        tie_row, tie_col = np.divmod(np.flatnonzero(d2 == kth), num_groups)
        tie_label = col_labels[tie_col]
        first_label = tie_label[np.searchsorted(tie_row, rows)]
        mixed = np.unique(tie_row[tie_label != first_label[tie_row]])
        for r in mixed:
            split_ties.append((start + r, tie_col[tie_row == r], votes[r].copy(), room[r]))
        votes[rows, first_label] += room
        majority[start:start + len(q)] = votes.argmax(axis=1)

    majority = majority[group]
    for g, tied, strict, room in split_ties:
        tied_rows = np.flatnonzero(np.isin(group, tied))
        for i in np.flatnonzero(group == g):
            fill = tied_rows[tied_rows != i]
            votes = strict + np.bincount(labels[fill[:room]], minlength=num_classes)
            majority[i] = votes.argmax()

    clean = majority == labels
    return SplitSets(clean_idx=np.flatnonzero(clean), noisy_idx=np.flatnonzero(~clean))


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def oracle_contrastive_loss(oracle: ModelParams, batch: np.ndarray,
                            policy: AugmentationPolicy, rng: SplitMix64) -> Value:
    """Two-view cosine loss: stop-gradient on the projector-only weak view,
    gradient through the predictor branch of the strong view."""
    if len(batch) == 0:
        raise ValueError("contrastive loss needs a nonempty batch")
    view1 = policy.apply(batch, "weak", rng)
    view2 = policy.apply(batch, "strong", rng)
    frozen = detached(oracle)
    target = project_predict(frozen, forward_features(frozen, view1), False)
    online = project_predict(oracle, forward_features(oracle, view2), True)
    return ad.cosine_loss(target, online)


def oracle_supervised_loss(oracle: ModelParams, clean_batch: np.ndarray,
                           labels: np.ndarray) -> Value:
    """Mean cross-entropy against the refurbished labels of the clean subset."""
    if len(clean_batch) == 0:
        raise ValueError("supervised loss needs a nonempty clean batch")
    return ad.cross_entropy(forward_logits(oracle, clean_batch), labels)


def oracle_interaction_loss(oracle: ModelParams, at_model: ModelParams,
                            clean_batch: np.ndarray) -> Value:
    """Negated MSE between the two models' softmax outputs; pushes the oracle
    away from the robust model's predictions. The robust model's branch is a
    constant here."""
    return ad.neg_softmax_mse(forward_logits(oracle, clean_batch),
                              predict_probs(at_model, clean_batch))


# ---------------------------------------------------------------------------
# one oracle epoch
# ---------------------------------------------------------------------------

@dataclass
class OracleEpochRecord:
    refurbished_nr: float | None
    refurbished_count: int
    clean_count: int
    noisy_count: int
    empty_clean_batches: int
    losses: dict


def oracle_epoch(state: "RunState") -> OracleEpochRecord:
    """Refurbish labels, split clean/noisy by k-NN, run one SGD pass over the
    oversampled set, and return what the epoch measured. Updates the oracle
    and ``state.labels`` in place. The oracle's learning rate stays at
    config.lr for the whole run."""
    config = state.config
    ds = state.oversampled
    rng = state.rng.fork("oracle_epoch", state.epoch)

    working = ds.with_observed(state.labels)
    ref = refurbish(state.oracle, working, config.theta_r)
    state.labels = ref.labels

    feats = embed(state.oracle, ds.samples)
    k = max(1, min(config.k, len(ds) // 10, len(ds) - 1))
    split = knn_split(KnnIndex(points=feats, k=k), feats, ref.labels, k)
    clean_mask = np.zeros(len(ds), dtype=bool)
    clean_mask[split.clean_idx] = True
    empty_clean = 0

    def batch_loss(i: int, idx: np.ndarray) -> tuple[Value, dict[str, float]]:
        nonlocal empty_clean
        total = oracle_contrastive_loss(state.oracle, ds.samples[idx], config.augment,
                                        rng.fork("augment", i))
        parts = {"contrastive": total.item(), "supervised": 0.0}
        if config.interaction_enabled:
            parts["divergence"] = 0.0
        clean_in_batch = idx[clean_mask[idx]]
        if len(clean_in_batch):
            x_clean = ds.samples[clean_in_batch]
            l_ce = oracle_supervised_loss(state.oracle, x_clean, ref.labels[clean_in_batch])
            parts["supervised"] = l_ce.item()
            total = ad.add(total, l_ce)
            if config.interaction_enabled:
                l_div = oracle_interaction_loss(state.oracle, state.model, x_clean)
                parts["divergence"] = l_div.item()
                total = ad.add(total, l_div)
        else:
            empty_clean += 1
        parts["oracle_total"] = total.item()
        return total, parts

    order = rng.fork("shuffle").permutation(len(ds))
    losses = ad.sgd_pass(state.oracle_opt, order, config.batch_size, batch_loss,
                         f"oracle loss at epoch {state.epoch}")

    gt = ds.gt_labels
    return OracleEpochRecord(
        refurbished_nr=None if gt is None else float(np.mean(ref.labels != gt)),
        refurbished_count=int(ref.refurbished_mask.sum()),
        clean_count=len(split.clean_idx),
        noisy_count=len(split.noisy_idx),
        empty_clean_batches=empty_clean,
        losses=losses,
    )
