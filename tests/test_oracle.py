import math

import numpy as np
import pytest

from oat import autodiff as ad
from oat import oracle
from oat.autodiff import Value
from oat.corruption import (apply_exponential_imbalance, apply_symmetric_noise,
                            balanced_oversample)
from oat.dataio import LabeledDataset, SyntheticSpec, gen_synthetic
from oat.models import (AT_MODEL, ORACLE, ArchSpec, forward_features, forward_logits,
                        init_model)
from oat.oracle import (AugmentationPolicy, KnnIndex, embed, knn_split,
                        oracle_contrastive_loss, oracle_interaction_loss,
                        oracle_supervised_loss, predict_probs, refurbish)
from oat.rng import SplitMix64

from helpers import (ALL_OPS_AUGMENT, TINY_ARCH, brute_force_knn_majority,
                     stable_sort_knn_majority, tiny_dataset)


def _oracle_with_fixed_logits(logit_rows):
    """Oracle whose head bias produces the given logits for any input."""
    oracle = init_model(TINY_ARCH, ORACLE, seed=0)
    for w, b in oracle.encoder:
        w.data[...] = 0.0
        b.data[...] = 0.0
    oracle.head[0].data[...] = 0.0
    oracle.head[1].data[...] = np.asarray(logit_rows, dtype=np.float64)
    return oracle


def test_refurbish_confident_replaces():
    # softmax([4,0,0]) max ~ 0.936 >= 0.8 -> every label becomes class 0
    oracle = _oracle_with_fixed_logits([4.0, 0.0, 0.0])
    ds = tiny_dataset(n_per_class=3, num_classes=3, dim=5)
    out = refurbish(oracle, ds, theta_r=0.8)
    assert np.all(out.labels == 0)
    assert np.array_equal(out.refurbished_mask, ds.observed_labels != 0)


def test_refurbish_below_threshold_keeps_label():
    # softmax([1,0,0]) max ~ 0.576 < 0.8 -> labels unchanged
    oracle = _oracle_with_fixed_logits([1.0, 0.0, 0.0])
    ds = tiny_dataset(n_per_class=3, num_classes=3, dim=5)
    out = refurbish(oracle, ds, theta_r=0.8)
    assert np.array_equal(out.labels, ds.observed_labels)
    assert not out.refurbished_mask.any()


def test_refurbish_threshold_is_inclusive():
    oracle = _oracle_with_fixed_logits([math.log(4.0), 0.0, 0.0])  # max prob = 2/3
    ds = tiny_dataset(n_per_class=2, num_classes=3, dim=5)
    exact = 4.0 / 6.0
    out = refurbish(oracle, ds, theta_r=exact)
    assert np.all(out.labels == 0)  # >= branch taken at equality


def test_refurbish_perfect_oracle_zeroes_nr():
    ds = tiny_dataset(n_per_class=4, num_classes=3, dim=5, seed=3)
    oracle = init_model(TINY_ARCH, ORACLE, seed=1)
    for w, b in oracle.encoder:
        w.data[...] = 0.0
        b.data[...] = 0.0
    # classify by first coordinate: cluster means are 0.2 / 0.5 / 0.8
    # (x0 >= 0, so relu(hidden0) passes it through)
    oracle.encoder[0][0].data[0, 0] = 1.0
    oracle.encoder[-1][0].data[0, 0] = 1.0  # feature0 = x0
    oracle.head[0].data[...] = 0.0
    oracle.head[0].data[0, :] = [-40.0, 0.0, 40.0]
    oracle.head[1].data[...] = [14.0, 0.0, -26.0]  # boundaries at x0=0.35, 0.65
    noisy = tiny_dataset(n_per_class=4, num_classes=3, dim=5, seed=3)
    flipped = noisy.observed_labels.copy()
    flipped[0] = 2
    out = refurbish(oracle, noisy.with_observed(flipped), theta_r=0.8)
    assert np.array_equal(out.labels, noisy.gt_labels)


def test_knn_index_validates_k():
    with pytest.raises(ValueError, match="k="):
        KnnIndex(points=np.zeros((5, 2)), k=5)


def test_knn_split_rejects_k_below_one():
    pts = np.arange(10.0).reshape(5, 2)
    with pytest.raises(ValueError, match="k=0 must be at least 1"):
        KnnIndex(points=pts, k=0)
    with pytest.raises(ValueError, match="k=0 differs from the index's k=1"):
        knn_split(KnnIndex(points=pts, k=1), pts, np.zeros(5, dtype=np.int64), k=0)


def test_knn_split_rejects_a_k_other_than_the_index_k():
    pts = SplitMix64(2).fork("knn_k").uniform(20).reshape(10, 2)
    labels = np.arange(10) % 2
    with pytest.raises(ValueError, match="k=7 differs from the index's k=1"):
        knn_split(KnnIndex(points=pts, k=1), pts, labels, 7)


@pytest.mark.parametrize("count", [4, 6])
def test_knn_split_rejects_label_count_mismatch(count):
    pts = np.arange(10.0).reshape(5, 2)
    with pytest.raises(ValueError, match=f"got {count} labels for 5 points"):
        knn_split(KnnIndex(points=pts, k=2), pts, np.zeros(count, dtype=np.int64), k=2)


def test_knn_split_rejects_negative_label():
    pts = SplitMix64(0).fork("knn_neg").uniform(40).reshape(20, 2)
    labels = np.zeros(20, dtype=np.int64)
    labels[7] = -1
    with pytest.raises(ValueError, match="non-negative, got -1"):
        knn_split(KnnIndex(points=pts, k=3), pts, labels, k=3)


def test_knn_split_nearest_neighbor_agreement():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]])
    labels = np.array([0, 0, 1, 1])
    split = knn_split(KnnIndex(points=pts, k=1), pts, labels, k=1)
    assert np.array_equal(split.clean_idx, np.arange(4))
    assert len(split.noisy_idx) == 0


def test_knn_split_disagreement_goes_noisy():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]])
    labels = np.array([0, 0, 1, 1])
    split = knn_split(KnnIndex(points=pts, k=2), pts, labels, k=2)
    assert 2 in split.noisy_idx  # its 2 neighbors are label 0
    assert 3 in split.noisy_idx  # far away, neighbors disagree
    partition = np.sort(np.concatenate([split.clean_idx, split.noisy_idx]))
    assert np.array_equal(partition, np.arange(4))


def test_knn_split_well_separated_clusters_all_clean():
    ds = tiny_dataset(n_per_class=10, num_classes=3, dim=4, seed=2)
    split = knn_split(KnnIndex(points=ds.samples, k=5), ds.samples,
                      ds.observed_labels, k=5)
    assert len(split.clean_idx) == len(ds)


@pytest.mark.parametrize("seed", range(8))
def test_knn_split_matches_brute_force(seed):
    rng = SplitMix64(seed).fork("knn")
    n = 40 + seed * 17
    d = 3 + (seed % 4)
    pts = rng.uniform(n * d).reshape(n, d)
    labels = np.array([rng.randint(4) for _ in range(n)], dtype=np.int64)
    k = 1 + (seed % 7)
    split = knn_split(KnnIndex(points=pts, k=k), pts, labels, k)
    majority = brute_force_knn_majority(pts, labels, k, 4)
    clean = np.flatnonzero(majority == labels)
    assert np.array_equal(split.clean_idx, clean)


def test_knn_split_duplicate_points_tie_by_index():
    # three identical points: self excluded, tie between the other two copies
    # resolves to the lower index
    pts = np.array([[0.5, 0.5]] * 3 + [[0.9, 0.9]])
    labels = np.array([0, 1, 1, 0])
    split = knn_split(KnnIndex(points=pts, k=1), pts, labels, k=1)
    majority = brute_force_knn_majority(pts, labels, 1, 2)
    assert np.array_equal(split.clean_idx, np.flatnonzero(majority == labels))


@pytest.mark.parametrize("k", [1, 2, 7, 30])
@pytest.mark.parametrize("seed", range(3))
def test_knn_split_grid_ties_match_stable_sort(seed, k):
    # coarse-grid points plus duplicated rows: many rows have more columns
    # at their k-th distance than fit, so the lowest-index fill decides
    rng = SplitMix64(seed).fork("knn_grid")
    n, d = 150 + 60 * seed, 1 + seed
    grid = np.round(rng.uniform(n * d).reshape(n, d), 1)
    pts = np.concatenate([grid, grid[rng.sample(n, n // 2)]])
    labels = np.array([rng.randint(3) for _ in range(len(pts))], dtype=np.int64)
    split = knn_split(KnnIndex(points=pts, k=k), pts, labels, k)
    majority = stable_sort_knn_majority(pts, labels, k, 3)
    assert np.array_equal(split.clean_idx, np.flatnonzero(majority == labels))


def test_knn_split_oversampled_copies_vote_for_their_source():
    # class 1 has one row at x=0.5 between class-0 rows; oversampling pads it
    # to six rows sharing its id. Self-exclusion is by row, so each class-1
    # row's k=5 nearest are the other five copies and it stays clean.
    x = np.array([[0.1], [0.2], [0.3], [0.5], [0.7], [0.8], [0.9]])
    labels = np.array([0, 0, 0, 1, 0, 0, 0])
    ds = LabeledDataset(samples=x, observed_labels=labels, gt_labels=None,
                        num_classes=2, ids=np.arange(7, dtype=np.int64))
    over = balanced_oversample(ds, seed=0)
    copies = np.flatnonzero(over.observed_labels == 1)
    assert len(copies) == 6 and np.all(over.ids[copies] == 3)
    split = knn_split(KnnIndex(points=over.samples, k=5), over.samples,
                      over.observed_labels, k=5)
    assert set(copies) <= set(split.clean_idx.tolist())


def _oversampled_tie_set():
    """648 oversampled rows, heavily noisy and imbalanced: the path real
    oracle epochs take, where copies of a row all sit at one distance."""
    ds = gen_synthetic(SyntheticSpec(num_classes=4, dim=4, per_class=260,
                                     cluster_spread=0.1, seed=2))
    ds = apply_symmetric_noise(apply_exponential_imbalance(ds, ir=0.1, seed=2), nr=0.6, seed=2)
    over = balanced_oversample(ds, seed=2)
    return over.samples, over.observed_labels


@pytest.mark.parametrize("k", [30, 60, 120])
def test_knn_split_oversampled_ties_match_stable_sort(k):
    # copies of an oversampled row all sit at one distance, so many rows have
    # more than k columns at or below their k-th distance and the tie fill
    # decides how many of them vote. Heavy noise keeps the votes close enough
    # that one extra copy's vote changes the split.
    pts, labels = _oversampled_tie_set()
    assert len(pts) == 648
    sq = (pts * pts).sum(axis=1)
    crowded = 0
    for start in range(0, len(pts), 256):
        q = pts[start:start + 256]
        d2 = (q * q).sum(axis=1)[:, None] + sq[None, :] - 2.0 * (q @ pts.T)
        d2[np.arange(len(q)), start + np.arange(len(q))] = np.inf
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        crowded += int(np.count_nonzero((d2 <= kth).sum(axis=1) > k))
    assert crowded > 100
    split = knn_split(KnnIndex(points=pts, k=k), pts, labels, k)
    majority = stable_sort_knn_majority(pts, labels, k, 4)
    assert np.array_equal(split.clean_idx, np.flatnonzero(majority == labels))


def _rows_with_copies(seed, grid=True):
    """Distinct rows, on an integer grid (so every d2 is exact) or not, each
    repeated 1-5 times in shuffled order; a fifth of the rows get a fresh
    label, so identical rows sometimes carry different labels."""
    rng = SplitMix64(seed).fork("knn_copies")
    distinct, d = 3 + rng.randint(22), 1 + seed % 3
    base = rng.uniform(distinct * d).reshape(distinct, d)
    if grid:
        base = np.floor(4.0 * base)
    copies = np.array([1 + rng.randint(5) for _ in range(distinct)])
    pts = np.repeat(base, copies, axis=0)
    labels = np.repeat(np.array([rng.randint(3) for _ in range(distinct)]), copies)
    relabel = np.flatnonzero(rng.uniform(len(pts)) < 0.2)
    labels[relabel] = [rng.randint(3) for _ in relabel]
    order = rng.permutation(len(pts))
    return pts[order], labels[order].astype(np.int64)


@pytest.mark.parametrize("seed", range(40))
def test_knn_split_weighted_copies_match_stable_sort(seed):
    # copies of a row vote as one weighted group; the lowest-index fill and
    # self-exclusion by row must come out as on the rows themselves, also
    # when k reaches or passes the number of distinct rows
    pts, labels = _rows_with_copies(seed)
    n, distinct = len(pts), len(np.unique(pts, axis=0))
    ks = {1, 2, distinct - 1, distinct, distinct + 1, (n - 1) // 2, n - 1}
    for k in sorted(k for k in ks if 1 <= k < n):
        split = knn_split(KnnIndex(points=pts, k=k), pts, labels, k)
        majority = stable_sort_knn_majority(pts, labels, k, 3)
        assert np.array_equal(split.clean_idx, np.flatnonzero(majority == labels)), k


@pytest.mark.parametrize("seed", range(12))
def test_knn_split_copies_tie_exactly_off_the_grid(seed):
    # copies of a point sit at one distance from every query, as in the
    # direct form, even where a matrix product could round the same point's
    # columns differently by position; at k=1 that decides whether a copy or
    # a differently labelled row on the same point is the lowest-index fill
    pts, labels = _rows_with_copies(seed, grid=False)
    for k in (1, 2):
        split = knn_split(KnnIndex(points=pts, k=k), pts, labels, k)
        majority = brute_force_knn_majority(pts, labels, k, 3)
        assert np.array_equal(split.clean_idx, np.flatnonzero(majority == labels)), k


def _block_cases():
    """(points, labels, ks): grid rows with copies, whose d2 are exact, the
    648-row oversampled tie set, and continuous rows with and without copies."""
    for seed in range(6):
        pts, labels = _rows_with_copies(seed)
        yield pts, labels, (1, 2, (len(pts) - 1) // 2)
    yield (*_oversampled_tie_set(), (1, 30, 120))
    for seed in range(3):
        yield (*_rows_with_copies(seed, grid=False), (1, 2))
    ds = gen_synthetic(SyntheticSpec(num_classes=4, dim=16, per_class=90,
                                     cluster_spread=0.3, seed=4))
    noisy = apply_symmetric_noise(ds, nr=0.4, seed=4)
    yield noisy.samples, noisy.observed_labels, (1, 7, 36)


@pytest.mark.parametrize("block", [1, 7, 64, 256, "G"])
def test_knn_split_block_size_moves_no_result(monkeypatch, block):
    # each query's answer depends only on its own row of distances, so any
    # block size gives the split one block of all G groups gives
    for pts, labels, ks in _block_cases():
        num_groups = len(oracle._row_groups(pts, labels)[0])
        for k in ks:
            monkeypatch.setattr(oracle, "KNN_BLOCK", num_groups)
            whole = knn_split(KnnIndex(points=pts, k=k), pts, labels, k)
            monkeypatch.setattr(oracle, "KNN_BLOCK", num_groups if block == "G" else block)
            split = knn_split(KnnIndex(points=pts, k=k), pts, labels, k)
            assert np.array_equal(split.clean_idx, whole.clean_idx), (len(pts), k)


def test_knn_split_own_copies_tied_with_another_label():
    # rows 0 and 2 are copies labelled 0, row 1 sits on the same point with
    # label 1. At k=1 each copy's one neighbor is the lowest-index other row
    # at distance 0: row 1 for row 0 (noisy), row 0 for row 2 (clean).
    pts = np.array([[0.0], [0.0], [0.0], [5.0], [5.0]])
    labels = np.array([0, 1, 0, 1, 1])
    split = knn_split(KnnIndex(points=pts, k=1), pts, labels, k=1)
    assert split.clean_idx.tolist() == [2, 3, 4]
    majority = stable_sort_knn_majority(pts, labels, 1, 2)
    assert np.array_equal(split.clean_idx, np.flatnonzero(majority == labels))


def test_knn_split_rejects_every_query_but_the_points_themselves():
    # the split is a self-query: a view or a copy of the points, even one with
    # the same rows, is another array and is rejected
    rng = SplitMix64(1).fork("knn_view")
    pts = rng.uniform(80).reshape(40, 2)
    labels = np.array([rng.randint(2) for _ in range(40)], dtype=np.int64)
    index = KnnIndex(points=pts, k=3)
    for other in (pts[::-1], pts.copy(), pts[:]):
        with pytest.raises(ValueError, match="feats must be index.points"):
            knn_split(index, other, labels, 3)
    split = knn_split(index, index.points, labels, 3)
    majority = stable_sort_knn_majority(pts, labels, 3, 2)
    assert np.array_equal(split.clean_idx, np.flatnonzero(majority == labels))


def test_predict_probs_of_zero_rows_keeps_class_columns():
    oracle = init_model(TINY_ARCH, ORACLE, seed=0)
    probs = predict_probs(oracle, np.zeros((0, TINY_ARCH.input_dim)))
    assert probs.shape == (0, TINY_ARCH.num_classes)
    assert probs.argmax(axis=1).shape == (0,)


def test_embed_of_zero_rows_keeps_feature_columns():
    oracle = init_model(TINY_ARCH, ORACLE, seed=0)
    feats = embed(oracle, np.zeros((0, TINY_ARCH.input_dim)))
    assert feats.shape == (0, TINY_ARCH.feature_dim)


def test_oversampled_copies_embed_bit_identically():
    # knn_split answers each distinct feature row once, so its speed on the
    # oversampled set rests on copies embedding to the same bits wherever
    # they fall in embed's 512-row batches
    ds = gen_synthetic(SyntheticSpec(num_classes=4, dim=16, per_class=200,
                                     cluster_spread=0.1, seed=3))
    ds = apply_exponential_imbalance(ds, ir=0.1, seed=3)
    over = balanced_oversample(ds, seed=3)
    assert len(over) > 512 and len(np.unique(ds.samples, axis=0)) == len(ds)
    oracle = init_model(ArchSpec(input_dim=16, encoder_widths=(64,), feature_dim=32,
                                 num_classes=4), ORACLE, seed=3)
    distinct = len(np.unique(embed(oracle, over.samples), axis=0))
    assert distinct == len(ds), (
        f"{len(over)} oversampled rows of {len(ds)} embed to {distinct} distinct rows: "
        "copies no longer embed bit-identically, so knn_split still splits "
        "correctly but loses its grouping speed-up")


def test_erase_zeroes_one_window_per_hit_row():
    # the other strong ops at zero amplitude leave x as it is
    policy = AugmentationPolicy(jitter_amp=0.0, flip_prob=0.0, scale_amp=0.0,
                                erase_frac=0.25)
    x = SplitMix64(5).fork("erase_x").uniform(64 * 12).reshape(64, 12) + 0.01
    out = policy.apply(x, "strong", SplitMix64(5).fork("erase"))
    rng = SplitMix64(5).fork("erase")
    for n in (64 * 12, 64, 64 * 12):  # skip the jitter, flip and scale draws
        rng.uniform(n)
    hits = rng.uniform(64) < 0.5
    starts = (rng.uniform(64) * 10).astype(int)
    expected = np.clip(x, 0.0, 1.0)
    for i in np.flatnonzero(hits):
        expected[i, starts[i]:starts[i] + 3] = 0.0
    assert 0 < hits.sum() < 64
    assert np.array_equal(out, expected)


def test_augmentation_stays_in_box():
    policy = ALL_OPS_AUGMENT
    rng = SplitMix64(3).fork("aug")
    x = rng.uniform(20 * 6).reshape(20, 6)
    for which in ("weak", "strong"):
        out = policy.apply(x, which, rng)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert out.shape == x.shape


def test_augmentation_rejects_unknown_view():
    with pytest.raises(ValueError, match="unknown augmentation view 'medium'"):
        AugmentationPolicy().apply(np.full((2, 3), 0.5), "medium", SplitMix64(0))


def test_augmentation_deterministic_given_stream():
    policy = ALL_OPS_AUGMENT
    x = np.full((4, 5), 0.5)
    a = policy.apply(x, "strong", SplitMix64(7).fork("s"))
    b = policy.apply(x, "strong", SplitMix64(7).fork("s"))
    assert np.array_equal(a, b)


def test_contrastive_loss_bounds_and_gradient_side():
    oracle = init_model(TINY_ARCH, ORACLE, seed=11)
    rng = SplitMix64(1).fork("c")
    x = rng.uniform(6 * 5).reshape(6, 5)
    loss = oracle_contrastive_loss(oracle, x, AugmentationPolicy(flip_prob=0.0), rng)
    assert -1.0 <= loss.item() <= 1.0
    ad.backward(loss)
    grads = [np.abs(p.grad).sum() for p in oracle.parameters()]
    assert sum(grads) > 0


def test_contrastive_identical_unit_branches():
    a = Value(np.array([[0.6, 0.8], [1.0, 0.0]]))
    loss = ad.cosine_loss(ad.detach(a), a)
    assert loss.item() == pytest.approx(-1.0)
    b = Value(np.array([[1.0, 0.0]]))
    c = Value(np.array([[0.0, 1.0]]))
    assert ad.cosine_loss(b, c).item() == pytest.approx(0.0)


def test_supervised_loss_values():
    oracle = _oracle_with_fixed_logits([0.0, 0.0, 0.0])
    ds = tiny_dataset(n_per_class=4, num_classes=3, dim=5)
    loss = oracle_supervised_loss(oracle, ds.samples, ds.observed_labels)
    assert loss.item() == pytest.approx(math.log(3.0), abs=1e-12)
    # near-one-hot logits with a margin of 40 drive the loss to ~0
    sharp = _oracle_with_fixed_logits([40.0, 0.0, 0.0])
    labels = np.zeros(len(ds), dtype=np.int64)
    assert oracle_supervised_loss(sharp, ds.samples, labels).item() <= 1e-9


def test_supervised_loss_identical_rows_equal_single():
    oracle = init_model(TINY_ARCH, ORACLE, seed=12)
    x = np.full((1, 5), 0.4)
    single = oracle_supervised_loss(oracle, x, np.array([1]))
    batch = oracle_supervised_loss(oracle, np.repeat(x, 5, axis=0),
                                   np.array([1] * 5))
    assert batch.item() == pytest.approx(single.item(), abs=1e-12)


def test_interaction_loss_closed_forms():
    oracle = _oracle_with_fixed_logits([40.0, 0.0, 0.0])
    at_same = init_model(TINY_ARCH, AT_MODEL, seed=13)
    for w, b in at_same.encoder:
        w.data[...] = 0.0
        b.data[...] = 0.0
    at_same.head[0].data[...] = 0.0
    at_same.head[1].data[...] = [40.0, 0.0, 0.0]
    x = np.full((3, 5), 0.5)
    assert oracle_interaction_loss(oracle, at_same, x).item() == pytest.approx(0.0, abs=1e-12)
    # disjoint near-one-hots in 2 effective classes -> MSE ~ 2/3 over 3 classes
    at_other = init_model(TINY_ARCH, AT_MODEL, seed=14)
    for w, b in at_other.encoder:
        w.data[...] = 0.0
        b.data[...] = 0.0
    at_other.head[0].data[...] = 0.0
    at_other.head[1].data[...] = [0.0, 40.0, 0.0]
    loss = oracle_interaction_loss(oracle, at_other, x)
    assert loss.item() == pytest.approx(-2.0 / 3.0, abs=1e-9)


def test_interaction_loss_no_gradient_to_at_model():
    oracle = init_model(TINY_ARCH, ORACLE, seed=15)
    at = init_model(TINY_ARCH, AT_MODEL, seed=16)
    x = SplitMix64(2).fork("x").uniform(4 * 5).reshape(4, 5)
    loss = oracle_interaction_loss(oracle, at, x)
    ad.backward(loss)
    assert all(np.all(p.grad == 0) for p in at.parameters())
    assert any(np.any(p.grad != 0) for p in oracle.parameters())
