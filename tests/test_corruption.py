import math

import numpy as np
import pytest

from oat.corruption import (ClassCounts, CorruptionSpec, apply_asymmetric_noise,
                            apply_exponential_imbalance, apply_symmetric_noise,
                            balanced_oversample, class_counts, compute_ir,
                            compute_nr, corrupt, exponential_targets)
from oat.dataio import LabeledDataset, SyntheticSpec, gen_synthetic
from oat.rng import SplitMix64

from helpers import tiny_dataset


def _dataset(num_classes=10, per_class=100, seed=7):
    return gen_synthetic(SyntheticSpec(num_classes=num_classes, dim=6,
                                       per_class=per_class, cluster_spread=0.05,
                                       seed=seed))


def test_compute_nr_basic():
    ds = tiny_dataset(n_per_class=5, num_classes=2)
    assert compute_nr(ds) == 0.0
    flipped = ds.observed_labels.copy()
    flipped[:3] = 1 - flipped[:3]
    assert compute_nr(ds.with_observed(flipped)) == 0.3
    assert compute_nr(ds.with_observed(1 - ds.observed_labels)) == 1.0


def test_compute_nr_requires_gt():
    ds = tiny_dataset()
    stripped = LabeledDataset(samples=ds.samples, observed_labels=ds.observed_labels,
                              gt_labels=None, num_classes=ds.num_classes, ids=ds.ids)
    with pytest.raises(ValueError):
        compute_nr(stripped)


def test_compute_ir():
    assert compute_ir(ClassCounts((600, 60))) == pytest.approx(0.1)
    assert compute_ir(ClassCounts((50, 50, 50))) == 1.0
    assert compute_ir(ClassCounts((10, 0))) == 0.0
    with pytest.raises(ValueError):
        compute_ir(ClassCounts((0, 0)))


@pytest.mark.parametrize("nr", [0.0, 0.2, 0.4, 0.6, 0.8])
def test_symmetric_noise_exact_ratio(nr):
    ds = _dataset()
    noisy = apply_symmetric_noise(ds, nr, seed=3)
    expected = math.floor(nr * len(ds) + 0.5) / len(ds)
    assert compute_nr(noisy) == expected
    assert np.array_equal(noisy.gt_labels, ds.gt_labels)


def test_symmetric_noise_identity_and_determinism():
    ds = _dataset(per_class=50)
    assert np.array_equal(apply_symmetric_noise(ds, 0.0, seed=1).observed_labels,
                          ds.observed_labels)
    a = apply_symmetric_noise(ds, 0.4, seed=9)
    b = apply_symmetric_noise(ds, 0.4, seed=9)
    assert np.array_equal(a.observed_labels, b.observed_labels)
    c = apply_symmetric_noise(ds, 0.4, seed=10)
    assert not np.array_equal(a.observed_labels, c.observed_labels)


def test_symmetric_noise_two_class_flips_to_other():
    ds = _dataset(num_classes=2, per_class=50)
    noisy = apply_symmetric_noise(ds, 0.5, seed=4)
    flipped = noisy.observed_labels != noisy.gt_labels
    assert np.all(noisy.observed_labels[flipped] == 1 - noisy.gt_labels[flipped])


def test_asymmetric_noise_per_class_counts():
    ds = _dataset(num_classes=4, per_class=10)
    noisy = apply_asymmetric_noise(ds, 0.5, pairs=((0, 1),), seed=2)
    moved = (ds.gt_labels == 0) & (noisy.observed_labels == 1)
    assert moved.sum() == 5
    # class 1's own samples untouched
    own = ds.gt_labels == 1
    assert np.array_equal(noisy.observed_labels[own], ds.observed_labels[own])
    # conservation: source loses exactly what target gains
    before = class_counts(ds).counts
    after = class_counts(noisy).counts
    assert before[0] - after[0] == 5 and after[1] - before[1] == 5


def test_asymmetric_noise_identity_and_errors():
    ds = _dataset(num_classes=3, per_class=10)
    same = apply_asymmetric_noise(ds, 0.0, pairs=((0, 1),), seed=1)
    assert np.array_equal(same.observed_labels, ds.observed_labels)
    with pytest.raises(ValueError, match="outside"):
        apply_asymmetric_noise(ds, 0.2, pairs=((0, 7),), seed=1)


def test_exponential_targets_closed_form():
    targets = exponential_targets(5000, 0.1, 10)
    assert targets[0] == 5000
    assert targets[9] == 500  # 5000 * 0.1^(9/9)
    assert targets[3] == 2321  # 5000 * 0.1^(3/9) = 2320.794...


def test_exponential_imbalance_identity_at_one():
    ds = _dataset(per_class=30)
    out = apply_exponential_imbalance(ds, 1.0, seed=5)
    assert class_counts(out).counts == class_counts(ds).counts


def test_exponential_imbalance_profile_and_clamp():
    ds = _dataset(num_classes=5, per_class=40)
    out = apply_exponential_imbalance(ds, 0.02, seed=6)
    counts = sorted(class_counts(out).counts, reverse=True)
    expected = exponential_targets(40, 0.02, 5)
    assert counts == expected
    assert min(counts) >= 1


def test_exponential_imbalance_keeps_correct_sample():
    ds = _dataset(num_classes=6, per_class=60)
    noisy = apply_symmetric_noise(ds, 0.8, seed=1)
    out = apply_exponential_imbalance(noisy, 0.05, seed=2)
    for cls in range(6):
        pre = (noisy.observed_labels == cls) & (noisy.observed_labels == noisy.gt_labels)
        post = (out.observed_labels == cls) & (out.observed_labels == out.gt_labels)
        if pre.sum() > 0:
            assert post.sum() >= 1, f"class {cls} lost its last correct sample"


def test_exponential_imbalance_never_mutates_gt():
    ds = _dataset(num_classes=4, per_class=25)
    noisy = apply_symmetric_noise(ds, 0.4, seed=3)
    out = apply_exponential_imbalance(noisy, 0.1, seed=4)
    id_to_gt = dict(zip(ds.ids.tolist(), ds.gt_labels.tolist()))
    assert all(id_to_gt[i] == g for i, g in zip(out.ids.tolist(), out.gt_labels.tolist()))


def test_balanced_oversample_counts():
    ds = tiny_dataset(n_per_class=4, num_classes=2)
    lop = ds.observed_labels.copy()
    lop[6:] = 0  # counts become [6, 2]
    unbalanced = ds.with_observed(lop)
    out = balanced_oversample(unbalanced, seed=1)
    assert class_counts(out).counts == (6, 6)
    assert compute_ir(class_counts(out)) == 1.0
    # superset by id multiset
    for i in unbalanced.ids:
        assert (out.ids == i).sum() >= 1
    # additions are copies of minority-class members
    extra_ids = out.ids[len(unbalanced):]
    assert set(extra_ids.tolist()) <= set(unbalanced.ids[lop == 1].tolist())


def test_balanced_oversample_already_balanced():
    ds = tiny_dataset(n_per_class=5, num_classes=3)
    out = balanced_oversample(ds, seed=2)
    assert len(out) == len(ds)
    assert np.array_equal(out.samples, ds.samples)


def test_balanced_oversample_single_candidate():
    ds = tiny_dataset(n_per_class=2, num_classes=2)
    lop = ds.observed_labels.copy()
    lop[3] = 0  # counts [3, 1]
    out = balanced_oversample(ds.with_observed(lop), seed=3)
    assert class_counts(out).counts == (3, 3)
    assert (out.ids == ds.ids[2]).sum() == 3  # the lone sample appears 3 times


def test_balanced_oversample_empty_class():
    ds = tiny_dataset(n_per_class=3, num_classes=2)
    lop = np.zeros(len(ds), dtype=np.int64)
    with pytest.raises(ValueError, match="class 1"):
        balanced_oversample(ds.with_observed(lop), seed=1)


def _per_row_symmetric_noise(ds, nr, seed):
    """Reference for apply_symmetric_noise: one randint per flipped row."""
    rng = SplitMix64(seed).fork("symmetric_noise")
    observed = ds.observed_labels.copy()
    for i in rng.sample(len(ds), math.floor(nr * len(ds) + 0.5)):
        draw = rng.randint(ds.num_classes - 1)
        observed[i] = draw if draw < ds.gt_labels[i] else draw + 1
    return observed


def _per_row_oversample_rows(ds, seed):
    """Reference for balanced_oversample's rows: one randint per added row."""
    rng = SplitMix64(seed).fork("balanced_oversample")
    n_max = np.bincount(ds.observed_labels).max()
    rows = list(range(len(ds)))
    for cls in range(ds.num_classes):
        members = np.flatnonzero(ds.observed_labels == cls)
        rows += [int(members[rng.randint(len(members))]) for _ in range(n_max - len(members))]
    return rows


@pytest.mark.parametrize("nr", [0.0, 0.2, 0.4, 0.9])
def test_noise_and_oversample_match_per_row_reference(nr):
    clean = _dataset(per_class=30)
    for seed in range(20):
        noisy = apply_symmetric_noise(clean, nr, seed)
        assert noisy.observed_labels.tolist() == _per_row_symmetric_noise(clean, nr, seed).tolist()
        lt = apply_exponential_imbalance(noisy, 0.1, seed)
        out = balanced_oversample(lt, seed)
        rows = _per_row_oversample_rows(lt, seed)
        assert len(rows) > len(lt)
        assert out.ids.tolist() == lt.ids[rows].tolist()
        assert np.array_equal(out.samples, lt.samples[rows])
        assert np.array_equal(out.observed_labels, lt.observed_labels[rows])


def test_corrupt_pipeline_provenance():
    ds = _dataset()
    out, prov = corrupt(ds, CorruptionSpec("symmetric", 0.4, 0.1, seed=5))
    assert prov["realized_nr"] == 0.4
    assert prov["final_size"] == len(out)
    assert sorted(prov["final_counts"], reverse=True) == \
        exponential_targets(max(prov["final_counts"]), 0.1, 10)


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec("asymmetric", 0.2, 1.0)  # pairs required
    with pytest.raises(ValueError):
        CorruptionSpec("symmetric", 1.0, 1.0)
    with pytest.raises(ValueError):
        CorruptionSpec("symmetric", 0.2, 0.0)
    with pytest.raises(ValueError):
        CorruptionSpec("asymmetric", 0.2, 1.0, asym_pairs=((1, 1),))
    with pytest.raises(ValueError, match="target_nr 0.4 needs a noise type, got 'none'"):
        CorruptionSpec("none", 0.4, 1.0)


@pytest.mark.parametrize("nr,ir,named", [
    (1.0, 1.0, "corruption key 'target_nr' must lie in [0, 1), got 1.0"),
    (-0.1, 1.0, "corruption key 'target_nr' must lie in [0, 1), got -0.1"),
    (math.nan, 1.0, "corruption key 'target_nr' must lie in [0, 1), got nan"),
    (0.2, 0.0, "corruption key 'target_ir' must lie in (0, 1], got 0.0"),
    (0.2, 1.5, "corruption key 'target_ir' must lie in (0, 1], got 1.5"),
    (0.2, math.nan, "corruption key 'target_ir' must lie in (0, 1], got nan"),
])
def test_corruption_spec_rejects_out_of_range_ratios(nr, ir, named):
    with pytest.raises(ValueError) as err:
        CorruptionSpec("symmetric", nr, ir)
    assert str(err.value) == named


def test_asymmetric_noise_rejects_a_repeated_source_class():
    # a second pair from class 0 would redraw from all of class 0's rows, so
    # pair 0->1 would end below its exact round(nr * 50) = 20 flips
    with pytest.raises(ValueError, match="source class 0 more than once"):
        CorruptionSpec("asymmetric", 0.4, 1.0, asym_pairs=((0, 1), (0, 2)))
    ds = _dataset(num_classes=4, per_class=50)
    with pytest.raises(ValueError, match="source class 0 more than once"):
        apply_asymmetric_noise(ds, 0.4, pairs=((0, 1), (0, 2)), seed=1)
    # a chain is fine: each class is the source of one pair
    noisy = apply_asymmetric_noise(ds, 0.4, pairs=((0, 1), (1, 2)), seed=1)
    for src, dst in ((0, 1), (1, 2)):
        assert np.sum((ds.gt_labels == src) & (noisy.observed_labels == dst)) == 20
