import struct

import numpy as np
import pytest

from oat.dataio import (IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, LabeledDataset,
                        SyntheticSpec, class_means, gen_synthetic, load_dataset,
                        load_idx, save_dataset)


def _write_idx_pair(tmp_path, images, labels, image_magic=IDX_IMAGE_MAGIC,
                    label_magic=IDX_LABEL_MAGIC, truncate_labels=0):
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes())
    payload = bytes(labels[:len(labels) - truncate_labels])
    lbl_path.write_bytes(struct.pack(">II", label_magic, len(labels) - truncate_labels) + payload)
    return img_path, lbl_path


def test_load_idx_basic(tmp_path):
    images = np.arange(12, dtype=np.uint8).reshape(3, 2, 2) * 20
    images[0, 0, 0] = 255
    img, lbl = _write_idx_pair(tmp_path, images, [0, 1, 2])
    ds = load_idx(img, lbl)
    assert len(ds) == 3 and ds.dim == 4
    assert ds.samples[0, 0] == 1.0  # byte 255 -> exactly 1.0
    assert np.array_equal(ds.gt_labels, ds.observed_labels)


def test_load_idx_wrong_magic(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    img, lbl = _write_idx_pair(tmp_path, images, [0, 1], image_magic=0x00000802)
    with pytest.raises(ValueError, match="magic"):
        load_idx(img, lbl)


def test_load_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    img, lbl = _write_idx_pair(tmp_path, images, [0, 1, 1], truncate_labels=1)
    with pytest.raises(ValueError, match="mismatch"):
        load_idx(img, lbl)


def test_load_idx_truncated(tmp_path):
    img = tmp_path / "truncated.idx"
    img.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 5, 2, 2) + b"\x00" * 3)
    lbl = tmp_path / "labels.idx"
    lbl.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 5) + b"\x00" * 5)
    with pytest.raises(ValueError, match="truncated"):
        load_idx(img, lbl)


def test_gen_synthetic_deterministic():
    spec = SyntheticSpec(num_classes=2, dim=2, per_class=5, cluster_spread=0.1, seed=1)
    a, b = gen_synthetic(spec), gen_synthetic(spec)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.observed_labels, b.observed_labels)


def test_gen_synthetic_counts_and_nr():
    ds = gen_synthetic(SyntheticSpec(num_classes=3, dim=4, per_class=5,
                                     cluster_spread=0.05, seed=2))
    assert len(ds) == 15
    assert np.array_equal(ds.observed_labels, ds.gt_labels)  # NR = 0 by construction


def test_gen_synthetic_degenerate_spread():
    spec = SyntheticSpec(num_classes=3, dim=4, per_class=4, cluster_spread=1e-12, seed=3)
    ds = gen_synthetic(spec)
    means = class_means(3, 4)
    assert np.allclose(ds.samples, means[ds.observed_labels], atol=1e-9)


@pytest.mark.parametrize("num_classes,dim", [(2, 1), (10, 3), (64, 1), (64, 16)])
def test_class_means_pairwise_distinct(num_classes, dim):
    means = class_means(num_classes, dim)
    assert means.min() >= 0.2 and means.max() <= 0.8
    for i in range(num_classes):
        for j in range(i + 1, num_classes):
            assert not np.array_equal(means[i], means[j])


def test_dataset_roundtrip(tmp_path):
    ds = gen_synthetic(SyntheticSpec(num_classes=3, dim=5, per_class=4,
                                     cluster_spread=0.07, seed=9))
    save_dataset(ds, tmp_path / "ds")
    back = load_dataset(tmp_path / "ds")
    assert np.array_equal(ds.samples, back.samples)  # bitwise
    assert np.array_equal(ds.observed_labels, back.observed_labels)
    assert np.array_equal(ds.gt_labels, back.gt_labels)
    assert np.array_equal(ds.ids, back.ids)
    assert ds.num_classes == back.num_classes


def test_dataset_roundtrip_without_gt(tmp_path):
    ds = gen_synthetic(SyntheticSpec(num_classes=2, dim=3, per_class=3,
                                     cluster_spread=0.05, seed=4))
    stripped = LabeledDataset(samples=ds.samples, observed_labels=ds.observed_labels,
                              gt_labels=None, num_classes=ds.num_classes, ids=ds.ids)
    save_dataset(stripped, tmp_path / "nogt")
    back = load_dataset(tmp_path / "nogt")
    assert back.gt_labels is None


def test_load_dataset_missing_labels(tmp_path):
    ds = gen_synthetic(SyntheticSpec(num_classes=2, dim=3, per_class=3,
                                     cluster_spread=0.05, seed=5))
    save_dataset(ds, tmp_path / "broken")
    (tmp_path / "broken" / "labels.csv").unlink()
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "broken")


def test_dataset_invariants_enforced():
    with pytest.raises(ValueError, match="equal length"):
        LabeledDataset(samples=np.zeros((2, 2)), observed_labels=np.zeros(3, dtype=np.int64),
                       gt_labels=None, num_classes=2, ids=np.arange(2))
    with pytest.raises(ValueError, match="labels outside"):
        LabeledDataset(samples=np.zeros((2, 2)), observed_labels=np.array([0, 5]),
                       gt_labels=None, num_classes=2, ids=np.arange(2))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        LabeledDataset(samples=np.full((2, 2), 1.5), observed_labels=np.array([0, 1]),
                       gt_labels=None, num_classes=2, ids=np.arange(2))


def _saved(tmp_path):
    ds = gen_synthetic(SyntheticSpec(num_classes=2, dim=3, per_class=3,
                                     cluster_spread=0.05, seed=6))
    save_dataset(ds, tmp_path / "ds")
    return tmp_path / "ds"


def _edit_lines(file, edit):
    lines = file.read_text().splitlines(keepends=True)
    file.write_text("".join(edit(lines)))


@pytest.mark.parametrize("name", ["samples.csv", "labels.csv"])
def test_load_dataset_rejects_cut_rows(tmp_path, name):
    path = _saved(tmp_path)
    _edit_lines(path / name, lambda lines: lines[:-3])
    with pytest.raises(ValueError, match=f"{name} has 3 rows, meta.json declares 6"):
        load_dataset(path)


@pytest.mark.parametrize("name", ["samples.csv", "labels.csv"])
def test_load_dataset_rejects_extra_row(tmp_path, name):
    path = _saved(tmp_path)
    _edit_lines(path / name, lambda lines: lines + lines[-1:])
    with pytest.raises(ValueError, match=f"{name} has more than the 6 rows"):
        load_dataset(path)


def test_load_dataset_rejects_short_sample_row(tmp_path):
    path = _saved(tmp_path)
    _edit_lines(path / "samples.csv",
                lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + "\n"] + lines[3:])
    with pytest.raises(ValueError, match="samples.csv row 2 has 3 fields, expected 4"):
        load_dataset(path)


def test_load_dataset_rejects_id_mismatch(tmp_path):
    path = _saved(tmp_path)
    _edit_lines(path / "labels.csv",
                lambda lines: lines[:1] + [lines[2], lines[1]] + lines[3:])
    with pytest.raises(ValueError, match="labels.csv row 1 has id 1, samples.csv row 1 has id 0"):
        load_dataset(path)
