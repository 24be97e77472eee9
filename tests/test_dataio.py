import hashlib
import json
import struct

import numpy as np
import pytest

from helpers import dir_bytes, reference_load_dataset, reference_save_dataset
from oat import dataio
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


@pytest.mark.parametrize("spec,digest", [
    (SyntheticSpec(10, 16, 200, 0.10, 1),
     "999395517c17d4793a005199121897137ab988c9befd2937328eefb1b7d5030e"),
    (SyntheticSpec(3, 5, 7, 0.5, 11),
     "66722e9593e555e69b6b3dba1e0ba1f6384b27cecc4c36c6e54aff414cdc6ea7"),
    (SyntheticSpec(10, 128, 100, 0.10, 2),
     "46b0fe2d52b1ecc1b9bb0680eba38f053e0157207d86b48831e75018df3e345b"),
])
def test_gen_synthetic_keeps_its_golden_bits(spec, digest):
    # sha256 of the float64 sample bytes; the spread-0.5 case clips many
    # values, the other two are the benchmark's and acceptance-sized shapes
    samples = gen_synthetic(spec).samples
    assert samples.dtype == np.float64 and samples.flags.c_contiguous
    assert hashlib.sha256(samples.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("change,named", [
    ({"num_classes": 0}, "synthetic key 'num_classes' must be at least 1, got 0"),
    ({"dim": 0}, "synthetic key 'dim' must be at least 1, got 0"),
    ({"per_class": 0}, "synthetic key 'per_class' must be at least 1, got 0"),
    ({"cluster_spread": 0.0}, "synthetic key 'cluster_spread' must be finite and positive, "
                              "got 0.0"),
    ({"cluster_spread": -0.1}, "synthetic key 'cluster_spread' must be finite and positive, "
                               "got -0.1"),
    ({"cluster_spread": np.inf}, "synthetic key 'cluster_spread' must be finite and positive, "
                                 "got inf"),
    ({"cluster_spread": np.nan}, "synthetic key 'cluster_spread' must be finite and positive, "
                                 "got nan"),
])
def test_synthetic_spec_rejects_what_gen_synthetic_cannot_build(change, named):
    spec = {"num_classes": 2, "dim": 4, "per_class": 3, "cluster_spread": 0.1, "seed": 1}
    with pytest.raises(ValueError) as err:
        SyntheticSpec(**{**spec, **change})
    assert str(err.value) == named


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_samples(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        LabeledDataset(samples=np.array([[bad, 0.5], [0.0, 1.0]]),
                       observed_labels=np.array([0, 1]), gt_labels=None,
                       num_classes=2, ids=np.arange(2))


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


def _repeating(tmp_path):
    """Six rows of the same three pixel values: row 1 fills load_dataset's
    table of field texts, and every later row is converted by lookups."""
    samples = np.tile([0.0, 128 / 255, 1.0], (6, 1))
    labels = np.arange(6, dtype=np.int64) % 2
    save_dataset(LabeledDataset(samples=samples, observed_labels=labels, gt_labels=labels,
                                num_classes=2, ids=np.arange(6, dtype=np.int64)),
                 tmp_path / "repeating")
    return tmp_path / "repeating"


def test_load_dataset_rejects_nan_field(tmp_path):
    path = _saved(tmp_path)
    _edit_lines(path / "samples.csv",
                lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",nan\n"] + lines[3:])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        load_dataset(path)
    # row 4 comes after rows 2 and 3, which hit the table, so its unseen text
    # takes the per-field path and must fail there as a plain float() does
    for text, message in (("abc", "could not convert string to float: 'abc'"),
                          ("", "could not convert string to float: ''"),
                          ("nan", r"\[0, 1\]")):
        path = _repeating(tmp_path)
        _edit_lines(path / "samples.csv",
                    lambda lines: lines[:4] + [lines[4].replace(",0.0,", f",{text},")]
                    + lines[5:])
        with pytest.raises(ValueError, match=message):
            load_dataset(path)


_DROP = object()


_MALFORMED_META = {
    "list": (None, [1, 2], "dataset must hold a JSON object, not a list"),
    "key-unknown": ("classes", ["a", "b"], "unknown dataset key(s): classes"),
    "version-2": ("version", 2, "unsupported dataset version 2"),
    "version-true": ("version", True, "dataset key 'version' must be int, got True"),
    "count-missing": ("count", _DROP, "missing dataset key(s): count"),
    "count-negative": ("count", -1, "dataset key 'count' must be at least 0, got -1"),
    "count-float": ("count", 6.0, "dataset key 'count' must be int, got 6.0"),
    "dim-missing": ("dim", _DROP, "missing dataset key(s): dim"),
    "dim-zero": ("dim", 0, "dataset key 'dim' must be at least 1, got 0"),
    "dim-true": ("dim", True, "dataset key 'dim' must be int, got True"),
    "num_classes-float": ("num_classes", 2.5, "dataset key 'num_classes' must be int, got 2.5"),
    "num_classes-string": ("num_classes", "2",
                           "dataset key 'num_classes' must be int, got '2'"),
    "num_classes-zero": ("num_classes", 0,
                         "dataset key 'num_classes' must be at least 1, got 0"),
    "has_gt-missing": ("has_gt", _DROP, "missing dataset key(s): has_gt"),
    "has_gt-int": ("has_gt", 1, "dataset key 'has_gt' must be bool, got 1"),
    # the saved data is 3-d: a dim that disagrees with samples.csv's header
    "dim-2": ("dim", 2, "dataset key 'dim' is 2, but samples.csv's header has 3 feature columns"),
    "dim-4": ("dim", 4, "dataset key 'dim' is 4, but samples.csv's header has 3 feature columns"),
    "dim-5": ("dim", 5, "dataset key 'dim' is 5, but samples.csv's header has 3 feature columns"),
}


@pytest.mark.parametrize("key,value,named", _MALFORMED_META.values(), ids=_MALFORMED_META)
def test_load_dataset_rejects_malformed_meta(tmp_path, key, value, named):
    path = _saved(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    if key is None:
        meta = value
    elif value is _DROP:
        del meta[key]
    else:
        meta[key] = value
    (path / "meta.json").write_text(json.dumps(meta))
    # meta.json is checked before any CSV row is read, and its dim against the header
    _edit_lines(path / "samples.csv", lambda lines: lines[:1])
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value) == f"{path / 'meta.json'}: {named}"


@pytest.mark.parametrize("name,row,field,text,named", [
    ("samples.csv", 3, 0, "x", "invalid literal for int() with base 10: 'x'"),
    ("samples.csv", 1, 2, "abc", "could not convert string to float: 'abc'"),
    # row 5 comes after rows that hit load_dataset's table of field texts
    ("samples.csv", 5, 3, "abc", "could not convert string to float: 'abc'"),
    ("labels.csv", 2, 0, "x", "invalid literal for int() with base 10: 'x'"),
    ("labels.csv", 4, 1, "1.0", "invalid literal for int() with base 10: '1.0'"),
    ("labels.csv", 6, 1, "2", "observed_label 2 lies outside [0, 2)"),
    ("labels.csv", 3, 2, "-1", "gt_label -1 lies outside [0, 2)"),
    ("samples.csv", 2, 1, "1.5", "sample values must lie in [0, 1]"),
    ("samples.csv", 4, 3, "nan", "sample values must lie in [0, 1]"),
], ids=["sample-id", "sample", "sample-after-lookups", "label-id", "label-float",
        "label-outside", "gt-label-outside", "sample-above-1", "sample-nan"])
def test_load_dataset_names_the_file_and_row_of_a_bad_field(tmp_path, name, row, field, text,
                                                            named):
    path = _repeating(tmp_path)
    lines = (path / name).read_text().splitlines()
    cells = lines[row].split(",")
    cells[field] = text
    lines[row] = ",".join(cells)
    (path / name).write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value) == f"{name} row {row}: {named}"


@pytest.mark.parametrize("name", ["samples.csv", "labels.csv", "meta.json"])
def test_load_dataset_names_a_file_that_is_not_utf8(tmp_path, name):
    path = _saved(tmp_path)
    blob = bytearray((path / name).read_bytes())
    blob[len(blob) // 2] = 0xFF  # never valid in UTF-8
    (path / name).write_bytes(bytes(blob))
    with pytest.raises(ValueError) as info:
        load_dataset(path)
    assert str(info.value).endswith(f"{name} is not UTF-8 text: invalid start byte")


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_save_dataset_golden_bytes(tmp_path):
    ds = LabeledDataset(samples=np.array([[0.0, -0.0, 1.0], [1e-05, 5e-324, 0.5]]),
                        observed_labels=np.array([1, 0]), gt_labels=np.array([0, 0]),
                        num_classes=2, ids=np.array([-3, 7]))
    save_dataset(ds, tmp_path / "ds")
    assert dir_bytes(tmp_path / "ds") == {
        "labels.csv": b"id,observed_label,gt_label\r\n-3,1,0\r\n7,0,0\r\n",
        "meta.json": b'{\n  "version": 1,\n  "num_classes": 2,\n  "dim": 3,\n'
                     b'  "count": 2,\n  "has_gt": true\n}\n',
        "samples.csv": b"id,f0,f1,f2\r\n-3,0.0,-0.0,1.0\r\n7,1e-05,5e-324,0.5\r\n",
    }
    assert _same_bits(load_dataset(tmp_path / "ds").samples, ds.samples)


def _mixed_dataset(layout):
    """600 rows over three 256-row blocks: rows below 300 are 8-bit pixel
    values, the rest continuous, with signed zeros and ones sprinkled in."""
    rng = np.random.default_rng(4)
    samples = rng.random((600, 12))
    samples[:300] = rng.integers(0, 256, size=(300, 12)) / 255.0
    samples[::7, 3] = -0.0
    samples[::11, 5] = 1.0
    labels = np.arange(600, dtype=np.int64) % 4
    return LabeledDataset(samples=np.asarray(samples, order=layout),
                          observed_labels=labels, gt_labels=labels[::-1].copy(),
                          num_classes=4, ids=np.arange(600, dtype=np.int64) * 3 - 50)


@pytest.mark.parametrize("layout", ["C", "F"])
def test_save_dataset_matches_reference_writer(tmp_path, layout):
    ds = _mixed_dataset(layout)
    save_dataset(ds, tmp_path / "new")
    reference_save_dataset(ds, tmp_path / "ref")
    assert dir_bytes(tmp_path / "new") == dir_bytes(tmp_path / "ref")
    back = load_dataset(tmp_path / "new")
    assert _same_bits(back.samples, ds.samples)
    assert np.array_equal(back.ids, ds.ids)
    assert np.array_equal(back.observed_labels, ds.observed_labels)
    assert np.array_equal(back.gt_labels, ds.gt_labels)


def _late_texts_dataset():
    """120 rows over 16 columns: the first 40 take the values {0, 1/2, 1},
    rows 40-79 are continuous, and rows 80-119 return to the first rows'
    values with one continuous column from row 100 on."""
    rng = np.random.default_rng(9)
    samples = rng.integers(0, 3, size=(120, 16)) / 2.0
    samples[40:80] = rng.random((40, 16))
    samples[100:, 7] = rng.random(20)
    labels = np.arange(120, dtype=np.int64) % 3
    return LabeledDataset(samples=samples, observed_labels=labels, gt_labels=labels.copy(),
                          num_classes=3, ids=np.arange(120, dtype=np.int64))


@pytest.mark.parametrize("build,lf", [
    (lambda: _mixed_dataset("C"), False),
    (lambda: _mixed_dataset("F"), False),
    (_late_texts_dataset, False),
    (_late_texts_dataset, True),
], ids=["mixed-C", "mixed-F", "late-texts", "late-texts-LF"])
def test_load_dataset_matches_reference_reader(tmp_path, build, lf):
    ds = build()
    save_dataset(ds, tmp_path / "ds")
    if lf:
        for name in ("samples.csv", "labels.csv"):
            text = (tmp_path / "ds" / name).read_bytes()
            (tmp_path / "ds" / name).write_bytes(text.replace(b"\r\n", b"\n"))
    back, ref = load_dataset(tmp_path / "ds"), reference_load_dataset(tmp_path / "ds")
    assert _same_bits(back.samples, ref.samples) and _same_bits(back.samples, ds.samples)
    for got, want in ((back.ids, ref.ids), (back.observed_labels, ref.observed_labels),
                      (back.gt_labels, ref.gt_labels)):
        assert np.array_equal(got, want)
    assert back.num_classes == ref.num_classes == ds.num_classes


def _float_calls(monkeypatch, path):
    """load_dataset(path) and the number of float() calls it made."""
    calls = []

    def counting_float(text):
        calls.append(text)
        return float(text)

    monkeypatch.setattr(dataio, "float", counting_float, raising=False)
    try:
        return load_dataset(path), len(calls)
    finally:
        monkeypatch.delattr(dataio, "float")


def test_load_dataset_parses_each_pixel_text_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(400, 64)) / 255.0
    labels = np.zeros(400, dtype=np.int64)
    save_dataset(LabeledDataset(samples=pixels, observed_labels=labels, gt_labels=None,
                                num_classes=1, ids=np.arange(400, dtype=np.int64)),
                 tmp_path / "pixels")
    back, calls = _float_calls(monkeypatch, tmp_path / "pixels")
    assert _same_bits(back.samples, pixels)
    assert calls < pixels.size / 10
    # with no room in the table, every field is parsed, once
    monkeypatch.setattr(dataio, "_TEXT_TABLE_LIMIT", 0)
    back, calls = _float_calls(monkeypatch, tmp_path / "pixels")
    assert _same_bits(back.samples, pixels)
    assert calls == pixels.size


def test_load_dataset_parses_each_continuous_field_once(tmp_path, monkeypatch):
    # 120 rows of 100 distinct texts fill the table in the first 41 rows, so
    # both a growing and a full table are crossed
    ds = gen_synthetic(SyntheticSpec(num_classes=3, dim=100, per_class=40,
                                     cluster_spread=0.05, seed=2))
    save_dataset(ds, tmp_path / "continuous")
    back, calls = _float_calls(monkeypatch, tmp_path / "continuous")
    assert _same_bits(back.samples, ds.samples)
    assert calls == ds.samples.size


def test_load_dataset_accepts_lf_line_ends(tmp_path):
    path = _saved(tmp_path)
    crlf = load_dataset(path)
    for name in ("samples.csv", "labels.csv"):
        text = (path / name).read_bytes()
        assert text.count(b"\r\n") == 7
        (path / name).write_bytes(text.replace(b"\r\n", b"\n"))
    lf = load_dataset(path)
    assert _same_bits(lf.samples, crlf.samples)
    assert np.array_equal(lf.ids, crlf.ids)
    assert np.array_equal(lf.observed_labels, crlf.observed_labels)
    assert np.array_equal(lf.gt_labels, crlf.gt_labels)


def test_failed_save_leaves_previous_dataset(tmp_path, monkeypatch):
    path = tmp_path / "ds"
    old = _mixed_dataset("C")
    save_dataset(old, path)
    before = dir_bytes(path)
    blocks = []
    format_block = dataio._format_block

    def fail_on_second_block(ids, block):
        blocks.append(len(block))
        if len(blocks) == 2:
            raise RuntimeError("disk gone")
        return format_block(ids, block)

    monkeypatch.setattr(dataio, "_format_block", fail_on_second_block)
    new = gen_synthetic(SyntheticSpec(num_classes=2, dim=3, per_class=200,
                                      cluster_spread=0.05, seed=8))
    with pytest.raises(RuntimeError, match="disk gone"):
        save_dataset(new, path)
    assert blocks == [256, 144]
    assert dir_bytes(path) == before  # no temp file left either
    assert _same_bits(load_dataset(path).samples, old.samples)
