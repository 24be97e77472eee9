import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oat
from oat import dataio, evaluation
from oat.adversary import AttackSpec, pgd_attack
from oat.corruption import ClassCounts
from oat.dataio import (LabeledDataset, SyntheticSpec, gen_synthetic, load_dataset,
                        save_dataset)
from oat.evalcli import _build_parser, cli
from oat.evaluation import (BATCH_SIZE, MetricsRecord, accuracy, distribution_error,
                            evaluate, robust_accuracy)
from oat.models import AT_MODEL, ArchSpec, init_model, load_model, save_model
from oat.oracle import predict_probs
from oat.rng import SplitMix64

from helpers import (TINY_ARCH, dir_bytes, leaves_model_untouched, readme_quickstart,
                     tiny_dataset)


def _separable_model_and_data():
    """Classifier on the first coordinate matching tiny_dataset's three clusters."""
    model = init_model(TINY_ARCH, AT_MODEL, seed=0)
    for w, b in model.encoder:
        w.data[...] = 0.0
        b.data[...] = 0.0
    model.encoder[0][0].data[0, 0] = 1.0  # relu passes x0 >= 0 through
    model.encoder[-1][0].data[0, 0] = 1.0
    model.head[0].data[...] = 0.0
    model.head[0].data[0, :] = [-40.0, 0.0, 40.0]
    model.head[1].data[...] = [14.0, 0.0, -26.0]
    ds = tiny_dataset(n_per_class=6, num_classes=3, dim=5, seed=1)
    return model, ds


def test_evaluate_zero_epsilon_identity_attack():
    model, ds = _separable_model_and_data()
    record = evaluate(model, ds, [AttackSpec(epsilon=0.0, alpha=0.0, steps=1)])
    assert record.clean_accuracy == 1.0
    assert record.robust_accuracy["pgd1"] == 1.0


def test_accuracy_rejects_an_input_with_no_rows():
    model, ds = _separable_model_and_data()
    with pytest.raises(ValueError, match="no rows"):
        accuracy(model, ds.samples[:0], ds.gt_labels[:0])


def test_evaluate_robust_never_exceeds_clean():
    model = init_model(TINY_ARCH, AT_MODEL, seed=3)  # untrained
    ds = tiny_dataset(n_per_class=20, num_classes=3, dim=5, seed=2)
    record = evaluate(model, ds, [AttackSpec(epsilon=0.1, alpha=0.025, steps=4)])
    for ra in record.robust_accuracy.values():
        assert ra <= record.clean_accuracy


def test_evaluate_more_steps_never_helps_much():
    model, ds = _separable_model_and_data()
    weak = AttackSpec(epsilon=0.3, alpha=0.075, steps=4)
    strong = AttackSpec(epsilon=0.3, alpha=0.075, steps=12)
    record = evaluate(model, ds, [weak, strong], seed=3)
    assert record.robust_accuracy["pgd12"] <= record.robust_accuracy["pgd4"] + 0.005


def test_evaluate_deterministic():
    model = init_model(TINY_ARCH, AT_MODEL, seed=4)
    ds = tiny_dataset(n_per_class=110, num_classes=3, dim=5, seed=5)
    assert BATCH_SIZE < len(ds) <= 2 * BATCH_SIZE  # two batches, two attack streams
    spec = AttackSpec(epsilon=0.05, alpha=0.0125, steps=3)
    first = evaluate(model, ds, [spec], seed=1)
    second = evaluate(model, ds, [spec], seed=1)
    assert first.clean_accuracy == second.clean_accuracy
    assert first.robust_accuracy == second.robust_accuracy


def _three_batch_case(seed):
    """A random model and three batches of test rows: the first all right
    clean, the second all wrong clean, the third mixed. The weights are
    scaled up so that predictions vary across rows and an attack flips some
    of them."""
    model = init_model(TINY_ARCH, AT_MODEL, seed=seed)
    for p in model.parameters():
        p.data *= 6.0
    rng = SplitMix64(seed).fork("three_batches")
    n = 2 * BATCH_SIZE + 40
    samples = rng.uniform(n * TINY_ARCH.input_dim).reshape(n, TINY_ARCH.input_dim)
    predicted = predict_probs(model, samples).argmax(axis=1)
    labels = np.array([rng.randint(3) for _ in range(n)], dtype=np.int64)
    labels[:BATCH_SIZE] = predicted[:BATCH_SIZE]
    labels[BATCH_SIZE:2 * BATCH_SIZE] = (predicted[BATCH_SIZE:2 * BATCH_SIZE] + 1) % 3
    ds = LabeledDataset(samples=samples, observed_labels=labels, gt_labels=labels.copy(),
                        num_classes=3, ids=np.arange(n, dtype=np.int64))
    return model, ds


@pytest.mark.parametrize("loss_kind", ["cross_entropy", "cw_margin"])
@pytest.mark.parametrize("random_start", [True, False])
def test_robust_accuracy_is_between_zero_and_clean_accuracy(loss_kind, random_start):
    spec = AttackSpec(epsilon=0.2, alpha=0.05, steps=4, loss_kind=loss_kind,
                      random_start=random_start)
    for seed in (1, 2, 3):
        model, ds = _three_batch_case(seed)
        got = robust_accuracy(model, ds, spec, seed)
        assert 0 < got < accuracy(model, ds.samples, ds.gt_labels)


def test_robust_accuracy_attacks_only_the_rows_right_clean(monkeypatch):
    model, ds = _three_batch_case(2)
    calls = []

    def spy(model, x, y, spec, rng=None, prior=None):
        calls.append((x, y))
        return pgd_attack(model, x, y, spec, rng, prior)

    monkeypatch.setattr(evaluation, "pgd_attack", spy)
    robust_accuracy(model, ds, AttackSpec(epsilon=0.1, alpha=0.025, steps=2), 0)
    right = predict_probs(model, ds.samples).argmax(axis=1) == ds.gt_labels
    # the second batch is all wrong clean, so it runs no attack
    assert len(calls) == 2
    for (x, y), start in zip(calls, (0, 2 * BATCH_SIZE)):
        batch = slice(start, start + BATCH_SIZE)
        assert np.array_equal(x, ds.samples[batch][right[batch]])
        assert np.array_equal(y, ds.gt_labels[batch][right[batch]])
    assert len(calls[0][0]) == BATCH_SIZE and 0 < len(calls[1][0]) < 40


def test_evaluation_feeds_no_gradient_into_the_model(tmp_path):
    # the training loop runs robust_accuracy on the test set every epoch, and
    # oat eval runs evaluate on a loaded checkpoint: neither may train it
    model = init_model(TINY_ARCH, AT_MODEL, seed=4)
    ds = tiny_dataset(n_per_class=10, num_classes=3, dim=5, seed=5)
    spec = AttackSpec(epsilon=0.05, alpha=0.0125, steps=3)
    with leaves_model_untouched(model):
        robust_accuracy(model, ds, spec, 1)
    save_model(model, tmp_path / "ckpt")
    loaded = load_model(tmp_path / "ckpt")
    with leaves_model_untouched(loaded):
        evaluate(loaded, ds, [spec, AttackSpec(epsilon=0.05, alpha=0.0125, steps=3,
                                               loss_kind="cw_margin")])


@pytest.mark.parametrize("rows,labelled,named", [
    (0, True, "non-empty test set"),
    (None, False, "requires gt_labels"),
])
def test_evaluate_rejects_unevaluable_test_set(rows, labelled, named):
    model, ds = _separable_model_and_data()
    test = LabeledDataset(samples=ds.samples[:rows], observed_labels=ds.observed_labels[:rows],
                          gt_labels=ds.gt_labels[:rows] if labelled else None,
                          num_classes=ds.num_classes, ids=ds.ids[:rows])
    with pytest.raises(ValueError, match=named):
        evaluate(model, test, [AttackSpec(epsilon=0.1, alpha=0.025, steps=2)])


def test_metrics_record_invariant():
    with pytest.raises(ValueError, match="exceeds clean"):
        MetricsRecord(clean_accuracy=0.5, robust_accuracy={"pgd20": 0.6})


def test_distribution_error_values():
    assert distribution_error((1, 1), (5, 5)) == 0.0
    assert distribution_error((10, 0), (0, 10)) == 1.0
    assert distribution_error((450, 550), (500, 500)) == pytest.approx(0.05)
    assert distribution_error(ClassCounts((450, 550)).counts,
                              ClassCounts((500, 500)).counts) == pytest.approx(0.05)
    with pytest.raises(ValueError, match="length"):
        distribution_error((1, 2), (1, 2, 3))
    with pytest.raises(ValueError, match="positive"):
        distribution_error((0, 0), (1, 1))


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def _make_dataset_dir(tmp_path, name, per_class=30, seed=0):
    ds = gen_synthetic(SyntheticSpec(num_classes=3, dim=6, per_class=per_class,
                                     cluster_spread=0.05, seed=seed))
    save_dataset(ds, tmp_path / name)
    return tmp_path / name


def test_cli_usage_errors_exit_1(capsys):
    assert cli(["corrupt", "--bogus"]) == 1
    assert cli(["nonsense"]) == 1
    assert cli(["report", "--run", "runs/demo", "--emit", "json"]) == 1  # JSON only


def test_cli_train_unknown_config_key_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"epochs": 2, "bogus": 1}))
    data = _make_dataset_dir(tmp_path, "data", per_class=4)
    code = cli(["train", "--config", str(config), "--data", str(data),
                "--test", str(data), "--out", str(tmp_path / "run")])
    assert code == 1
    assert "unknown config key(s): bogus" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_corrupt_malformed_pairs_exits_1(tmp_path, capsys):
    data = _make_dataset_dir(tmp_path, "pairs", per_class=4)
    code = cli(["corrupt", "--input", str(data), "--noise", "asymmetric", "--nr", "0.5",
                "--pairs", "0-1", "--output", str(tmp_path / "out")])
    assert code == 1
    assert "expected pairs like 0:1,2:3, got '0-1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("input_name,flags,named", [
    ("data", ["--nr", "0.4"], "target_nr 0.4 needs a noise type, got 'none'"),
    ("data", ["--noise", "asymmetric", "--nr", "0.4", "--pairs", "0:1,0:2"],
     "asym pairs name source class 0 more than once"),
    ("data", ["--noise", "symmetric", "--nr", "1"],
     "corruption key 'target_nr' must lie in [0, 1), got 1.0"),
    ("data", ["--ir", "0"], "corruption key 'target_ir' must lie in (0, 1], got 0.0"),
    # the spec is checked before --input is read
    ("missing", ["--ir", "0"], "corruption key 'target_ir' must lie in (0, 1], got 0.0"),
], ids=["nr-without-noise", "repeated-pair-source", "nr-1", "ir-0", "ir-0-missing-input"])
def test_cli_corrupt_rejected_spec_exits_1(tmp_path, capsys, input_name, flags, named):
    _make_dataset_dir(tmp_path, "data", per_class=4)
    code = cli(["corrupt", "--input", str(tmp_path / input_name), *flags,
                "--output", str(tmp_path / "out")])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,named", [
    ('{"epochs": "ten"}', "config key 'epochs' must be int, got 'ten'"),
    ('{"epochs": 2,', "Expecting property name"),
    ("[1, 2]", "--config must hold a JSON object"),
    ('{"lr": NaN}', "config key 'lr' must be float, got nan"),
    ('{"attack": {"epsilon": Infinity, "alpha": 0.1, "steps": 3}}',
     "attack key 'epsilon' must be float, got inf"),
    ('{"refurbish_against_original": true}',
     "unknown config key(s): refurbish_against_original"),
    ('{"augment": {"weak": ["jitter"]}}', "unknown augment key(s): weak"),
    ('{"augment": {"strong": ["erase"]}}', "unknown augment key(s): strong"),
    ('{"epochs": 0, "lr_decay_epochs": []}', "config key 'epochs' must be at least 1, got 0"),
    ('{"batch_size": 0}', "config key 'batch_size' must be at least 1, got 0"),
    ('{"k": 0}', "config key 'k' must be at least 1, got 0"),
    ('{"eval_steps": 0}', "config key 'eval_steps' must be at least 1, got 0"),
    ('{"theta_r": 1.5}', "config key 'theta_r' must lie in (0, 1], got 1.5"),
    ('{"augment": {"erase_prob": -3}}', "unknown augment key(s): erase_prob"),
    ('{"attack": {"epsilon": 0.03, "alpha": 0.01, "steps": 2, "adjustment": [1, 2, 3]}}',
     "unknown attack key(s): adjustment"),
])
def test_cli_train_malformed_config_exits_1(tmp_path, capsys, text, named):
    config = tmp_path / "config.json"
    config.write_text(text)
    data = _make_dataset_dir(tmp_path, "data", per_class=4)
    code = cli(["train", "--config", str(config), "--data", str(data),
                "--test", str(data), "--method", "oat", "--out", str(tmp_path / "run")])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("eps", ["nan", "inf", "-0.1"])
def test_cli_eval_rejects_bad_eps_exits_1(tmp_path, capsys, eps):
    code = cli(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(tmp_path / "data"),
                "--eps", eps])
    assert code == 1
    assert f"argument --eps: expected a finite, nonnegative radius, got '{eps}'" in \
        capsys.readouterr().err


def test_cli_runtime_errors_exit_2(tmp_path, capsys):
    assert cli(["report", "--run", str(tmp_path / "missing")]) == 2


def test_cli_train_malformed_meta_exits_2(tmp_path, capsys):
    data = _make_dataset_dir(tmp_path, "data", per_class=4)
    meta = json.loads((data / "meta.json").read_text())
    del meta["count"]
    (data / "meta.json").write_text(json.dumps(meta))
    code = cli(["train", "--data", str(data), "--test", str(data), "--method", "oat",
                "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"{data / 'meta.json'}: missing dataset key(s): count" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "corrupt"])
def test_cli_names_a_truncated_meta_json_exits_2(tmp_path, capsys, command):
    data = _make_dataset_dir(tmp_path, "data", per_class=4)
    meta = data / "meta.json"
    meta.write_text(meta.read_text()[:24])
    args = {"train": ["--data", str(data), "--test", str(data), "--out", str(tmp_path / "out")],
            "corrupt": ["--input", str(data), "--output", str(tmp_path / "out")]}[command]
    assert cli([command, *args]) == 2
    assert capsys.readouterr().err == (f"oat: error: {meta} line 3, column 3: "
                                       "Unterminated string starting at\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text,named", [
    ('{"epochs": "ten"}', "config key 'epochs' must be int, got 'ten'"),
    ("[1, 2]", "--config must hold a JSON object"),
], ids=["bad-value", "not-an-object"])
def test_cli_train_names_a_config_it_rejects_exits_1(tmp_path, capsys, text, named):
    config = tmp_path / "config.json"
    config.write_text(text)
    data = _make_dataset_dir(tmp_path, "data", per_class=4)
    code = cli(["train", "--config", str(config), "--data", str(data),
                "--test", str(data), "--method", "pgd-at", "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == f"oat: error: {config}: {named}\n"
    assert not (tmp_path / "run").exists()


def test_cli_train_names_a_truncated_config_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{\n  "epochs": 2,\n  "lr_decay')
    data = _make_dataset_dir(tmp_path, "data", per_class=4)
    code = cli(["train", "--config", str(config), "--data", str(data),
                "--test", str(data), "--out", str(tmp_path / "run")])
    assert code == 1
    assert capsys.readouterr().err == (f"oat: error: {config} line 3, column 3: "
                                       "Unterminated string starting at\n")
    assert not (tmp_path / "run").exists()


def test_cli_corrupt_then_report_provenance(tmp_path, capsys):
    data = _make_dataset_dir(tmp_path, "clean", per_class=40)
    out = tmp_path / "noisy"
    code = cli(["corrupt", "--input", str(data), "--noise", "symmetric",
                "--nr", "0.4", "--ir", "0.1", "--seed", "3",
                "--output", str(out)])
    assert code == 0
    capsys.readouterr()
    assert cli(["report", "--run", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["provenance"]["realized_nr"] == 0.4
    loaded = load_dataset(out)
    assert loaded.num_classes == 3


def test_cli_corrupt_asymmetric_pairs(tmp_path, capsys):
    data = _make_dataset_dir(tmp_path, "clean2", per_class=20)
    out = tmp_path / "asym"
    code = cli(["corrupt", "--input", str(data), "--noise", "asymmetric",
                "--nr", "0.5", "--pairs", "0:1,1:2", "--seed", "1",
                "--output", str(out)])
    assert code == 0
    ds = load_dataset(out)
    moved = (ds.gt_labels == 0) & (ds.observed_labels == 1)
    assert moved.sum() == 10


def test_cli_full_chain(tmp_path, capsys):
    """corrupt -> train -> eval -> report without manual edits."""
    data = _make_dataset_dir(tmp_path, "chain", per_class=25, seed=2)
    test_dir = _make_dataset_dir(tmp_path, "chain_test", per_class=8, seed=7)
    noisy = tmp_path / "chain_noisy"
    assert cli(["corrupt", "--input", str(data), "--noise", "symmetric",
                "--nr", "0.2", "--ir", "1.0", "--seed", "2",
                "--output", str(noisy)]) == 0

    config = {
        "epochs": 2, "batch_size": 16, "lr": 0.01, "seed": 1,
        "lr_decay_epochs": [], "k": 5, "encoder_widths": [8], "feature_dim": 6,
        "eval_steps": 2,
        "attack": {"epsilon": 0.03, "alpha": 0.01, "steps": 2},
        "augment": {"flip_prob": 0.0},
    }
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    run = tmp_path / "run"
    assert cli(["train", "--config", str(config_file), "--data", str(noisy),
                "--test", str(test_dir), "--method", "oat", "--out", str(run)]) == 0
    capsys.readouterr()

    out_file = tmp_path / "metrics.json"
    assert cli(["eval", "--checkpoint", str(run / "best"), "--data", str(test_dir),
                "--attack", "pgd20", "--eps", "0.031373", "--out", str(out_file)]) == 0
    capsys.readouterr()
    metrics = json.loads(out_file.read_text())
    assert 0.0 <= metrics["robust_accuracy"]["pgd20"] <= metrics["clean_accuracy"]

    assert cli(["report", "--run", str(run)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["epochs"]) == 2
    assert report["distribution"]["epoch"] == 1
    assert report["distribution"]["estimated_total"] == 75  # |S| of the train dir
    rows = report["distribution"]["rows"]
    assert [row["class"] for row in rows] == [0, 1, 2]
    assert sum(row["gt_count"] for row in rows) == 75
    assert all(isinstance(row[key], int) for row in rows
               for key in ("prior_count", "estimated_count", "gt_count"))


def _oat_record(epoch, estimated, gt):
    return {"epoch": epoch, "clean_accuracy": 0.5, "robust_accuracy": {"pgd20": 0.25},
            "refurbished_nr": 0.1, "prior_counts": [6, 3, 1],
            "estimated_counts": estimated, "gt_counts": gt}


def test_cli_report_distribution_comes_from_the_last_non_error_record(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    records = [_oat_record(0, [5, 4, 1], None), _oat_record(1, [4, 4, 2], None),
               {"epoch": 2, "error": "non-finite oracle loss"}]
    (run / "metrics.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert cli(["report", "--run", str(run)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["epochs"][-1] == {"epoch": 2, "error": "non-finite oracle loss"}
    assert report["distribution"] == {
        "epoch": 1,
        "rows": [{"class": 0, "prior_count": 6, "estimated_count": 4, "gt_count": None},
                 {"class": 1, "prior_count": 3, "estimated_count": 4, "gt_count": None},
                 {"class": 2, "prior_count": 1, "estimated_count": 2, "gt_count": None}],
        "estimated_total": 10,
    }


def test_cli_report_names_the_line_it_cannot_parse_exits_2(tmp_path, capsys):
    # a run killed mid-write leaves a partial last line
    run = tmp_path / "run"
    run.mkdir()
    record = json.dumps({"epoch": 0, "clean_accuracy": 0.5, "robust_accuracy": {}})
    (run / "metrics.jsonl").write_text(record + "\n" + record[:20])
    assert cli(["report", "--run", str(run)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"oat: error: {run / 'metrics.jsonl'} line 2, column 14: ")


@pytest.mark.parametrize("name", ["summary.json", "corruption.json"])
def test_cli_report_names_the_truncated_json_file_exits_2(tmp_path, capsys, name):
    run = tmp_path / "run"
    run.mkdir()
    (run / name).write_text('{\n  "realized_nr": 0.4,\n  "seed": "se')
    assert cli(["report", "--run", str(run)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"oat: error: {run / name} line 3, column 11: ")


@pytest.mark.parametrize("record,complaint", [
    ({"epoch": 0, "clean_accuracy": 0.5}, "record has no 'robust_accuracy'"),
    ({"clean_accuracy": 0.5, "robust_accuracy": {}}, "record has no 'epoch'"),
    ({k: v for k, v in _oat_record(0, [5, 4, 1], None).items() if k != "prior_counts"},
     "record has no 'prior_counts'"),
    ([0, 0.5], "record is not a JSON object"),
    ("an error", "record is not a JSON object"),
    (_oat_record(0, [5, 4], None),
     "prior_counts, estimated_counts, gt_counts differ in length"),
])
def test_cli_report_names_the_record_it_cannot_read_exits_2(tmp_path, capsys, record,
                                                           complaint):
    run = tmp_path / "run"
    run.mkdir()
    good = {"epoch": 0, "clean_accuracy": 0.5, "robust_accuracy": {}}
    (run / "metrics.jsonl").write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    assert cli(["report", "--run", str(run)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oat: error: {run / 'metrics.jsonl'} line 2: {complaint}\n"


_WRONG_TYPES = {
    "clean_accuracy": ("0.5", 'must be a number, got "0.5"'),
    "robust_accuracy": ([0.25], "must be an object of numbers, got [0.25]"),
    "refurbished_nr": ("0.1", 'must be a number or null, got "0.1"'),
    "prior_counts": (6, "must be a list of integers, got 6"),
    "estimated_counts": ([5, "4", 1], 'must be a list of integers, got [5, "4", 1]'),
    "gt_counts": ({"0": 5}, 'must be a list of integers or null, got {"0": 5}'),
    "dist_l1_prior": (None, "must be a number, got null"),
    "dist_l1_estimated": (True, "must be a number, got true"),
}


@pytest.mark.parametrize("key", _WRONG_TYPES)
def test_cli_report_names_the_key_of_a_value_of_the_wrong_type_exits_2(tmp_path, capsys, key):
    run = tmp_path / "run"
    run.mkdir()
    good = {**_oat_record(0, [5, 4, 1], [5, 4, 1]), "dist_l1_prior": 0.1,
            "dist_l1_estimated": 0.05}
    value, complaint = _WRONG_TYPES[key]
    lines = [json.dumps(good), json.dumps({**good, "epoch": 1, key: value})]
    (run / "metrics.jsonl").write_text("\n".join(lines) + "\n")
    assert cli(["report", "--run", str(run)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oat: error: {run / 'metrics.jsonl'} line 2: {key!r} {complaint}\n"


def test_cli_report_pgd_at_run_has_no_distribution(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    record = {"epoch": 0, "clean_accuracy": 0.5, "robust_accuracy": {"pgd20": 0.25}}
    (run / "metrics.jsonl").write_text(json.dumps(record) + "\n")
    assert cli(["report", "--run", str(run)]) == 0
    assert "distribution" not in json.loads(capsys.readouterr().out)


def test_cli_eval_attack_none(tmp_path, capsys):
    data = _make_dataset_dir(tmp_path, "evalnone", per_class=10, seed=3)
    run = tmp_path / "runx"
    config = {"epochs": 1, "batch_size": 16, "lr": 0.01, "seed": 0,
              "lr_decay_epochs": [], "k": 3, "encoder_widths": [6],
              "feature_dim": 5, "eval_steps": 1, "method": "pgd_at",
              "attack": {"epsilon": 0.03, "alpha": 0.01, "steps": 1}}
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    assert cli(["train", "--config", str(config_file), "--data", str(data),
                "--test", str(data), "--out", str(run)]) == 0
    capsys.readouterr()
    assert cli(["eval", "--checkpoint", str(run / "last"), "--data", str(data),
                "--attack", "none"]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["robust_accuracy"] == {}
    assert metrics["clean_accuracy"] >= 0.0


@pytest.mark.parametrize("dim,classes,attack,named", [
    (4, 5, "none", "the test set has dim 4 and 5 classes; the model expects dim 4 and 3 classes"),
    (4, 5, "pgd20", "the test set has dim 4 and 5 classes; the model expects dim 4 and 3 classes"),
    (6, 3, "pgd20", "the test set has dim 6 and 3 classes; the model expects dim 4 and 3 classes"),
])
def test_cli_eval_rejects_a_test_set_the_checkpoint_does_not_fit_exits_2(
        tmp_path, capsys, dim, classes, attack, named):
    arch = ArchSpec(input_dim=4, encoder_widths=(6,), feature_dim=5, num_classes=3)
    save_model(init_model(arch, AT_MODEL, seed=0), tmp_path / "ckpt")
    save_dataset(gen_synthetic(SyntheticSpec(num_classes=classes, dim=dim,
                                             per_class=100 // classes, cluster_spread=0.05,
                                             seed=1)),
                 tmp_path / "test")
    assert cli(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data",
                str(tmp_path / "test"), "--attack", attack]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"oat: error: {named}\n"


def test_cli_eval_rejects_cw_on_a_one_class_checkpoint_exits_2(tmp_path, capsys):
    arch = ArchSpec(input_dim=4, encoder_widths=(6,), feature_dim=5, num_classes=1)
    save_model(init_model(arch, AT_MODEL, seed=0), tmp_path / "ckpt")
    save_dataset(tiny_dataset(num_classes=1, dim=4), tmp_path / "test")
    argv = ["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(tmp_path / "test")]
    assert cli(argv + ["--attack", "cw100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("oat: error: the cw_margin loss needs at least 2 classes, "
                            "the model has 1\n")
    assert cli(argv + ["--attack", "pgd20"]) == 0


def test_cli_eval_rejects_a_malformed_checkpoint_manifest_exits_2(tmp_path, capsys):
    save_model(init_model(TINY_ARCH, AT_MODEL, seed=0), tmp_path / "ckpt")
    save_dataset(tiny_dataset(dim=5), tmp_path / "test")
    manifest = json.loads((tmp_path / "ckpt" / "checkpoint.json").read_text())
    manifest["arch"]["input_dim"] = 5.0
    (tmp_path / "ckpt" / "checkpoint.json").write_text(json.dumps(manifest))
    assert cli(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data",
                str(tmp_path / "test"), "--attack", "none"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"oat: error: {tmp_path / 'ckpt' / 'checkpoint.json'}: "
                            "arch key 'input_dim' must be int, got 5.0\n")


def test_cli_eval_names_a_truncated_checkpoint_manifest_exits_2(tmp_path, capsys):
    save_model(init_model(TINY_ARCH, AT_MODEL, seed=0), tmp_path / "ckpt")
    save_dataset(tiny_dataset(dim=5), tmp_path / "test")
    manifest = tmp_path / "ckpt" / "checkpoint.json"
    manifest.write_text(manifest.read_text()[:40])
    assert cli(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data",
                str(tmp_path / "test"), "--attack", "none"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"oat: error: {manifest} line 4, column 1: "
                            "Expecting property name enclosed in double quotes\n")


def test_cli_train_refuses_a_directory_holding_another_file_exits_2(tmp_path, capsys):
    data = _make_dataset_dir(tmp_path, "foreign", per_class=4, seed=3)
    run = tmp_path / "run"
    run.mkdir()
    (run / "eval.json").write_text("{}")
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({"epochs": 1, "lr_decay_epochs": []}))
    assert cli(["train", "--config", str(config_file), "--data", str(data),
                "--test", str(data), "--out", str(run)]) == 2
    assert "holds 'eval.json'" in capsys.readouterr().err
    assert [p.name for p in run.iterdir()] == ["eval.json"]


def _rows(ds: LabeledDataset, keep: np.ndarray) -> LabeledDataset:
    return LabeledDataset(samples=ds.samples[keep], observed_labels=ds.observed_labels[keep],
                          gt_labels=ds.gt_labels[keep], num_classes=ds.num_classes,
                          ids=ds.ids[keep])


@pytest.mark.parametrize("method,rows,named", [
    ("pgd-at", "none", "the training set has no rows"),
    ("oat", "none", "the training set has no rows"),
    ("oat", "no class 2", "cannot oversample: class 2 has no samples"),
])
def test_cli_train_rejects_a_bad_training_set_before_touching_the_run(
        tmp_path, capsys, method, rows, named):
    data = _make_dataset_dir(tmp_path, "data", per_class=6, seed=3)
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps({
        "epochs": 1, "batch_size": 16, "lr_decay_epochs": [], "k": 3, "encoder_widths": [6],
        "feature_dim": 5, "eval_steps": 1, "attack": {"epsilon": 0.03, "alpha": 0.01,
                                                      "steps": 1}}))
    run = tmp_path / "run"
    argv = ["train", "--config", str(config_file), "--test", str(data), "--method", method,
            "--out", str(run)]
    assert cli(argv + ["--data", str(data)]) == 0
    before = dir_bytes(run)
    ds = load_dataset(data)
    keep = np.zeros(len(ds), bool) if rows == "none" else ds.observed_labels != 2
    save_dataset(_rows(ds, keep), tmp_path / "bad")
    capsys.readouterr()
    assert cli(argv + ["--data", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err == f"oat: error: {named}\n"
    assert dir_bytes(run) == before


def test_cli_eval_out_creates_its_directory(tmp_path, capsys):
    model, ds = _separable_model_and_data()
    save_model(model, tmp_path / "ckpt")
    save_dataset(ds, tmp_path / "data")
    out_file = tmp_path / "reports" / "seed0" / "metrics.json"
    assert cli(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(tmp_path / "data"),
                "--attack", "none", "--out", str(out_file)]) == 0
    printed = capsys.readouterr().out
    assert out_file.read_text() == printed
    assert [p.name for p in out_file.parent.iterdir()] == ["metrics.json"]


def test_cli_train_determinism(tmp_path, capsys):
    data = _make_dataset_dir(tmp_path, "det", per_class=12, seed=4)
    config = {"epochs": 2, "batch_size": 16, "lr": 0.01, "seed": 5,
              "lr_decay_epochs": [], "k": 3, "encoder_widths": [6],
              "feature_dim": 5, "eval_steps": 2,
              "attack": {"epsilon": 0.03, "alpha": 0.01, "steps": 2},
              "augment": {"flip_prob": 0.0}}
    config_file = tmp_path / "cfg.json"
    config_file.write_text(json.dumps(config))
    for name in ("r1", "r2"):
        assert cli(["train", "--config", str(config_file), "--data", str(data),
                    "--test", str(data), "--method", "oat",
                    "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "r1" / "metrics.jsonl").read_text() == \
        (tmp_path / "r2" / "metrics.jsonl").read_text()


def _fail_writing(monkeypatch, name):
    """Make Path.write_text to any file whose name holds ``name`` write half
    of its text and then fail."""
    write_text = Path.write_text

    def write_half_then_fail(self, data, *args, **kwargs):
        if name not in self.name:
            return write_text(self, data, *args, **kwargs)
        write_text(self, data[:len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)


@pytest.mark.parametrize("fail_in", ["corruption.json", "dataset"])
def test_failed_corrupt_leaves_previous_output(tmp_path, monkeypatch, capsys, fail_in):
    data = _make_dataset_dir(tmp_path, "clean", per_class=100)
    out = tmp_path / "noisy"
    argv = ["corrupt", "--input", str(data), "--noise", "symmetric", "--nr", "0.2",
            "--output", str(out)]
    assert cli(argv + ["--seed", "1"]) == 0
    before = dir_bytes(out)
    if fail_in == "corruption.json":
        _fail_writing(monkeypatch, "corruption.json")
    else:
        def fail(ids, block):
            raise OSError("disk full")
        monkeypatch.setattr(dataio, "_format_block", fail)
    capsys.readouterr()
    assert cli(argv + ["--seed", "2"]) == 2
    assert "disk full" in capsys.readouterr().err
    assert dir_bytes(out) == before  # no temp file left either


def test_failed_eval_out_leaves_previous_file(tmp_path, monkeypatch, capsys):
    model, ds = _separable_model_and_data()
    save_model(model, tmp_path / "ckpt")
    save_dataset(ds, tmp_path / "data")
    out_file = tmp_path / "metrics.json"
    out_file.write_text("previous\n")
    _fail_writing(monkeypatch, "metrics.json")
    assert cli(["eval", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(tmp_path / "data"),
                "--attack", "none", "--out", str(out_file)]) == 2
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "data", "metrics.json"]
    assert out_file.read_bytes() == b"previous\n"


def test_python_dash_m_runs_the_cli(tmp_path):
    run = tmp_path / "run"
    run.mkdir()
    record = {"epoch": 0, "clean_accuracy": 0.5, "robust_accuracy": {"pgd20": 0.25}}
    (run / "metrics.jsonl").write_text(json.dumps(record) + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(oat.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "oat.evalcli",
                           "report", "--run", str(run)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["epochs"][0]["robust_pgd20"] == 0.25


def test_readme_cli_commands_parse():
    _, commands = readme_quickstart()
    assert [argv[0] for argv in commands] == ["corrupt", "train", "eval", "report"]
    for argv in commands:
        _build_parser().parse_args(argv)  # a usage error exits 1
