import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oat
from oat import autodiff as ad
from oat import trainer
from oat.adversary import AttackSpec
from oat.autodiff import Value
from oat.corruption import ClassCounts, apply_symmetric_noise, class_counts
from oat.dataio import SyntheticSpec, gen_synthetic, save_dataset
from oat.evalcli import cli
from oat.evaluation import distribution_error
from oat.models import AT_MODEL, ORACLE, forward_logits, init_model, load_model
from oat.oracle import AugmentationPolicy, predict_probs
from oat.rng import SplitMix64
from oat.trainer import (TrainConfig, adjust_logits, at_model_loss,
                         estimate_label_distribution, lr_at_epoch, train)

from helpers import SMALL_RUN_AUGMENT, TINY_ARCH, dir_bytes, readme_block, tiny_dataset


def _fast_config(**overrides):
    base = dict(epochs=3, batch_size=16, lr=0.01, momentum=0.9, seed=0,
                lr_decay_epochs=(2,), theta_r=0.8, k=5,
                encoder_widths=(12,), feature_dim=8,
                attack=AttackSpec(epsilon=0.03, alpha=0.01, steps=2),
                augment=SMALL_RUN_AUGMENT,
                eval_steps=3)
    base.update(overrides)
    return TrainConfig(**base)


def _records(run: Path) -> list[dict]:
    return [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]


def _small_data(seed=0):
    train_ds = gen_synthetic(SyntheticSpec(num_classes=3, dim=6, per_class=20,
                                           cluster_spread=0.05, seed=seed))
    test_ds = gen_synthetic(SyntheticSpec(num_classes=3, dim=6, per_class=8,
                                          cluster_spread=0.05, seed=seed + 100))
    return train_ds, test_ds


# ---------------------------------------------------------------------------
# label distribution and adjustment
# ---------------------------------------------------------------------------

def test_estimate_distribution_partitions_dataset():
    oracle = init_model(TINY_ARCH, ORACLE, seed=1)
    ds = tiny_dataset(n_per_class=7, num_classes=3, dim=5)
    dist = estimate_label_distribution(oracle, ds)
    assert isinstance(dist, ClassCounts)
    assert sum(dist.counts) == len(ds)
    assert np.all(dist.smoothed >= 1.0)


def test_estimate_distribution_constant_oracle_ties_to_class_zero():
    oracle = init_model(TINY_ARCH, ORACLE, seed=2)
    for w, b in oracle.encoder:
        w.data[...] = 0.0
        b.data[...] = 0.0
    oracle.head[0].data[...] = 0.0
    oracle.head[1].data[...] = 0.0  # identical logits -> argmax 0 everywhere
    ds = tiny_dataset(n_per_class=4, num_classes=3, dim=5)
    dist = estimate_label_distribution(oracle, ds)
    assert dist.counts == (len(ds), 0, 0)
    assert dist.smoothed.tolist() == [float(len(ds)), 1.0, 1.0]


def test_adjust_logits_uniform_preserves_argmax():
    rng = SplitMix64(1).fork("rows")
    rows = rng.uniform_range(200 * 4, -5, 5).reshape(200, 4)
    dist = ClassCounts((25, 25, 25, 25))
    adjusted = adjust_logits(Value(rows), dist)
    assert np.array_equal(adjusted.data.argmax(axis=1), rows.argmax(axis=1))


def test_adjust_logits_flip_example():
    dist = ClassCounts((900, 100))
    adjusted = adjust_logits(Value(np.array([[0.0, 2.0]])), dist)
    assert adjusted.data[0, 0] == pytest.approx(math.log(900.0))          # 6.8024
    assert adjusted.data[0, 1] == pytest.approx(2.0 + math.log(100.0))    # 6.6052
    assert adjusted.data[0].argmax() == 0  # argmax flips to the majority class
    assert np.array([[0.0, 2.0]]).argmax() == 1


def test_adjust_logits_zero_count_smoothed():
    dist = ClassCounts((10, 0))
    adjusted = adjust_logits(Value(np.array([[1.0, 1.0]])), dist)
    assert adjusted.data[0, 1] == pytest.approx(1.0)  # log(1) = 0 contribution


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_lr_schedule_paper_shape():
    config = _fast_config(epochs=200, lr=0.1, lr_decay_epochs=(100, 150),
                          lr_decay_factor=0.1)
    assert lr_at_epoch(config, 99) == pytest.approx(0.1)
    assert lr_at_epoch(config, 100) == pytest.approx(0.01)
    assert lr_at_epoch(config, 150) == pytest.approx(0.001)
    with pytest.raises(ValueError):
        lr_at_epoch(config, 200)


def test_config_validation():
    with pytest.raises(ValueError):
        _fast_config(epochs=3, lr_decay_epochs=(5,))
    with pytest.raises(ValueError):
        _fast_config(lr_decay_epochs=(2, 1), epochs=5)
    with pytest.raises(ValueError):
        _fast_config(method="trades")


def test_short_run_with_default_decay_names_both_values():
    # the default decay epochs (30, 45) fit only runs longer than 45 epochs
    with pytest.raises(ValueError, match=r"lr_decay_epochs=\[30, 45\] must all be < "
                                         r"epochs=12; set lr_decay_epochs together"):
        TrainConfig(epochs=12)
    assert TrainConfig(epochs=12, lr_decay_epochs=()).epochs == 12


def test_config_roundtrip_through_dict():
    config = _fast_config(attack=AttackSpec(epsilon=0.1, alpha=0.02, steps=7,
                                            loss_kind="cw_margin"))
    back = TrainConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert back == config


def test_readme_run_config_builds():
    # the README lists TrainConfig's defaults, and its example sets none of them
    defaults = json.loads(readme_block("`oat train --config` reads", "json"))
    assert defaults == json.loads(json.dumps(TrainConfig().to_dict()))
    example = json.loads(readme_block("Example `run_config.json`", "json"))
    assert all(defaults[key] != value for key, value in example.items())
    assert TrainConfig.from_dict(example) == TrainConfig(seed=1)


@pytest.mark.parametrize("overrides,named", [
    ({"bogus": 1, "epochs": 3}, "unknown config key(s): bogus"),
    ({"attack": {"epsilon": 0.1, "alpha": 0.02, "steps": 7, "stepz": 2}},
     "unknown attack key(s): stepz"),
    ({"augment": {"jitter": 0.1}}, "unknown augment key(s): jitter"),
    ({"refurbish_against_original": True}, "unknown config key(s): refurbish_against_original"),
    ({"augment": {"weak": ["jitter"]}}, "unknown augment key(s): weak"),
    ({"augment": {"strong": ["erase"]}}, "unknown augment key(s): strong"),
])
def test_config_from_dict_rejects_unknown_keys(overrides, named):
    with pytest.raises(ValueError) as err:
        TrainConfig.from_dict(overrides)
    assert str(err.value) == named


@pytest.mark.parametrize("overrides,named", [
    ({"epochs": "ten"}, "config key 'epochs' must be int, got 'ten'"),
    ({"attack": [1, 2]}, "config key 'attack' must be AttackSpec, got [1, 2]"),
    ({"lr": math.nan}, "config key 'lr' must be float, got nan"),
    ({"attack": {"epsilon": math.inf, "alpha": 0.1, "steps": 3}},
     "attack key 'epsilon' must be float, got inf"),
    ({"augment": {"scale_amp": -math.inf}},
     "augment key 'scale_amp' must be float, got -inf"),
    ({"epochs": 0}, "config key 'epochs' must be at least 1, got 0"),
    ({"batch_size": 0}, "config key 'batch_size' must be at least 1, got 0"),
    ({"k": -2}, "config key 'k' must be at least 1, got -2"),
    ({"eval_steps": 0}, "config key 'eval_steps' must be at least 1, got 0"),
    ({"theta_r": 1.5}, "config key 'theta_r' must lie in (0, 1], got 1.5"),
    ({"theta_r": 0.0}, "config key 'theta_r' must lie in (0, 1], got 0.0"),
    ({"augment": {"flip_prob": -0.1}}, "augment key 'flip_prob' must lie in [0, 1], got -0.1"),
    ({"augment": {"erase_prob": -3.0}}, "unknown augment key(s): erase_prob"),
    ({"augment": {"erase_frac": 1.5}}, "augment key 'erase_frac' must lie in [0, 1], got 1.5"),
    ({"augment": {"jitter_amp": -0.01}},
     "augment key 'jitter_amp' must be nonnegative, got -0.01"),
    ({"augment": {"scale_amp": -1}}, "augment key 'scale_amp' must be nonnegative, got -1"),
    ({"attack": {"epsilon": 0.1, "alpha": 0.02, "steps": 7, "adjustment": [3.0, 2.0, 1.0]}},
     "unknown attack key(s): adjustment"),
    ({"method": "pgd_at", "attack": {"epsilon": 0.1, "alpha": 0.02, "steps": 7,
                                     "adjustment": [1.0, 1.0]}},
     "unknown attack key(s): adjustment"),
    ({"lr": -0.05}, "config key 'lr' must be positive, got -0.05"),
    ({"lr": 0}, "config key 'lr' must be positive, got 0"),
    ({"momentum": -1}, "config key 'momentum' must lie in [0, 1), got -1"),
    ({"momentum": 1.0}, "config key 'momentum' must lie in [0, 1), got 1.0"),
    ({"weight_decay": -1}, "config key 'weight_decay' must be nonnegative, got -1"),
    ({"lr_decay_factor": -1}, "config key 'lr_decay_factor' must lie in (0, 1], got -1"),
    ({"lr_decay_factor": 0.0}, "config key 'lr_decay_factor' must lie in (0, 1], got 0.0"),
    ({"lr_decay_factor": 1.5}, "config key 'lr_decay_factor' must lie in (0, 1], got 1.5"),
    ({"feature_dim": 0}, "config key 'feature_dim' must be at least 1, got 0"),
    ({"encoder_widths": [0]}, "config key 'encoder_widths' must all be at least 1, got [0]"),
    ({"encoder_widths": [64, -3]},
     "config key 'encoder_widths' must all be at least 1, got [64, -3]"),
    ({"lr_decay_epochs": [-3]}, "config key 'lr_decay_epochs' must all be nonnegative, got [-3]"),
    ({"lr_decay_epochs": [-1, 30]},
     "config key 'lr_decay_epochs' must all be nonnegative, got [-1, 30]"),
    ({"lr": 1e300}, "config key 'lr' must be finite in float32, got 1e+300"),
    ({"lr": 3.5e38}, "config key 'lr' must be finite in float32, got 3.5e+38"),
    ({"weight_decay": 1e39}, "config key 'weight_decay' must be finite in float32, got 1e+39"),
    ({"lr": 1e-300, "lr_decay_epochs": []},
     "config key 'lr' must keep lr * lr_decay_factor ** 0 nonzero in float32, got 1e-300"),
    ({"lr": 1e-44}, "config key 'lr' must keep lr * lr_decay_factor ** 2 nonzero in float32, "
                    "got 1e-44"),
    ({"attack": {"epsilon": -1, "alpha": 0, "steps": 3}},
     "attack key 'epsilon' must be finite and nonnegative, got -1"),
    ({"attack": {"epsilon": 0.1, "alpha": -0.01, "steps": 3}},
     "attack key 'alpha' must be finite and nonnegative, got -0.01"),
    ({"attack": {"epsilon": 0.1, "alpha": 0.2, "steps": 3}}, "alpha must not exceed epsilon"),
    ({"attack": {"epsilon": 0.1, "alpha": 0.02, "steps": 0}},
     "attack key 'steps' must be at least 1, got 0"),
    ({"attack": {"epsilon": 0.1, "alpha": 0.02, "steps": -4}},
     "attack key 'steps' must be at least 1, got -4"),
])
def test_config_from_dict_rejects_wrong_value_types(overrides, named):
    with pytest.raises(ValueError) as err:
        TrainConfig.from_dict(overrides)
    assert str(err.value) == named


def test_config_accepts_range_bounds():
    # lr 1e-45 rounds to float32's smallest subnormal, the least rate it keeps
    config = TrainConfig(epochs=1, batch_size=1, k=1, eval_steps=1, theta_r=1.0,
                         lr_decay_epochs=(), lr=1e-45, momentum=0.0, weight_decay=0.0,
                         lr_decay_factor=1.0, feature_dim=1, encoder_widths=(1,),
                         augment=AugmentationPolicy(jitter_amp=0.0, flip_prob=1.0,
                                                    scale_amp=0.0, erase_frac=0.0))
    assert config.theta_r == 1.0 and config.augment.flip_prob == 1.0
    # float32's largest finite value, which the optimizer can hold
    largest = float(np.finfo(np.float32).max)
    config = TrainConfig(epochs=1, lr_decay_epochs=(), lr=largest, weight_decay=largest)
    assert config.lr == config.weight_decay == largest


# ---------------------------------------------------------------------------
# robust-model loss
# ---------------------------------------------------------------------------

def test_soft_cross_entropy_matches_hard_ce_for_one_hot():
    at = init_model(TINY_ARCH, AT_MODEL, seed=3)
    x = SplitMix64(4).fork("x").uniform(6 * 5).reshape(6, 5)
    y = np.array([0, 1, 2, 0, 1, 2])
    one_hot = np.zeros((6, 3))
    one_hot[np.arange(6), y] = 1.0
    logits = forward_logits(at, x)
    soft = ad.soft_cross_entropy(logits, one_hot)
    hard = ad.cross_entropy(forward_logits(at, x), y)
    assert soft.item() == pytest.approx(hard.item(), abs=1e-12)


def test_at_model_loss_composition_and_detach():
    oracle = init_model(TINY_ARCH, ORACLE, seed=5)
    at = init_model(TINY_ARCH, AT_MODEL, seed=6)
    rng = SplitMix64(7).fork("batch")
    x = rng.uniform(5 * 5).reshape(5, 5)
    x_adv = np.clip(x + 0.01, 0.0, 1.0)
    soft = predict_probs(oracle, x)
    dist = ClassCounts((3, 1, 1))

    config = _fast_config(interaction_enabled=False, adjustment_enabled=False)
    total, parts = at_model_loss(at, oracle, x, x_adv, soft, dist, config)
    assert set(parts) == {"soft_ce", "model_total"}
    assert parts["model_total"] == pytest.approx(parts["soft_ce"], abs=1e-12)

    config_on = _fast_config(interaction_enabled=True, adjustment_enabled=True)
    total_on, parts_on = at_model_loss(at, oracle, x, x_adv, soft, dist, config_on)
    assert set(parts_on) == {"soft_ce", "feature_align", "model_total"}
    assert parts_on["model_total"] == pytest.approx(
        parts_on["soft_ce"] + parts_on["feature_align"], abs=1e-12)

    for p in oracle.parameters():
        p.grad[...] = 0.0
    ad.backward(total_on)
    assert all(np.all(p.grad == 0) for p in oracle.parameters())
    assert any(np.any(p.grad != 0) for p in at.parameters())


def _op_nodes(root) -> int:
    """How many op nodes (not leaves) backward walks from ``root``."""
    seen, stack, ops = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        ops += bool(node.parents)
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return ops


def _first_epoch_graphs(monkeypatch):
    """Run epoch 0 of a small ``oat`` run with interaction and adjustment on;
    return its record and the op-node count of each batch's loss, keyed
    "oracle" and "model" by SGD pass."""
    graphs, sgd_pass = {"oracle": [], "model": []}, ad.sgd_pass

    def spy(opt, order, batch_size, batch_loss, what):
        def counted(i, idx):
            loss, parts = batch_loss(i, idx)
            graphs[what.split()[0]].append(_op_nodes(loss))
            return loss, parts
        return sgd_pass(opt, order, batch_size, counted, what)

    monkeypatch.setattr(ad, "sgd_pass", spy)
    train_ds, test_ds = _small_data(seed=3)
    config = _fast_config(epochs=1, lr_decay_epochs=(), interaction_enabled=True,
                          adjustment_enabled=True)
    state = trainer.RunState.start(config, train_ds)
    return trainer.run_epoch(state, train_ds, test_ds), graphs


def test_oracle_batch_graph_is_seven_mlps_three_losses_and_two_adds(monkeypatch):
    # contrastive: encoder, projector, predictor and cosine_loss; supervised:
    # encoder, head and cross_entropy; divergence: encoder, head and
    # neg_softmax_mse; two adds sum the terms. A batch without clean rows has
    # the contrastive term alone.
    record, graphs = _first_epoch_graphs(monkeypatch)
    assert graphs["oracle"].count(4) == record["empty_clean_batches"]
    assert 12 in graphs["oracle"] and set(graphs["oracle"]) <= {4, 12}


def test_oat_model_batch_graph_is_five_mlps_two_losses_and_two_adds(monkeypatch):
    # soft cross-entropy: encoder, head, the prior's add and
    # soft_cross_entropy; feature alignment: encoder, the frozen projector and
    # predictor and cosine_loss; one add sums the terms
    _, graphs = _first_epoch_graphs(monkeypatch)
    assert graphs["model"] and set(graphs["model"]) == {9}


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def test_train_writes_run_directory(tmp_path):
    train_ds, test_ds = _small_data()
    state = train(_fast_config(), train_ds, test_ds, tmp_path / "run")
    assert (tmp_path / "run" / "config.json").exists()
    assert (tmp_path / "run" / "best" / "checkpoint.json").exists()
    assert (tmp_path / "run" / "last" / "checkpoint.json").exists()
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3
    for epoch, line in enumerate(lines):
        record = json.loads(line)
        assert record["epoch"] == epoch
        ra = record["robust_accuracy"]["pgd3"]
        assert ra <= record["clean_accuracy"] + 1e-12
        assert sum(record["estimated_counts"]) == len(train_ds)
        assert record["prior_counts"] == list(class_counts(train_ds).counts)
        assert record["gt_counts"] == list(ClassCounts.of(train_ds.gt_labels, 3).counts)
    assert state.best_epoch <= state.config.epochs - 1


@pytest.mark.parametrize("method", ["oat", "pgd_at"])
def test_run_directory_holds_exactly_the_run_files(tmp_path, method):
    train_ds, test_ds = _small_data(seed=1)
    run = tmp_path / "run"
    train(_fast_config(method=method, epochs=2, lr_decay_epochs=()), train_ds, test_ds, run)
    assert sorted(p.name for p in run.iterdir()) == \
        ["best", "config.json", "last", "metrics.jsonl", "summary.json"]
    for checkpoint in ("best", "last"):
        assert not any(p.name.endswith(".tmp") for p in (run / checkpoint).iterdir())
    records = _records(run)
    count_keys = {"prior_counts", "estimated_counts", "gt_counts"}
    expected = count_keys if method == "oat" else set()
    assert all(count_keys & set(r) == expected for r in records)


def test_rerun_into_a_run_directory_keeps_nothing_of_the_earlier_run(tmp_path):
    train_ds, test_ds = _small_data(seed=1)
    run = tmp_path / "run"
    train(_fast_config(method="pgd_at", epochs=2, lr_decay_epochs=()), train_ds, test_ds, run)
    first_best = (run / "best" / "params.bin").read_bytes()
    config = _fast_config(method="pgd_at", epochs=2, lr_decay_epochs=(), lr=1e30,
                          batch_size=len(train_ds))
    with pytest.raises(RuntimeError, match="aborted"), \
            np.errstate(over="ignore", invalid="ignore"):
        train(config, train_ds, test_ds, run)
    # epoch 0 finished and wrote best/; epoch 1 aborted before last/ and summary.json
    assert sorted(p.name for p in run.iterdir()) == ["best", "config.json", "metrics.jsonl"]
    assert (run / "best" / "params.bin").read_bytes() != first_best
    assert json.loads((run / "config.json").read_text())["lr"] == 1e30
    records = _records(run)
    assert [r["epoch"] for r in records] == [0, 1] and "error" in records[1]


def test_a_run_whose_weights_turn_non_finite_aborts_at_the_best_save(tmp_path):
    # lr and weight_decay are each finite in float32, but lr * weight_decay * w
    # is not, so the first step leaves no nonzero weight finite
    train_ds, test_ds = _small_data(seed=1)
    run = tmp_path / "run"
    config = _fast_config(method="pgd_at", epochs=2, lr_decay_epochs=(), lr=1e30,
                          weight_decay=1e30, batch_size=len(train_ds))
    with pytest.raises(RuntimeError, match="aborted"), \
            np.errstate(over="ignore", invalid="ignore"):
        train(config, train_ds, test_ds, run)
    assert sorted(p.name for p in run.iterdir()) == ["config.json", "metrics.jsonl"]
    assert _records(run) == [{"epoch": 0, "error": f"{run / 'best' / 'params.bin'}: buffer "
                                                    f"'encoder.0.w' holds a non-finite value"}]


def test_train_refuses_a_directory_holding_another_commands_file(tmp_path):
    train_ds, test_ds = _small_data(seed=1)
    run = tmp_path / "run"
    config = _fast_config(method="pgd_at", epochs=1, lr_decay_epochs=())
    train(config, train_ds, test_ds, run)
    (run / "eval.json").write_text("{}")
    before = dir_bytes(run)
    with pytest.raises(FileExistsError, match="holds 'eval.json'"):
        train(config, train_ds, test_ds, run)
    assert dir_bytes(run) == before


def test_oat_records_without_ground_truth_hold_null_gt_counts(tmp_path):
    train_ds, test_ds = _small_data(seed=2)
    train_ds = dataclasses.replace(train_ds, gt_labels=None)
    train(_fast_config(epochs=1, lr_decay_epochs=()), train_ds, test_ds, tmp_path / "run")
    [record] = _records(tmp_path / "run")
    assert record["gt_counts"] is None
    assert record["prior_counts"] == list(class_counts(train_ds).counts)
    assert "dist_l1_prior" not in record and "dist_l1_estimated" not in record


def test_dist_l1_estimated_is_over_the_raw_estimated_counts(tmp_path, monkeypatch):
    # an oracle that predicts no row as class 0: the error compares the
    # recorded counts, as dist_l1_prior does, not counts floored at 1
    estimate = trainer.estimate_label_distribution

    def without_class_0(oracle, ds):
        counts = list(estimate(oracle, ds).counts)
        counts[1] += counts[0]
        return ClassCounts((0, *counts[1:]))

    monkeypatch.setattr(trainer, "estimate_label_distribution", without_class_0)
    train_ds, test_ds = _small_data(seed=2)
    train(_fast_config(epochs=2, lr_decay_epochs=()), train_ds, test_ds, tmp_path / "run")
    for record in _records(tmp_path / "run"):
        assert record["estimated_counts"][0] == 0
        assert record["dist_l1_estimated"] == distribution_error(
            record["estimated_counts"], record["gt_counts"])
        assert record["dist_l1_prior"] == distribution_error(
            record["prior_counts"], record["gt_counts"])


def test_train_deterministic(tmp_path):
    train_ds, test_ds = _small_data(seed=3)
    train(_fast_config(seed=9), train_ds, test_ds, tmp_path / "a")
    train(_fast_config(seed=9), train_ds, test_ds, tmp_path / "b")
    assert (tmp_path / "a" / "metrics.jsonl").read_text() == \
        (tmp_path / "b" / "metrics.jsonl").read_text()


_BLAS_RUN = """
import sys
from oat.corruption import CorruptionSpec, corrupt
from oat.dataio import SyntheticSpec, gen_synthetic
from oat.evaluation import distribution_error
from oat.trainer import TrainConfig, train
clean = gen_synthetic(SyntheticSpec(4, 16, 150, 0.1, 1))
ds, _ = corrupt(clean, CorruptionSpec("symmetric", 0.3, 0.2, seed=5))
test = gen_synthetic(SyntheticSpec(4, 16, 10, 0.1, 2))
train(TrainConfig(epochs=3, lr=0.005, lr_decay_epochs=(), k=50, seed=3,
                  feature_dim=32, eval_steps=5), ds, test, sys.argv[1])
"""


def test_train_independent_of_blas_thread_count(tmp_path):
    # matmuls, including knn_split's float32 vote product, may split their
    # work across BLAS threads; the results must not depend on how
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(oat.__file__).parents[1]))
        subprocess.run([sys.executable, "-c", _BLAS_RUN, str(tmp_path / threads)],
                       env=env, check=True, timeout=120)
    for name in ("metrics.jsonl", "last/params.bin"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_train_loss_records_match_enabled_terms(tmp_path):
    train_ds, test_ds = _small_data(seed=4)
    combos = {
        (True, True): {"contrastive", "supervised", "divergence", "oracle_total",
                       "soft_ce", "feature_align", "model_total"},
        (False, True): {"contrastive", "supervised", "oracle_total",
                        "soft_ce", "model_total"},
        (True, False): {"contrastive", "supervised", "divergence", "oracle_total",
                        "soft_ce", "feature_align", "model_total"},
        (False, False): {"contrastive", "supervised", "oracle_total",
                         "soft_ce", "model_total"},
    }
    for (interaction, adjustment), expected in combos.items():
        out = tmp_path / f"run_{interaction}_{adjustment}"
        train(_fast_config(interaction_enabled=interaction,
                           adjustment_enabled=adjustment),
              train_ds, test_ds, out)
        record = json.loads((out / "metrics.jsonl").read_text().splitlines()[-1])
        assert set(record["losses"]) == expected
        assert record["adjustment_enabled"] == adjustment


# at NR 0.5 with two rows per batch, some batches hold no trusted row: their
# supervised and divergence parts count as 0 in the epoch means
@pytest.mark.parametrize("nr, batch_size", [(0.0, 16), (0.5, 2)])
def test_train_oracle_total_is_sum_of_parts(tmp_path, nr, batch_size):
    train_ds, test_ds = _small_data(seed=5)
    train_ds = apply_symmetric_noise(train_ds, nr, seed=5)
    train(_fast_config(batch_size=batch_size, augment=AugmentationPolicy()),
          train_ds, test_ds, tmp_path / "run")
    record = json.loads((tmp_path / "run" / "metrics.jsonl").read_text().splitlines()[-1])
    if nr:
        assert record["empty_clean_batches"] > 0
    losses = record["losses"]
    parts = (losses["contrastive"], losses["supervised"], losses["divergence"])
    # each batch's total is a float32 sum of its parts, so the epoch means
    # agree to float32's resolution at the parts' size, not to float64's
    bound = 2 * np.finfo(np.float32).eps * sum(abs(part) for part in parts)
    assert abs(losses["oracle_total"] - sum(parts)) <= bound
    assert losses["model_total"] == pytest.approx(
        losses["soft_ce"] + losses["feature_align"], abs=1e-9)


def test_train_pgd_at_baseline_smoke(tmp_path):
    # clean balanced set: the baseline should fit the training data quickly
    train_ds, _ = _small_data(seed=6)
    config = _fast_config(method="pgd_at", epochs=15, lr_decay_epochs=(12,), lr=0.05)
    state = train(config, train_ds, train_ds, tmp_path / "base")
    from oat.evaluation import accuracy
    assert accuracy(state.model, train_ds.samples, train_ds.gt_labels) > 0.95


def test_train_checkpoints_reload_identically(tmp_path):
    train_ds, test_ds = _small_data(seed=7)
    state = train(_fast_config(epochs=2, lr_decay_epochs=()), train_ds, test_ds,
                  tmp_path / "run")
    from oat.evaluation import evaluate
    spec = AttackSpec(epsilon=0.03, alpha=0.0075, steps=3)
    best = load_model(tmp_path / "run" / "best")
    again = load_model(tmp_path / "run" / "best")
    a = evaluate(best, test_ds, [spec], seed=5)
    b = evaluate(again, test_ds, [spec], seed=5)
    assert a.clean_accuracy == b.clean_accuracy
    assert a.robust_accuracy == b.robust_accuracy


@pytest.mark.parametrize("method, epochs", [("pgd_at", 4), ("oat", 20)], ids=["pgd_at", "oat"])
def test_best_checkpoint_holds_the_best_epoch(tmp_path, method, epochs):
    train_ds, test_ds = _small_data(seed=2)
    config = _fast_config(method=method, epochs=epochs, lr_decay_epochs=(), lr=0.05)
    state = train(config, train_ds, test_ds, tmp_path / "run")
    records = _records(tmp_path / "run")
    best_record = records[state.best_epoch]
    # preconditions: the model learned something (3 classes, so chance is 1/3),
    # the best epoch is not the last, and the two differ in accuracy
    assert best_record["clean_accuracy"] > 1 / 3
    assert state.best_epoch < config.epochs - 1
    assert best_record["clean_accuracy"] != records[-1]["clean_accuracy"]
    best, last = tmp_path / "run" / "best", tmp_path / "run" / "last"
    assert (best / "params.bin").read_bytes() != (last / "params.bin").read_bytes()
    from oat.evaluation import accuracy
    assert accuracy(load_model(best), test_ds.samples, test_ds.gt_labels) == \
        best_record["clean_accuracy"]


def test_train_rejects_mismatched_datasets(tmp_path):
    train_ds, _ = _small_data()
    other = gen_synthetic(SyntheticSpec(num_classes=3, dim=9, per_class=5,
                                        cluster_spread=0.05, seed=1))
    with pytest.raises(ValueError, match="share"):
        train(_fast_config(), train_ds, other, tmp_path / "run")


@pytest.mark.parametrize("drop,named", [
    ("rows", "non-empty test set"),
    ("gt_labels", "requires gt_labels"),
])
def test_train_rejects_unevaluable_test_set_before_training(tmp_path, drop, named):
    train_ds, test_ds = _small_data()
    if drop == "rows":
        test_ds = dataclasses.replace(
            test_ds, samples=test_ds.samples[:0], observed_labels=test_ds.observed_labels[:0],
            gt_labels=test_ds.gt_labels[:0], ids=test_ds.ids[:0])
    else:
        test_ds = dataclasses.replace(test_ds, gt_labels=None)
    with pytest.raises(ValueError, match=named):
        train(_fast_config(), train_ds, test_ds, tmp_path / "run")
    assert not (tmp_path / "run").exists()


# in float32 the oracle's first pass is what overflows first under oat
@pytest.mark.parametrize("method, loss", [("pgd_at", "model"), ("oat", "oracle")],
                         ids=["pgd_at", "oat"])
def test_train_aborts_on_non_finite_loss(tmp_path, method, loss):
    train_ds, test_ds = _small_data(seed=8)
    config = _fast_config(method=method, lr=1e9, epochs=4, lr_decay_epochs=())
    with pytest.raises(RuntimeError, match="aborted"), \
            np.errstate(over="ignore", invalid="ignore"):
        train(config, train_ds, test_ds, tmp_path / "blowup")
    lines = (tmp_path / "blowup" / "metrics.jsonl").read_text().splitlines()
    # diagnostic record persisted
    assert json.loads(lines[-1])["error"].startswith(f"non-finite {loss} loss at epoch ")


@pytest.mark.parametrize("method, module, name, err", [
    ("oat", ad, "cosine_loss", ValueError("cosine_loss: zero-norm embedding")),
    ("pgd_at", trainer, "robust_accuracy", IndexError("evaluation failed")),
], ids=["oat-zero-norm", "pgd_at-evaluation"])
def test_any_exception_in_an_epoch_leaves_one_error_record(tmp_path, monkeypatch, capsys,
                                                           method, module, name, err):
    train_ds, test_ds = _small_data(seed=8)
    run = tmp_path / "run"
    real = getattr(module, name)

    def failing_once_epoch_0_is_recorded(*args, **kwargs):
        if (run / "metrics.jsonl").read_text():
            raise err
        return real(*args, **kwargs)

    def assert_aborted_in_epoch_1():
        assert sorted(p.name for p in run.iterdir()) == ["best", "config.json", "metrics.jsonl"]
        records = _records(run)
        assert [r["epoch"] for r in records] == [0, 1] and "error" not in records[0]
        assert records[1] == {"epoch": 1, "error": str(err)}

    monkeypatch.setattr(module, name, failing_once_epoch_0_is_recorded)
    config = _fast_config(method=method, epochs=3, lr_decay_epochs=())
    with pytest.raises(RuntimeError, match="aborted") as raised:
        train(config, train_ds, test_ds, run)
    assert raised.value.__cause__ is err
    assert_aborted_in_epoch_1()

    # the same run from the command line, into the same directory
    save_dataset(train_ds, tmp_path / "train")
    save_dataset(test_ds, tmp_path / "test")
    (tmp_path / "config.json").write_text(json.dumps(config.to_dict()))
    assert cli(["train", "--config", str(tmp_path / "config.json"), "--data",
                str(tmp_path / "train"), "--test", str(tmp_path / "test"),
                "--out", str(run)]) == 2
    assert capsys.readouterr().err == f"oat: error: run aborted: {err}\n"
    assert_aborted_in_epoch_1()
    assert cli(["report", "--run", str(run)]) == 0
    assert json.loads(capsys.readouterr().out)["epochs"][-1] == {"epoch": 1, "error": str(err)}


def test_oat_rejects_a_one_row_oversampled_set_before_writing(tmp_path):
    # oat's k-NN split needs two rows, and one row of one class oversamples to
    # one; the plain baseline, which has no split, trains on it
    ds = tiny_dataset(n_per_class=1, num_classes=1)
    config = _fast_config(epochs=1, lr_decay_epochs=())
    with pytest.raises(ValueError, match="needs at least 2 oversampled rows, got 1"):
        train(config, ds, ds, tmp_path / "oat")
    assert not (tmp_path / "oat").exists()
    train(dataclasses.replace(config, method="pgd_at"), ds, ds, tmp_path / "pgd_at")
