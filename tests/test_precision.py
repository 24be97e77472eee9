"""The dtype rules: training passes run in float32, every evaluated or
persisted figure in float64, and a float64 model never meets float32."""

import hashlib
import json

import numpy as np
import pytest

from oat import autodiff as ad
from oat import trainer
from oat.adversary import AttackSpec, pgd_attack
from oat.corruption import ClassCounts
from oat.dataio import SyntheticSpec, gen_synthetic, save_dataset
from oat.evalcli import cli
from oat.models import AT_MODEL, ORACLE, cast, init_model, load_model
from oat.oracle import (embed, oracle_contrastive_loss, oracle_interaction_loss,
                        oracle_supervised_loss, predict_probs)
from oat.rng import SplitMix64
from oat.trainer import RunState, TrainConfig, at_model_loss, run_epoch, train

from helpers import ALL_OPS_AUGMENT, SMALL_RUN_AUGMENT, TINY_ARCH


def _data(seed=3, spread=0.05):
    train_ds = gen_synthetic(SyntheticSpec(num_classes=3, dim=6, per_class=20,
                                           cluster_spread=spread, seed=seed))
    test_ds = gen_synthetic(SyntheticSpec(num_classes=3, dim=6, per_class=8,
                                          cluster_spread=spread, seed=seed + 100))
    return train_ds, test_ds


def _config(method, **overrides):
    return TrainConfig(**{**dict(
        epochs=2, batch_size=16, lr=0.05, momentum=0.9, seed=2, lr_decay_epochs=(),
        theta_r=0.8, k=5, encoder_widths=(12,), feature_dim=8,
        attack=AttackSpec(epsilon=0.05, alpha=0.0125, steps=3),
        augment=SMALL_RUN_AUGMENT,
        method=method, eval_steps=3), **overrides})


def test_cast_copies_every_buffer_into_the_dtype():
    model = init_model(TINY_ARCH, ORACLE, seed=4)
    narrow = cast(model, np.float32)
    for source, copy in zip(model.parameters(), narrow.parameters()):
        assert copy.data.dtype == np.float32 and copy.grad.dtype == np.float32
        assert copy.requires_grad and not np.shares_memory(copy.data, source.data)
        assert np.array_equal(copy.data, source.data.astype(np.float32))
    # widening is exact, so a float32 model round-trips through float64
    for a, b in zip(narrow.parameters(), cast(cast(narrow, np.float64), np.float32).parameters()):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("method", ["oat", "pgd_at"])
def test_an_epoch_trains_in_float32_and_evaluates_in_float64(monkeypatch, method):
    train_ds, test_ds = _data()
    seen = {"train": set(), "eval": set()}
    phase = ["train"]
    real_activations, real_evaluate = ad.mlp_activations, trainer._evaluate_epoch

    def activations(x, layers):
        acts = real_activations(x, layers)
        seen[phase[0]].add((layers[0][0].dtype, acts[-1].dtype))
        return acts

    def evaluate_epoch(*args):
        phase[0] = "eval"
        try:
            return real_evaluate(*args)
        finally:
            phase[0] = "train"

    monkeypatch.setattr(ad, "mlp_activations", activations)
    monkeypatch.setattr(trainer, "_evaluate_epoch", evaluate_epoch)
    state = RunState.start(_config(method), train_ds)
    record = run_epoch(state, train_ds, test_ds)

    f32, f64 = np.dtype(np.float32), np.dtype(np.float64)
    assert seen == {"train": {(f32, f32)}, "eval": {(f64, f64)}}
    models = [(state.model, state.model_opt)]
    if method == "oat":
        models.append((state.oracle, state.oracle_opt))
        assert embed(state.oracle, train_ds.samples).dtype == f64
    for model, opt in models:
        for p, v in zip(model.parameters(), opt.velocity):
            assert p.data.dtype == p.grad.dtype == v.dtype == f32
    assert isinstance(record.clean_accuracy, float)


# sha256 of a float64 oracle and robust model after three SGD steps through
# every loss, the last step's PGD output and the oracle's embedding, written
# before the trainer moved to float32: the float64 path keeps every bit
FLOAT64_DIGEST = "6cf84eccfeba9cea41c4fccc030100bb35ac4846137e5dd09b10c1559eee5714"


def test_a_float64_model_through_the_engine_stays_float64_bit_for_bit():
    rng = SplitMix64(5).fork("float64")
    oracle = init_model(TINY_ARCH, ORACLE, seed=6)
    model = init_model(TINY_ARCH, AT_MODEL, seed=7)
    opt = ad.SgdOptimizer(oracle.parameters() + model.parameters(), 0.1, 0.9, 5e-4)
    x = rng.uniform(8 * 5).reshape(8, 5)
    y = np.arange(8) % 3
    dist = ClassCounts((5, 2, 1))
    config = TrainConfig()
    for step in range(3):
        x_adv = pgd_attack(model, x, y, AttackSpec(0.1, 0.025, 3), rng.fork("attack", step), dist)
        soft = predict_probs(oracle, x)
        loss = ad.add(at_model_loss(model, oracle, x, x_adv, soft, dist, config)[0],
                      oracle_contrastive_loss(oracle, x, ALL_OPS_AUGMENT,
                                              rng.fork("augment", step)))
        loss = ad.add(loss, ad.add(oracle_supervised_loss(oracle, x, y),
                                   oracle_interaction_loss(oracle, model, x)))
        ad.backward(loss)
        opt.step()
    arrays = [p.data for p in opt.params] + opt.velocity + [x_adv, embed(oracle, x)]
    assert all(a.dtype == np.float64 for a in arrays)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert digest == FLOAT64_DIGEST


def test_oat_eval_of_best_reproduces_the_record(tmp_path, capsys):
    train_ds, test_ds = _data(seed=8, spread=0.2)  # best/ is neither at chance nor perfect
    config = _config("pgd_at", epochs=8, eval_steps=20,
                     attack=AttackSpec(epsilon=0.1, alpha=0.025, steps=3))
    state = train(config, train_ds, test_ds, tmp_path / "run")
    best, last = state.records[state.best_epoch], state.records[-1]
    assert 0.5 < best["robust_accuracy"]["pgd20"] < best["clean_accuracy"] < 1.0
    assert all(p.data.dtype == np.float64
               for p in load_model(tmp_path / "run" / "best").parameters())
    save_dataset(test_ds, tmp_path / "test")
    # oat eval's pgd20 at the run's epsilon is the run's eval attack
    for checkpoint, record in (("best", best), ("last", last)):
        assert cli(["eval", "--checkpoint", str(tmp_path / "run" / checkpoint),
                    "--data", str(tmp_path / "test"), "--eps", "0.1",
                    "--seed", str(config.seed)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == {"clean_accuracy": record["clean_accuracy"],
                           "robust_accuracy": record["robust_accuracy"]}
