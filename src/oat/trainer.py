"""The full training loop: alternating oracle and adversarial-training epochs,
label-distribution estimation, logits adjustment, soft-label training, and
the plain PGD-AT baseline.

Every run writes a self-contained directory: config.json, metrics.jsonl (one
``EpochRecord`` per epoch, the run's only per-epoch output), summary.json, and
best/ + last/ checkpoints. "Best" is the epoch with the highest PGD robust
accuracy on the test set; best/ is rewritten, before the epoch's record, as
soon as an epoch improves on it. Any exception inside an epoch, evaluation and
the best/ save included (a non-finite parameter refuses the save), appends an
``ErrorRecord`` in place of the epoch's record and is raised again as
``RuntimeError("run aborted: ...")`` chained to it, with no last/ or
summary.json written. A run into a directory that holds an earlier run deletes
that run's summary.json, best/ and last/ before its first epoch, so the
directory never mixes two runs; a directory that holds anything else is
refused before anything is written.

Training runs in float32 (``TRAIN_DTYPE``). Every figure in a record is
scored on a float64 copy of the robust model, which is what best/ and last/
hold, and its accuracies are ``evaluate``'s at the run's seed, so
``oat eval --seed <run seed>`` of best/ or last/ prints its record's figures.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .adversary import AttackSpec, pgd_attack
from .autodiff import SgdOptimizer, Value
from .corruption import ClassCounts, balanced_oversample, class_counts
from .dataio import LabeledDataset, from_json, replaced_together, require
from .evaluation import (MetricsRecord, accuracy, check_test_set,
                         distribution_error, robust_accuracy)
from .models import (AT_MODEL, ORACLE, ArchSpec, ModelParams, cast, detached,
                     forward_features, forward_logits, init_model, predict_probs,
                     project_predict, save_model)
from .oracle import AugmentationPolicy, OracleEpochRecord, oracle_epoch
from .rng import SplitMix64


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings. The defaults are the desk-scale acceptance
    configuration that the acceptance tests, the grid and the README's
    quickstart train; paper-scale values (lr 0.1, 200 epochs, epsilon 8/255)
    are config choices."""
    epochs: int = 60
    batch_size: int = 128
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_decay_epochs: tuple[int, ...] = (30, 45)
    lr_decay_factor: float = 0.1
    theta_r: float = 0.8
    k: int = 200
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(
        epsilon=0.15, alpha=0.0375, steps=10))
    method: str = "oat"                 # or "pgd_at"
    interaction_enabled: bool = True
    adjustment_enabled: bool = True
    seed: int = 0
    # architecture / loop knobs
    encoder_widths: tuple[int, ...] = (64,)
    feature_dim: int = 32
    augment: AugmentationPolicy = field(default_factory=AugmentationPolicy)
    eval_steps: int = 20                # PGD steps for per-epoch robust accuracy

    def __post_init__(self):
        if self.method not in ("oat", "pgd_at"):
            raise ValueError(f"unknown method {self.method!r}")

        require(self, "config", ("epochs", "batch_size", "k", "eval_steps", "feature_dim"),
                lambda v: v >= 1, "be at least 1")
        require(self, "config", ("encoder_widths",),
                lambda widths: all(w >= 1 for w in widths), "all be at least 1")
        require(self, "config", ("lr",), lambda v: v > 0.0, "be positive")
        require(self, "config", ("weight_decay",), lambda v: v >= 0.0, "be nonnegative")
        # the optimizer steps in TRAIN_DTYPE
        require(self, "config", ("lr", "weight_decay"), _finite_in_train_dtype,
                "be finite in float32")
        require(self, "config", ("momentum",), lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
        require(self, "config", ("theta_r", "lr_decay_factor"),
                lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")
        require(self, "config", ("lr_decay_epochs",),
                lambda epochs: all(e >= 0 for e in epochs), "all be nonnegative")
        if any(e >= self.epochs for e in self.lr_decay_epochs):
            raise ValueError(f"lr_decay_epochs={list(self.lr_decay_epochs)} must all be "
                             f"< epochs={self.epochs}; set lr_decay_epochs together with epochs")
        if list(self.lr_decay_epochs) != sorted(set(self.lr_decay_epochs)):
            raise ValueError("lr_decay_epochs must be strictly increasing")
        decays = len(self.lr_decay_epochs)  # lr_at_epoch's rate after the last decay
        require(self, "config", ("lr",),
                lambda v: TRAIN_DTYPE(v * self.lr_decay_factor ** decays) != 0,
                f"keep lr * lr_decay_factor ** {decays} nonzero in float32")

    @property
    def eval_attack(self) -> AttackSpec:
        """The per-epoch robust-accuracy attack: the training radius and step
        at ``eval_steps`` steps."""
        return AttackSpec(self.attack.epsilon, self.attack.alpha, self.eval_steps)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        """Build a config from its to_dict form; raises ValueError naming any
        unknown or missing key, or any value of the wrong type or any NaN or
        infinite number, at the top level or under "attack" or "augment"."""
        return from_json(TrainConfig, d, "config")


TRAIN_DTYPE = np.float32  # the models' and optimizers' dtype during training


def _finite_in_train_dtype(value: float) -> bool:
    with np.errstate(over="ignore"):
        return bool(np.isfinite(TRAIN_DTYPE(value)))


@dataclass
class RunState:
    """Everything an epoch reads or updates: models, optimizers, working
    labels, distribution, epoch and best epoch, then the run's constants.
    Oracle fields are None under ``pgd_at``; ``records`` repeats metrics.jsonl
    in memory, as dicts. An epoch that raises aborts the run and leaves the
    state half-updated. Both models and their optimizers' buffers are
    ``TRAIN_DTYPE``: each model is drawn in float64 by ``init_model`` and
    narrowed once, here."""
    config: TrainConfig
    rng: SplitMix64
    model: ModelParams
    model_opt: SgdOptimizer
    oracle: ModelParams | None
    oracle_opt: SgdOptimizer | None
    oversampled: LabeledDataset | None
    labels: np.ndarray | None          # working labels over the oversampled set
    prior: ClassCounts                 # counts of the observed training labels
    gt: ClassCounts | None             # counts of the hidden labels, if the data has them
    distribution: ClassCounts | None = None
    epoch: int = 0
    best_epoch: int = -1
    best_robust: float = -1.0
    records: list = field(default_factory=list)

    @staticmethod
    def start(config: TrainConfig, ds: LabeledDataset) -> "RunState":
        """The state before epoch 0. Under ``oat``, raises ValueError for a
        class with no rows or a one-row oversampled set."""
        arch = ArchSpec(input_dim=ds.dim, encoder_widths=config.encoder_widths,
                        feature_dim=config.feature_dim, num_classes=ds.num_classes)
        sgd = (config.lr, config.momentum, config.weight_decay)
        # each model and the oversampling are seeded alone: their order moves no bit
        model = cast(init_model(arch, AT_MODEL, seed=config.seed + 1), TRAIN_DTYPE)
        oracle = oracle_opt = oversampled = labels = None
        if config.method == "oat":
            oversampled = balanced_oversample(ds, seed=config.seed + 3)
            if len(oversampled) < 2:
                raise ValueError(f"oat's k-NN split needs at least 2 oversampled rows, "
                                 f"got {len(oversampled)}")
            oracle = cast(init_model(arch, ORACLE, seed=config.seed + 2), TRAIN_DTYPE)
            oracle_opt = SgdOptimizer(oracle.parameters(), *sgd)
            labels = oversampled.observed_labels.copy()
        return RunState(
            config=config, rng=SplitMix64(config.seed).fork("train"), model=model,
            model_opt=SgdOptimizer(model.parameters(), *sgd), oracle=oracle,
            oracle_opt=oracle_opt, oversampled=oversampled, labels=labels,
            prior=class_counts(ds),
            gt=None if ds.gt_labels is None else ClassCounts.of(ds.gt_labels, ds.num_classes))


# ---------------------------------------------------------------------------
# distribution estimation and logits adjustment
# ---------------------------------------------------------------------------

def estimate_label_distribution(oracle: ModelParams, ds: LabeledDataset) -> ClassCounts:
    """Count the oracle's argmax predictions over the whole dataset."""
    predicted = predict_probs(oracle, ds.samples).argmax(axis=1)
    return ClassCounts.of(predicted, ds.num_classes)


def adjust_logits(logits: Value, dist: ClassCounts) -> Value:
    """Add the log class-count prior, in the logits' dtype, to every row of
    the logits."""
    return ad.add(logits, Value(np.log(dist.smoothed).astype(logits.data.dtype)))


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """Robust-model learning rate: decayed at each listed epoch. (The oracle
    keeps config.lr for the whole run.)"""
    if not 0 <= epoch < config.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {config.epochs})")
    hits = sum(1 for d in config.lr_decay_epochs if epoch >= d)
    return config.lr * config.lr_decay_factor ** hits


# ---------------------------------------------------------------------------
# robust-model losses
# ---------------------------------------------------------------------------

def at_model_loss(at_model: ModelParams, oracle: ModelParams,
                  x: np.ndarray, x_adv: np.ndarray, soft: np.ndarray, dist: ClassCounts,
                  config: TrainConfig) -> tuple[Value, dict[str, float]]:
    """Soft-label cross-entropy on adversarial inputs against ``soft``, the
    oracle's class probabilities on ``x``, plus (when interaction is on) a
    cosine term pulling the robust model's adversarial features toward the
    oracle's clean-view embedding. The oracle contributes only constants: no
    gradient reaches it."""
    logits = forward_logits(at_model, x_adv)
    if config.adjustment_enabled:
        logits = adjust_logits(logits, dist)
    l_ce = ad.soft_cross_entropy(logits, soft)
    parts = {"soft_ce": l_ce.item()}
    total = l_ce

    if config.interaction_enabled:
        frozen = detached(oracle)
        target = project_predict(frozen, forward_features(frozen, x), False)
        online = project_predict(frozen, forward_features(at_model, x_adv), True)
        l_cos = ad.cosine_loss(target, online)
        parts["feature_align"] = l_cos.item()
        total = ad.add(total, l_cos)

    parts["model_total"] = total.item()
    return total, parts


def hard_label_loss(at_model: ModelParams, x_adv: np.ndarray,
                    labels: np.ndarray) -> tuple[Value, dict[str, float]]:
    """Plain cross-entropy on adversarial inputs (the PGD-AT baseline)."""
    loss = ad.cross_entropy(forward_logits(at_model, x_adv), labels)
    return loss, {"hard_ce": loss.item(), "model_total": loss.item()}


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------

RUN_ENTRIES = ("best", "config.json", "last", "metrics.jsonl", "summary.json")


@dataclass(kw_only=True)
class EpochRecord:
    """One epoch's line of metrics.jsonl, its keys in field order. The
    oracle's fields (``refurbished_nr`` through ``dist_l1_estimated``) are
    None under ``pgd_at``; without ground truth, ``refurbished_nr``,
    ``gt_counts`` and both distances are None. ``losses`` holds the robust
    model's loss parts, then the oracle's. Raises ValueError if a robust
    accuracy exceeds the clean one or the class-count lists differ in
    length; ``oat report`` reads each line back with ``from_json``."""
    epoch: int
    clean_accuracy: float
    robust_accuracy: dict[str, float]
    lr_model: float
    lr_oracle: float | None
    adjustment_enabled: bool
    refurbished_nr: float | None = None
    refurbished_count: int | None = None
    clean_count: int | None = None
    noisy_count: int | None = None
    empty_clean_batches: int | None = None
    prior_counts: list[int] | None = None
    estimated_counts: list[int] | None = None
    gt_counts: list[int] | None = None
    dist_l1_prior: float | None = None
    dist_l1_estimated: float | None = None
    losses: dict[str, float]

    def __post_init__(self):
        MetricsRecord(self.clean_accuracy, self.robust_accuracy)  # robust <= clean
        counts = [c for c in (self.prior_counts, self.estimated_counts, self.gt_counts)
                  if c is not None]
        if len(set(map(len, counts))) > 1:
            raise ValueError("prior_counts, estimated_counts, gt_counts differ in length")


@dataclass
class ErrorRecord:
    """The metrics.jsonl line of an epoch that raised, in place of its
    ``EpochRecord``: the epoch and the exception's message."""
    epoch: int
    error: str


def train(config: TrainConfig, ds: LabeledDataset, test: LabeledDataset,
          out_dir: str | Path) -> RunState:
    """Run the configured method and persist metrics plus best/last checkpoints.

    Before writing anything, raises ValueError for an empty training set, an
    unevaluable test set or what ``RunState.start`` rejects, and
    FileExistsError naming an entry of ``out_dir`` that is not one of
    ``RUN_ENTRIES``.
    """
    if ds.dim != test.dim or ds.num_classes != test.num_classes:
        raise ValueError("train and test datasets must share dim and num_classes")
    if len(ds) == 0:
        raise ValueError("the training set has no rows")
    check_test_set(test)
    state = RunState.start(config, ds)
    out_dir = Path(out_dir)
    if out_dir.is_dir():
        foreign = sorted(p.name for p in out_dir.iterdir() if p.name not in RUN_ENTRIES)
        if foreign:
            raise FileExistsError(f"{out_dir} holds {foreign[0]!r}, which is not part of a "
                                  f"run; train into an empty directory or an earlier run's")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").unlink(missing_ok=True)
    for checkpoint in (out_dir / "best", out_dir / "last"):
        if checkpoint.exists():
            shutil.rmtree(checkpoint)
    # line-buffered: each record reaches the file as soon as its epoch ends
    with open(out_dir / "metrics.jsonl", "w", buffering=1) as metrics:
        with replaced_together(out_dir, ("config.json",)) as temps:
            temps["config.json"].write_text(json.dumps(config.to_dict(), indent=2) + "\n")
        for epoch in range(config.epochs):
            state.epoch = epoch
            try:
                record = run_epoch(state, ds, test)
                robust = record.robust_accuracy[config.eval_attack.name()]
                if robust > state.best_robust:
                    save_model(state.model, out_dir / "best")
                    state.best_robust, state.best_epoch = robust, epoch
            except Exception as err:
                error = ErrorRecord(epoch, str(err))
                metrics.write(json.dumps(dataclasses.asdict(error)) + "\n")
                raise RuntimeError(f"run aborted: {err}") from err
            state.records.append(dataclasses.asdict(record))
            metrics.write(json.dumps(state.records[-1]) + "\n")

    save_model(state.model, out_dir / "last")
    with replaced_together(out_dir, ("summary.json",)) as temps:
        temps["summary.json"].write_text(json.dumps({
            "best_epoch": state.best_epoch, "best_robust_accuracy": state.best_robust,
            "last_epoch": config.epochs - 1}, indent=2) + "\n")
    return state


def run_epoch(state: RunState, ds: LabeledDataset, test: LabeledDataset) -> EpochRecord:
    """Epoch ``state.epoch``'s phases in order (the oracle epoch and distribution
    estimate under ``oat``, the adversarial pass, the evaluation); returns its record."""
    oracle_stats = None
    if state.config.method == "oat":
        oracle_stats = oracle_epoch(state)
        state.distribution = estimate_label_distribution(state.oracle, ds)
    at_losses = _at_epoch(state, ds)
    return _evaluate_epoch(state, test, at_losses, oracle_stats)


def _at_epoch(state: RunState, ds: LabeledDataset) -> dict[str, float]:
    """One adversarial-training pass over ``ds``; returns the mean of each loss part."""
    config = state.config
    state.model_opt.learning_rate = lr_at_epoch(config, state.epoch)
    rng = state.rng.fork("at_epoch", state.epoch)
    oat = config.method == "oat"
    prior = state.distribution if oat and config.adjustment_enabled else None

    def batch_loss(i: int, idx: np.ndarray) -> tuple[Value, dict[str, float]]:
        x = ds.samples[idx]
        soft = predict_probs(state.oracle, x) if oat else None
        labels = soft.argmax(axis=1) if oat else ds.observed_labels[idx]
        x_adv = pgd_attack(state.model, x, labels, config.attack, rng.fork("attack", i), prior)
        if oat:
            return at_model_loss(state.model, state.oracle, x, x_adv, soft,
                                 state.distribution, config)
        return hard_label_loss(state.model, x_adv, labels)

    order = rng.fork("shuffle").permutation(len(ds))
    return ad.sgd_pass(state.model_opt, order, config.batch_size, batch_loss,
                       f"model loss at epoch {state.epoch}")


def _evaluate_epoch(state: RunState, test: LabeledDataset, at_losses: dict[str, float],
                    oracle_stats: OracleEpochRecord | None) -> EpochRecord:
    config, attack, gt = state.config, state.config.eval_attack, state.gt
    model = cast(state.model, np.float64)  # the model a checkpoint of this epoch holds
    oat = config.method == "oat"
    losses, oracle = dict(at_losses), {}
    if oat:
        oracle = dataclasses.asdict(oracle_stats)
        losses.update(oracle.pop("losses"))
        oracle.update(prior_counts=list(state.prior.counts),
                      estimated_counts=list(state.distribution.counts))
        if gt is not None:
            oracle.update(
                gt_counts=list(gt.counts),
                dist_l1_prior=distribution_error(state.prior.counts, gt.counts),
                dist_l1_estimated=distribution_error(state.distribution.counts, gt.counts))
    return EpochRecord(
        epoch=state.epoch, clean_accuracy=accuracy(model, test.samples, test.gt_labels),
        robust_accuracy={attack.name(): robust_accuracy(model, test, attack, config.seed)},
        lr_model=lr_at_epoch(config, state.epoch), lr_oracle=config.lr if oat else None,
        adjustment_enabled=oat and config.adjustment_enabled, **oracle, losses=losses)
