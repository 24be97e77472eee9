"""Evaluation metrics: clean accuracy, PGD robust accuracy, the metrics record
and distribution-recovery error.

The training loop scores each epoch with ``accuracy`` and ``robust_accuracy``
at the run's seed, and ``oat eval`` scores a checkpoint with ``evaluate``,
which calls the same two, so ``oat eval --seed <run seed>`` of an epoch's
checkpoint prints that epoch's record. Evaluation runs its batches of
``BATCH_SIZE`` rows one after another; each attack's stream is forked from
the seed by the attack's name and each batch's from that by batch index, so
results depend only on the seed. A batch attacks only its rows that are
right clean, since no other row can count as robust; a batch with no such
row runs no attack. Predictions use raw logits (no class-prior adjustment).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .adversary import AttackSpec, pgd_attack
from .dataio import LabeledDataset
from .models import ModelParams
from .oracle import predict_probs
from .rng import SplitMix64

BATCH_SIZE = 256  # rows per evaluation batch; each batch forks its own attack stream


@dataclass
class MetricsRecord:
    """Clean accuracy and robust accuracy per attack name. A sample counts as
    robust only if it is classified correctly both clean and attacked, so
    robust accuracy can never exceed clean accuracy."""
    clean_accuracy: float
    robust_accuracy: dict[str, float]

    def __post_init__(self):
        for name, ra in self.robust_accuracy.items():
            if ra > self.clean_accuracy + 1e-12:
                raise ValueError(
                    f"robust accuracy under {name} ({ra}) exceeds clean accuracy "
                    f"({self.clean_accuracy})")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def check_test_set(test: LabeledDataset) -> None:
    """Raise ValueError unless ``test`` has rows and ground-truth labels."""
    if len(test) == 0:
        raise ValueError("evaluation requires a non-empty test set")
    if test.gt_labels is None:
        raise ValueError("evaluation requires gt_labels")


def accuracy(model: ModelParams, x: np.ndarray, labels: np.ndarray) -> float:
    if len(x) == 0:
        raise ValueError("accuracy: the input has no rows")
    predicted = predict_probs(model, x).argmax(axis=1)
    return float(np.mean(predicted == labels))


def robust_accuracy(model: ModelParams, ds: LabeledDataset, attack: AttackSpec,
                    seed: int) -> float:
    """Fraction of test points that are correctly classified both clean and
    after the attack (an attacked sample can only lose correctness).

    Batch i attacks its rows that are right clean (as AutoAttack does) from
    ``SplitMix64(seed).fork("evaluate." + attack.name()).fork("batch", i)``,
    so a random start is drawn only for a row that can count."""
    check_test_set(ds)
    stream = SplitMix64(seed).fork("evaluate." + attack.name())
    robust = 0
    for i, start in enumerate(range(0, len(ds), BATCH_SIZE)):
        x = ds.samples[start:start + BATCH_SIZE]
        y = ds.gt_labels[start:start + BATCH_SIZE]
        right = predict_probs(model, x).argmax(axis=1) == y
        if not right.any():
            continue
        adv = pgd_attack(model, x[right], y[right], attack, stream.fork("batch", i))
        robust += int(np.sum(predict_probs(model, adv).argmax(axis=1) == y[right]))
    return robust / len(ds)


def evaluate(model: ModelParams, test: LabeledDataset,
             attacks: list[AttackSpec], seed: int = 0) -> MetricsRecord:
    """Clean accuracy plus ``robust_accuracy`` at ``seed`` per attack. Raises
    ValueError if ``test``'s dim or num_classes differs from the model's
    arch."""
    check_test_set(test)
    arch = model.arch
    if test.dim != arch.input_dim or test.num_classes != arch.num_classes:
        raise ValueError(f"the test set has dim {test.dim} and {test.num_classes} classes; "
                         f"the model expects dim {arch.input_dim} and "
                         f"{arch.num_classes} classes")
    return MetricsRecord(
        clean_accuracy=accuracy(model, test.samples, test.gt_labels),
        robust_accuracy={attack.name(): robust_accuracy(model, test, attack, seed)
                         for attack in attacks})


def distribution_error(estimated, reference) -> float:
    """Total-variation distance between two count vectors, in [0, 1]."""
    est = np.asarray(estimated, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if est.shape != ref.shape:
        raise ValueError(f"count vectors differ in length: {est.shape} vs {ref.shape}")
    if est.sum() <= 0 or ref.sum() <= 0:
        raise ValueError("count vectors must have positive totals")
    return float(0.5 * np.abs(est / est.sum() - ref / ref.sum()).sum())
