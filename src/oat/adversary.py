"""L-infinity PGD adversarial example generation.

The attack maximizes either cross-entropy or a CW margin over an epsilon ball
intersected with the [0,1] input box. It differentiates with respect to its
input only: every step runs through a ``detached`` view of the model, so no
weight gradient is computed and the model's ``grad`` buffers are never
touched.

When a class-count prior is passed, the loss is computed on logits shifted by
its log; the shift vector is normalized by its maximum so a uniform prior is
exactly the zero vector and the attack output is bit-identical to the
unadjusted path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Value, cw_margin_loss
from .corruption import ClassCounts
from .models import ModelParams, detached, forward_logits
from .rng import SplitMix64


@dataclass(frozen=True)
class AttackSpec:
    epsilon: float
    alpha: float
    steps: int
    loss_kind: str = "cross_entropy"   # or "cw_margin"
    random_start: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"epsilon must be finite and nonnegative, got {self.epsilon}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha must be finite and nonnegative, got {self.alpha}")
        if self.alpha > self.epsilon:
            raise ValueError("alpha must not exceed epsilon")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.loss_kind not in ("cross_entropy", "cw_margin"):
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")

    def name(self) -> str:
        return ("pgd" if self.loss_kind == "cross_entropy" else "cw") + str(self.steps)


def _attack_objective(model: ModelParams, xv: Value, y: np.ndarray,
                      spec: AttackSpec, shift: Value | None) -> Value:
    logits = forward_logits(model, xv)
    if shift is not None:
        logits = ad.add(logits, shift)
    if spec.loss_kind == "cw_margin":
        return cw_margin_loss(logits, y)
    return ad.cross_entropy(logits, y)


def pgd_attack(model: ModelParams, x: np.ndarray, y: np.ndarray,
               spec: AttackSpec, rng: SplitMix64 | None = None,
               prior: ClassCounts | None = None,
               rows: np.ndarray | None = None) -> np.ndarray:
    """Iterative sign-gradient ascent projected onto the eps ball and [0,1] box;
    with a ``prior``, the attacked loss sees logits shifted by its log.

    With ``rows`` (an index array into the batch), the random start is still
    drawn for the whole batch, but only ``x[rows]`` is attacked and only those
    rows are returned. In exact arithmetic each row's gradient involves that
    row alone, up to the batch-mean's positive 1/n factor. In floating point
    it need not: BLAS may round a row's products differently when the batch
    has another row count, so logits and gradients can differ in the last
    bits. The sign step absorbs such rounding-level differences, and the
    tests pin ``pgd_attack(...)[rows]`` bit for bit on sampled data; that is
    a measured property, not a guarantee for every input.
    The label-range check covers all of ``y``."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if len(y) and (y.min() < 0 or y.max() >= model.arch.num_classes):
        raise ValueError("labels outside [0, num_classes)")
    if rng is None:
        rng = SplitMix64(0).fork("pgd_attack")

    if spec.random_start:
        start = rng.uniform_range(x.size, -spec.epsilon, spec.epsilon).reshape(x.shape)
        adv = np.clip(x + start, 0.0, 1.0)
    else:
        adv = x.copy()
    if rows is not None:
        x, y, adv = x[rows], y[rows], adv[rows]
    if not len(x):  # a batch-mean loss over no rows has no gradient to follow
        return adv

    model, shift = detached(model), None
    if prior is not None:
        log_prior = np.log(prior.smoothed)
        # max-normalize: constant shifts cancel in both losses, and a uniform
        # prior becomes the exact zero vector (bitwise no-op)
        shift = Value(log_prior - log_prior.max())
    for _ in range(spec.steps):
        xv = Value(adv, requires_grad=True)
        loss = _attack_objective(model, xv, y, spec, shift)
        ad.backward(loss)
        adv = adv + spec.alpha * np.sign(xv.grad)  # sign(0) == 0
        adv = x + np.clip(adv - x, -spec.epsilon, spec.epsilon)
        adv = np.clip(adv, 0.0, 1.0)
    return adv
