"""L-infinity PGD adversarial example generation.

The attack maximizes either cross-entropy or a CW margin over an epsilon ball
intersected with the [0,1] input box. It differentiates with respect to its
input only, in the model's dtype, and keeps the attacked input in float64 so
that the projection onto the ball and the box is exact. It builds no graph
through the model: each step runs the engine's own kernels on the model's
arrays (``mlp_activations`` forward, ``cross_entropy_adjoint`` or
``cw_margin_adjoint`` for the loss's logits adjoint, ``mlp_input_adjoint``
back), so no weight gradient is computed, the model's ``grad`` buffers are
never touched and no attack calls ``backward``. Each step's input gradient
is, up to the sign of a zero, bitwise the one ``backward`` gives through
``forward_logits`` and a graph-built loss node on an input in the model's
dtype, so the attack's output is bitwise the same.

Each call builds its layer list once, a buffer for the step and, for a
float32 model, one input buffer that every step narrows the attacked input
into. The attacked input is the attack's own float64 copy of the batch,
stepped and projected in place; the caller's batch is never written. The
step ``alpha * sign(adj)`` is taken in the adjoint's dtype, so a float32
model steps by ``float32(alpha)``.

Within one call each step is a pure function of the attacked input: the
batch, labels, model arrays, prior shift, alpha and epsilon are fixed, and
nothing random is drawn after the start. Sign steps of a fixed size on a
clipped box often revisit a state, and from then on the states repeat. So
the attack runs Brent's cycle detection on the attacked input's bits: one
saved copy of them, one more batch-sized buffer per call, holds the start
and then the state after steps 1, 2, ..., 8, 10, 12, 15, 18, 22, ..., each a
quarter further on than the last, and each step's state is compared with
it, first at one element that differed at the last full comparison, and in
full only where that element matches. Brent's doubling (steps 1, 2, 4, 8,
...) is as exact; the quarter steps exit sooner on evaluation's long
attacks, because the saved state enters the cycle sooner after it starts.
A match after step t with the copy of step m means every later state
repeats with period t - m, so the attack runs only the
``(steps - t) % (t - m)`` steps that remain modulo the period and returns
what running every step returns, bit for bit. Comparing bits rather than
values keeps -0.0 and +0.0 apart and lets NaN match itself.

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
from .corruption import ClassCounts
from .dataio import require
from .models import ModelParams
from .rng import SplitMix64


@dataclass(frozen=True)
class AttackSpec:
    epsilon: float
    alpha: float
    steps: int
    loss_kind: str = "cross_entropy"   # or "cw_margin"
    random_start: bool = True

    def __post_init__(self):
        require(self, "attack", ("epsilon", "alpha"),
                lambda v: math.isfinite(v) and v >= 0, "be finite and nonnegative")
        if self.alpha > self.epsilon:
            raise ValueError("alpha must not exceed epsilon")
        require(self, "attack", ("steps",), lambda v: v >= 1, "be at least 1")
        if self.loss_kind not in ("cross_entropy", "cw_margin"):
            raise ValueError(f"unknown loss_kind {self.loss_kind!r}")

    def name(self) -> str:
        return ("pgd" if self.loss_kind == "cross_entropy" else "cw") + str(self.steps)


def pgd_attack(model: ModelParams, x: np.ndarray, y: np.ndarray,
               spec: AttackSpec, rng: SplitMix64 | None = None,
               prior: ClassCounts | None = None) -> np.ndarray:
    """Iterative sign-gradient ascent projected onto the eps ball and [0,1] box;
    with a ``prior``, the attacked loss sees logits shifted by its log.
    Once the attacked batch repeats an earlier step's bits, it runs only the
    steps that remain modulo the period (see the module docstring), so the
    output is that of ``spec.steps`` steps, bit for bit.

    ``x`` must be (B, input_dim), ``y`` must hold B labels in
    [0, num_classes), a ``prior`` must count num_classes classes, and a CW
    margin attack needs at least 2 classes."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if x.ndim != 2 or x.shape[1] != model.arch.input_dim:
        raise ValueError(f"expected batch of shape (B, {model.arch.input_dim}), got {x.shape}")
    if y.shape != x.shape[:1]:
        raise ValueError(f"expected {len(x)} labels, got shape {y.shape}")
    if len(y) and (y.min() < 0 or y.max() >= model.arch.num_classes):
        raise ValueError("labels outside [0, num_classes)")
    if prior is not None and len(prior.counts) != model.arch.num_classes:
        raise ValueError(f"prior has {len(prior.counts)} class counts, "
                         f"the model {model.arch.num_classes} classes")
    if spec.loss_kind == "cw_margin" and model.arch.num_classes < 2:
        raise ValueError("the cw_margin loss needs at least 2 classes, "
                         f"the model has {model.arch.num_classes}")
    if rng is None:
        rng = SplitMix64(0).fork("pgd_attack")

    if spec.random_start:
        start = rng.uniform_range(x.size, -spec.epsilon, spec.epsilon).reshape(x.shape)
        adv = np.clip(x + start, 0.0, 1.0)
    else:
        adv = x.copy()
    if not len(x):  # a batch-mean loss over no rows has no gradient to follow
        return adv

    encoder = [(w.data, b.data) for w, b in model.encoder]
    head = [(model.head[0].data, model.head[1].data)]
    dtype = head[0][0].dtype
    shift = None
    if prior is not None:
        log_prior = np.log(prior.smoothed)
        # max-normalize: constant shifts cancel in both losses, and a uniform
        # prior becomes the exact zero vector (bitwise no-op)
        shift = (log_prior - log_prior.max()).astype(dtype)
    # the model's input: adv itself in float64, else one buffer narrowed into
    # each step; adv is a fresh array, so the steps below update it in place
    model_in = adv if adv.dtype == dtype else np.empty(adv.shape, dtype)
    step = np.empty(adv.shape, dtype)  # np.sign into its own input is slow
    # Brent's cycle detection on adv's bits: the mark holds the state after
    # step mark_at and moves to step next_mark, each a quarter further on
    # than the last (1, 2, ..., 8, 10, 12, 15, ...); bits is a view, so it
    # follows adv's in-place updates. The probe is the flat index of an
    # element that differed from the mark at the last full comparison, so a
    # state that is still moving mostly costs one element's comparison a step.
    bits = adv.view(np.uint64)
    mark, mark_at, next_mark, probe = bits.copy(), 0, 1, 0
    t, end = 0, spec.steps
    while t < end:
        if model_in is not adv:
            np.copyto(model_in, adv)
        acts = ad.mlp_activations(model_in, encoder)
        logits = ad.mlp_activations(acts[-1], head)[-1]
        if shift is not None:
            logits += shift
        if spec.loss_kind == "cw_margin":
            adj = ad.cw_margin_adjoint(logits, y)
        else:
            adj = ad.cross_entropy_adjoint(ad.log_softmax(logits), y)
        # the head's input is the encoder's linear output: no ReLU mask
        adj = ad.mlp_input_adjoint(adj, head[0][0], None)
        for i in reversed(range(len(encoder))):
            adj = ad.mlp_input_adjoint(adj, encoder[i][0], acts[i] if i else None)
        # the step alpha * sign(adj), in adj's dtype; sign(0) == 0, and a
        # -0.0 component moves adv by -0.0, which the projection below maps
        # to the bits a +0.0 gives
        np.sign(adj, out=step)
        step *= spec.alpha
        # adv = clip(x + clip(adv + step - x, -eps, eps), 0, 1), in place
        adv += step
        adv -= x
        adv.clip(-spec.epsilon, spec.epsilon, out=adv)
        adv += x
        adv.clip(0.0, 1.0, out=adv)
        t += 1
        if bits.item(probe) == mark.item(probe):
            # the first element that differs from the mark, or 0 if none does
            probe = (bits != mark).argmax()
            if bits.item(probe) == mark.item(probe):
                # the state after step t is the one after step mark_at, so
                # the states repeat with period t - mark_at from here on:
                # `end` steps reach the state that the remainder reaches
                end = t + (end - t) % (t - mark_at)
        if t == next_mark:
            np.copyto(mark, bits)
            mark_at, next_mark = t, t + max(1, t // 4)
    return adv
