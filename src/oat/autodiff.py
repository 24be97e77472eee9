"""Reverse-mode automatic differentiation over dense float32 or float64 tensors.

A ``Value`` wraps a numpy buffer and remembers the operation that produced it.
Only leaves made with ``requires_grad=True`` (parameters, attacked inputs)
hold a ``.grad`` buffer, a zero buffer made with the leaf. Intermediate
nodes, constants and ``detach`` outputs keep ``grad is None``. An op records
a graph edge only when one of its operands requires grad, so ``detach`` (and
``models.detached`` for a whole model) is the way to hold a value constant.

``add`` may broadcast only a constant operand: an operand that requires grad
must already have the result's shape, so every adjoint has its operand's
shape and none is ever summed down.

``backward`` walks the part of the graph that requires grad in reverse
topological order. Constant operands are never visited, and each op's backward
skips the adjoint of a constant operand (returns ``None`` for it). Each pass's
adjoints are *added* into the leaves' ``.grad``, so gradients accumulate
across calls and must be zeroed explicitly (``SgdOptimizer.step`` does this
after applying the update).

The engine is ``add``, ``detach``, ``mlp`` and four losses, each a single
node that computes its own backward: ``mlp`` is a whole ReLU MLP (one node
per encoder, head, projector or predictor call), and the losses are
``cross_entropy``, ``soft_cross_entropy``, ``cosine_loss`` (the negated mean
row cosine of the contrastive and feature-alignment terms) and
``neg_softmax_mse`` (the oracle's divergence from the robust model). Each is
bitwise equal to the plain numpy arithmetic its docstring spells out. A
model's logits and their loss are three graph nodes; backward walks 12 op
nodes for an oracle batch with clean rows and 9 for an ``oat`` robust-model
batch with interaction and adjustment on. ``softmax`` and ``log_softmax``
are plain numpy and record no node.

Four rules are kernels on plain arrays, which the PGD attack calls to take
an input gradient without building a graph: ``mlp_activations`` (``mlp``'s
forward), ``mlp_input_adjoint`` (one layer of ``mlp``'s input adjoint),
``cross_entropy_adjoint`` (``cross_entropy``'s logits adjoint, in closed
form: ``exp(log_probs)`` scaled by ``adj / B``, less ``adj / B`` at each
label, which is bitwise the log-softmax chain rule it replaces) and
``cw_margin_adjoint`` (the CW margin's logits adjoint: ``1 / B`` at each
row's largest non-label logit, ``-1 / B`` at its label). The nodes call
the first three; the CW margin has no node, since only the attack
differentiates it.

Each array keeps its floating dtype: a ``Value`` holds a float32 or float64
buffer as given (anything else becomes float64), an ``mlp`` computes in its
weights' dtype, narrowing or widening its input and incoming adjoint to it,
and a loss computes in its logits' dtype, casting a constant target to it.
The trainer runs its models in float32 and evaluates float64 copies; the
gradient tests build float64 models, because central finite differences need
the headroom.

The two kernels on every training step stay off numpy's slow paths without
changing a bit. ``mlp``'s ReLU is ``np.fmax(h, 0.0) + 0.0``, because
``np.where`` slows sharply above 8192 elements and the ``+ 0.0`` turns the
``-0.0`` that ``fmax`` may keep into the ``+0.0`` that ``where`` gives; its
mask is built in backward only, from the stored output. ``SgdOptimizer.step``
updates in place, with each ``.grad`` as scratch. The kernels and
``log_softmax`` likewise update the arrays they allocate in place (the bias
add, the ReLU mask, the log-sum-exp subtraction), which runs the same IEEE
operations in the same order as the out-of-place forms, and ``log_softmax``
and ``softmax`` read each row's maximum off its ``argmax`` (``_row_max``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))


class Value:
    """Node in the differentiation graph: data, grad (or None), parents and
    the backward function of the op that produced it. A float32 or float64
    input keeps its dtype; any other becomes float64."""

    __slots__ = ("data", "grad", "requires_grad", "parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in _FLOATS else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = np.zeros_like(self.data) if requires_grad else None
        self.parents: tuple[Value, ...] = ()
        self._backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)


def as_value(x) -> Value:
    return x if isinstance(x, Value) else Value(x)


def _make(data: np.ndarray, parents: tuple[Value, ...], backward_fn) -> Value:
    """Wrap an op result, recording the graph edge only when grads can flow."""
    out = Value(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.parents = parents
        out._backward_fn = backward_fn
    return out


# ---------------------------------------------------------------------------
# primitive operations
# ---------------------------------------------------------------------------

def add(a: Value, b: Value) -> Value:
    """Elementwise sum. Only a constant operand may be broadcast: one that
    requires grad must have the result's shape, so its adjoint is never
    summed down."""
    try:
        shape = np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    for v in (a, b):
        if v.requires_grad and v.shape != shape:
            raise ValueError(f"add: operand of shape {v.shape} requires grad "
                             f"and would be broadcast to {shape}")
    data = a.data + b.data

    def backward_fn(adj):
        return (adj if a.requires_grad else None,
                adj if b.requires_grad else None)

    return _make(data, (a, b), backward_fn)


def mlp_activations(x: np.ndarray, layers: Sequence[tuple[np.ndarray, np.ndarray]]
                    ) -> list[np.ndarray]:
    """The forward kernel of ``mlp`` on plain arrays, in the first weight's
    dtype, to which ``x`` is cast: each ``(w, b)`` layer computes
    ``h = h @ w + b``, and every layer but the last is followed by
    ``np.fmax(h, 0.0) + 0.0``. Returns each layer's input, then the output."""
    acts = [np.asarray(x, dtype=layers[0][0].dtype)]
    for i, (w, b) in enumerate(layers):
        h = acts[-1]
        if h.ndim != 2 or w.ndim != 2 or h.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
            raise ValueError(f"mlp: layer {i} has incompatible shapes {h.shape}, "
                             f"{w.shape} and {b.shape}")
        h = h @ w
        h += b
        if i < len(layers) - 1:
            np.fmax(h, 0.0, out=h)
            h += 0.0  # fmax may keep a -0.0 input; np.where(h > 0, h, 0.0) gives +0.0
        acts.append(h)
    return acts


def mlp_input_adjoint(adj: np.ndarray, w: np.ndarray, relu_out: np.ndarray | None
                      ) -> np.ndarray:
    """The backward kernel of one ``mlp`` layer ``h = a @ w + b``: the
    adjoint of its input ``a`` given the adjoint ``adj`` of ``h``. That is
    ``adj @ w.T``, masked by ``relu_out > 0`` when ``a`` is the ReLU output
    ``relu_out`` of the layer below (it is > 0 exactly where the ReLU's input
    is); pass ``None`` for the first layer. ``adj`` is cast to ``w``'s dtype."""
    back = np.asarray(adj, dtype=w.dtype) @ w.T
    if relu_out is not None:
        back *= relu_out > 0
    return back


def mlp(x: Value, layers: Sequence[tuple[Value, Value]]) -> Value:
    """ReLU MLP as one node in its weights' dtype, its forward
    ``mlp_activations``. Backward casts the incoming adjoint to that dtype
    and walks the layers in reverse: layer i with input ``acts[i]`` gives
    ``adj.sum(axis=0)``, ``acts[i].T @ adj`` and ``mlp_input_adjoint``,
    skipping constant operands. No adjoint is summed inside, so it is bitwise
    one matmul-add node and one ReLU node per layer.
    """
    parents = (x, *(p for layer in layers for p in layer))
    acts = mlp_activations(x.data, [(w.data, b.data) for w, b in layers])

    def backward_fn(adj):
        adj = np.asarray(adj, dtype=acts[-1].dtype)
        grads = [None] * len(parents)
        for i in reversed(range(len(layers))):
            w, b = layers[i]
            grads[2 * i + 1] = acts[i].T @ adj if w.requires_grad else None
            grads[2 * i + 2] = adj.sum(axis=0) if b.requires_grad else None
            if not any(p.requires_grad for p in parents[:2 * i + 1]):
                break  # nothing below this layer takes a gradient
            adj = mlp_input_adjoint(adj, w.data, acts[i] if i else None)
        grads[0] = adj if x.requires_grad else None
        return grads

    return _make(acts[-1], parents, backward_fn)


def detach(a: Value) -> Value:
    """Stop-gradient: shares the data buffer, records no parent edge."""
    return Value(a.data)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(root: Value) -> None:
    """Accumulate d(root)/d(leaf) into .grad of every grad-requiring leaf.

    Adjoints are computed fresh per call and then added, so running backward
    twice without zeroing doubles every gradient exactly. Raises ValueError
    for a root that is not scalar-shaped or requires no grad.
    """
    if root.data.size != 1:
        raise ValueError(f"backward: root must be scalar-shaped, got {root.shape}")
    if not root.requires_grad:
        raise ValueError("backward: root requires no grad, so there is nothing to differentiate")

    # constants are never queued: they hold no grad and pass none on
    topo: list[Value] = []
    seen: set[int] = set()
    stack: list[tuple[Value, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    # every consumer of a node precedes it here, so its adjoint is complete
    # when it is reached; adjoints are never updated in place, so a
    # contribution may alias another node's adjoint
    adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(root.data)}
    for node in reversed(topo):
        adj = adjoint.pop(id(node))
        fn = node._backward_fn
        if fn is None:  # a leaf
            node.grad += adj
            continue
        for parent, contribution in zip(node.parents, fn(adj)):
            if contribution is None or not parent.requires_grad:
                continue
            prev = adjoint.get(id(parent))
            adjoint[id(parent)] = contribution if prev is None else prev + contribution


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _row_max(z: np.ndarray) -> np.ndarray:
    """``z.max(axis=-1, keepdims=True)`` of a (B, C) array, bit for bit.

    numpy reduces a short last axis one row at a time, which at (128, 10)
    takes about twice as long as picking each row's ``argmax`` entry. The
    two agree bitwise unless a row's maximum is NaN or a zero (``+0.0 ==
    -0.0``, and which one a reduction keeps depends on its order), and then
    numpy's own reduction answers."""
    top = z[np.arange(len(z)), z.argmax(axis=-1)]
    if len(z) and np.abs(top).min() > 0:
        return top[:, None]
    return z.max(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a (B, C) array, with max subtraction for
    stability. Records no graph node."""
    shifted = z - _row_max(z)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def _log_softmax_grad(g: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    """The logits' adjoint given the adjoint ``g`` of their log-softmax."""
    return g - np.exp(log_probs) * g.sum(axis=-1, keepdims=True)


def cross_entropy_adjoint(log_probs: np.ndarray, y: np.ndarray, adj: float = 1.0
                          ) -> np.ndarray:
    """The backward kernel of ``cross_entropy``: the logits' adjoint given
    their ``log_probs``, the labels ``y`` and the loss's adjoint ``adj``.

    Passing ``g``, which holds ``-adj / B`` at each row's label and 0
    elsewhere, through the log-softmax gives ``g - exp(log_probs) * s`` with
    ``s = g.sum(-1)``. The row sum is exactly the one nonzero entry, so this
    is, bit for bit, ``exp(log_probs) * (adj / B)`` with ``adj / B``
    subtracted at each label: negation is exact, and ``0 - v`` is ``-v``."""
    scale = adj / len(y)
    g = np.exp(log_probs)
    g *= scale
    g[np.arange(len(y)), y] -= scale
    return g


def cross_entropy(logits: Value, labels: np.ndarray) -> Value:
    """Mean over the B rows of ``-log_softmax(z)[i, y_i]`` for (B, C) logits
    and B labels in [0, C); backward is ``cross_entropy_adjoint``."""
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy expects (B, C) logits, got {logits.shape}")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != logits.shape[:1]:
        raise ValueError(f"cross_entropy: expected {logits.shape[0]} labels, got shape {y.shape}")
    if len(y) and (y.min() < 0 or y.max() >= logits.shape[1]):
        raise ValueError(f"cross_entropy: labels outside [0, {logits.shape[1]})")
    log_probs = log_softmax(logits.data)

    def backward_fn(adj):
        return (cross_entropy_adjoint(log_probs, y, float(adj)),)

    return _make(np.asarray(-log_probs[np.arange(len(y)), y].mean()), (logits,), backward_fn)


def soft_cross_entropy(logits: Value, target: np.ndarray) -> Value:
    """``-sum(log_softmax(z) * t) * (1 / B)`` for (B, C) logits and a constant
    target ``t`` of their shape (one distribution per row). Backward passes
    ``t * (-adj / B)`` through the log-softmax."""
    target = np.asarray(target, dtype=logits.data.dtype)
    if logits.data.ndim != 2 or target.shape != logits.shape:
        raise ValueError(f"soft_cross_entropy: expected (B, C) logits and a target of "
                         f"their shape, got {logits.shape} and {target.shape}")
    log_probs = log_softmax(logits.data)
    factor = 1.0 / len(target)

    def backward_fn(adj):
        return (_log_softmax_grad(target * float(-adj * factor), log_probs),)

    return _make(np.asarray(-((log_probs * target).sum() * factor)), (logits,), backward_fn)


_MASK_NEG = -1e18  # dominates any finite logit without leaving float32 range


def cw_margin_adjoint(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The logits' adjoint of the CW margin, the mean over the B rows of
    ``max_{j != y_i} z_j - z_{y_i}``: ``1 / B`` at each row's largest
    non-label logit and ``-1 / B`` at its label, in the logits' dtype. The
    largest is taken over the logits plus ``_MASK_NEG`` at the label, the
    lowest index winning a tie, so a row needs at least 2 classes."""
    rows = np.arange(len(y))
    masked = logits.copy()
    masked[rows, y] += _MASK_NEG
    u = 1.0 / len(y)
    g = np.zeros_like(masked)
    g[rows, masked.argmax(axis=1)] += u
    g[rows, y] -= u
    return g


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax (stable) of a plain (B, C) array, shifted by each
    row's ``_row_max``; rows sum to 1. Records no graph node."""
    e = np.exp(z - _row_max(z))
    return e / e.sum(axis=-1, keepdims=True)


def neg_softmax_mse(logits: Value, target: np.ndarray) -> Value:
    """``-mean((softmax(z) - t) ** 2)`` for (B, C) logits and a constant
    target ``t`` of their shape. With ``p = softmax(z)`` and ``n`` elements,
    backward forms ``g = (2.0 / n) * (p - t) * -adj`` and passes it through
    the softmax as ``p * (g - (g * p).sum(-1))``."""
    target = np.asarray(target, dtype=logits.data.dtype)
    if logits.data.ndim != 2 or target.shape != logits.shape:
        raise ValueError(f"neg_softmax_mse: expected (B, C) logits and a target of "
                         f"their shape, got {logits.shape} and {target.shape}")
    p = softmax(logits.data)
    diff = p - target
    n = diff.size

    def backward_fn(adj):
        g = (2.0 / n) * diff * -adj
        return (p * (g - (g * p).sum(axis=-1, keepdims=True)),)

    return _make(np.asarray(-((diff * diff).sum() / n)), (logits,), backward_fn)


def cosine_loss(a: Value, b: Value) -> Value:
    """``-mean(d / (na * nb))`` over the rows of two (B, D) batches, from the
    row dot ``d`` and row norms ``na``, ``nb``; rejects zero-norm rows
    (collapse signal). Backward seeds each row with ``u = -adj / B``; with
    ``den = na * nb``, ``g_d = u / den`` and ``g_den = -u * d / (den * den)``,
    it gives ``a`` the dot term ``g_d * b`` plus the norm term
    ``a * (g_den * nb / na)``, and ``b`` the mirror.
    """
    if a.data.ndim != 2 or a.shape != b.shape:
        raise ValueError(f"cosine_loss: expected two 2-D inputs of one shape, "
                         f"got {a.shape} and {b.shape}")
    na = np.sqrt((a.data * a.data).sum(axis=-1))
    nb = np.sqrt((b.data * b.data).sum(axis=-1))
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("cosine_loss: zero-norm embedding")
    d = (a.data * b.data).sum(axis=-1)
    den = na * nb

    def backward_fn(adj):
        u = float(-adj) / len(d)
        g_d = (u / den)[:, None]
        g_den = -u * d / (den * den)
        return (g_d * b.data + a.data * (g_den * nb / na)[:, None] if a.requires_grad else None,
                g_d * a.data + b.data * (g_den * na / nb)[:, None] if b.requires_grad else None)

    return _make(np.asarray(-(d / den).mean()), (a, b), backward_fn)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class SgdOptimizer:
    """SGD with momentum and weight decay; zeroes grads after each step.

    Update: v <- momentum*v + (grad + weight_decay*w); w <- w - lr*v. The
    velocity buffers and the whole update stay in each parameter's dtype.
    """

    def __init__(self, params: Iterable[Value], learning_rate: float,
                 momentum: float, weight_decay: float):
        self.params = list(params)
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        # in place, with p.grad as scratch: the same IEEE operations as the
        # out-of-place update, with one temporary per buffer instead of three
        for p, v in zip(self.params, self.velocity):
            g = p.grad
            g += self.weight_decay * p.data
            v *= self.momentum
            v += g
            np.multiply(v, self.learning_rate, out=g)
            p.data -= g
            g[...] = 0.0


def sgd_pass(opt: SgdOptimizer, order: np.ndarray, batch_size: int,
             batch_loss: Callable[[int, np.ndarray], tuple[Value, dict[str, float]]],
             what: str) -> dict[str, float]:
    """One SGD pass over ``order`` in batches of ``batch_size`` rows.

    For batch i with row indices idx, ``batch_loss(i, idx)`` returns the loss
    and its named float parts; ``backward`` and ``opt.step()`` follow. A
    non-finite loss raises ``FloatingPointError("non-finite " + what)`` before
    that batch's step. Returns each part's mean over all batches, keys in
    first-seen order.
    """
    batches = range(0, len(order), batch_size)
    sums: dict[str, float] = {}
    for i, start in enumerate(batches):
        loss, parts = batch_loss(i, order[start:start + batch_size])
        if not np.isfinite(loss.item()):
            raise FloatingPointError(f"non-finite {what}")
        backward(loss)
        opt.step()
        for name, value in parts.items():
            sums[name] = sums.get(name, 0.0) + value
    return {name: s / len(batches) for name, s in sums.items()}
