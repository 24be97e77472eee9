import ast
from pathlib import Path

import numpy as np
import pytest

import oat
from oat import autodiff as ad
from oat.autodiff import SgdOptimizer, Value, backward, detach, sgd_pass
from oat.rng import SplitMix64

from helpers import cw_margin_loss, fd_max_rel_error, probe


def _identity_layer(n: int):
    return Value(np.eye(n)), Value(np.zeros(n))


def test_linear_identity():
    # a one-layer mlp is the affine map alone: no ReLU after the last layer
    x = np.array([[3.0, -1.0, 2.5]])
    out = ad.mlp(Value(x), [_identity_layer(3)])
    assert np.array_equal(out.data, x)


def test_relu_definition():
    out = ad.mlp(Value([[-1.0, 0.0, 2.0]]), [_identity_layer(3), _identity_layer(3)])
    assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])


def test_softmax_symmetry():
    out = ad.softmax(np.array([[0.0, 0.0]]))
    assert type(out) is np.ndarray   # plain numpy: no graph node
    assert np.array_equal(out, [[0.5, 0.5]])


def test_softmax_rows_sum_to_one():
    rows = ad.softmax(np.array([[5.0, -3.0, 40.0], [0.1, 0.2, 0.3]]))
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) < 1e-12)


def test_shape_mismatch_names_kind():
    with pytest.raises(ValueError, match="add"):
        ad.add(Value(np.zeros(3)), Value(np.zeros(4)))
    with pytest.raises(ValueError, match="mlp: layer 0 has incompatible shapes"):
        ad.mlp(Value(np.zeros((2, 3))), [(Value(np.zeros((3, 4))), Value(np.zeros(3)))])
    with pytest.raises(ValueError, match=r"mlp: layer 1 has incompatible shapes \(2, 4\)"):
        ad.mlp(Value(np.zeros((2, 3))), [(Value(np.zeros((3, 4))), Value(np.zeros(4))),
                                         (Value(np.zeros((3, 2))), Value(np.zeros(2)))])


@pytest.mark.parametrize("op", [ad.add])
def test_only_a_constant_operand_may_broadcast(op):
    rows = Value(np.ones((2, 3)), requires_grad=True)
    prior = np.array([1.0, 2.0, 4.0])
    assert op(rows, Value(prior)).shape == (2, 3)   # a constant (C,) broadcasts
    assert op(Value(prior), rows).shape == (2, 3)
    for a, b in [(rows, Value(prior, requires_grad=True)),
                 (Value(prior, requires_grad=True), rows),
                 (Value(np.ones((1, 3)), requires_grad=True), Value(np.ones((2, 3))))]:
        with pytest.raises(ValueError, match="requires grad and would be broadcast"):
            op(a, b)


def test_backward_rejects_a_root_that_requires_no_grad():
    with pytest.raises(ValueError, match="requires no grad"):
        backward(probe(Value([1.0, 2.0])))
    frozen = detach(Value([1.0, 2.0], requires_grad=True))
    with pytest.raises(ValueError, match="requires no grad"):
        backward(probe(frozen))


def test_cosine_loss_takes_2d_rows_of_one_shape():
    for bad in (np.ones(3), np.ones((1, 2, 3))):
        with pytest.raises(ValueError, match="cosine_loss: expected two 2-D inputs"):
            ad.cosine_loss(Value(bad), Value(bad))
    with pytest.raises(ValueError, match="cosine_loss: expected two 2-D inputs"):
        ad.cosine_loss(Value(np.ones((2, 3))), Value(np.ones((2, 4))))
    with pytest.raises(ValueError, match="cosine_loss: expected two 2-D inputs"):
        ad.cosine_loss(Value(np.ones((2, 3))), Value(np.ones((3, 3))))


def test_backward_relu_subgradient():
    x = Value([[2.0, -2.0]], requires_grad=True)
    root = probe(ad.mlp(x, [_identity_layer(2), _identity_layer(2)]), 0.5)
    backward(root)
    assert np.array_equal(x.grad, [[0.5, 0.0]])
    assert root.grad is None


_RELU_EDGES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]


def test_relu_bitwise_equals_where_reference():
    # a one-wide hidden layer between [[1.0]] weights: the ReLU sees the
    # column a (a -0.0 arrives as +0.0, as a matmul sum starts from +0.0) and
    # the output shows each ReLU result; sizes on both sides of np.where's
    # 8192-element slow path, with edges throughout and in the scalar tail
    rng = SplitMix64(7).fork("relu")
    for n in (len(_RELU_EDGES), 8192, 8195, 32771):
        a = rng.normal(n)
        a[::5] = np.resize(_RELU_EDGES, a[::5].size)
        a[n - len(_RELU_EDGES):] = _RELU_EDGES
        x = Value(a[:, None], requires_grad=True)
        layers = [(Value([[1.0]], requires_grad=True), Value([0.0], requires_grad=True))
                  for _ in range(2)]
        with np.errstate(invalid="ignore"):  # sums of inf and -inf
            out = _assert_matches_reference(x, layers, rng.normal(n)[:, None])
        assert np.isnan(a).any() and not np.signbit(out.data[out.data == 0]).any()


def test_backward_requires_scalar_root():
    x = Value([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(ad.add(x, x))


def test_mse_of_value_with_itself_cancels():
    z = Value([[1.0, 3.0, -2.0], [0.5, 0.0, 4.0]], requires_grad=True)
    loss = ad.neg_softmax_mse(z, ad.softmax(z.data))
    assert loss.item() == 0.0
    backward(loss)
    assert np.array_equal(z.grad, np.zeros((2, 3)))


def test_grad_accumulates_and_doubles():
    x = Value([1.0, 2.0], requires_grad=True)
    root = probe(x, [0.5, -1.0])
    backward(root)
    first = x.grad.copy()
    backward(root)
    assert np.array_equal(x.grad, 2.0 * first)


def test_value_reused_twice_accumulates_both_paths():
    x = Value([1.5], requires_grad=True)
    root = ad.add(probe(x, 2.0), probe(x))  # 2x + x -> grad 3
    backward(root)
    assert np.array_equal(x.grad, [3.0])


def test_detach_shares_data_and_blocks_gradient():
    x = Value([1.0, -2.0], requires_grad=True)
    y = ad.add(x, x)
    d = detach(y)
    assert d.data is y.data
    assert not d.requires_grad and d.parents == ()
    backward(ad.add(probe(x, [0.25, 4.0]), probe(d)))
    # only the direct x path contributes
    assert np.array_equal(x.grad, [0.25, 4.0])


def test_detach_byol_style_one_sided_gradient():
    a = Value([[1.0, 2.0]], requires_grad=True)
    b = Value([[3.0, 1.0]], requires_grad=True)
    backward(ad.cosine_loss(detach(a), b))
    assert np.array_equal(a.grad, np.zeros((1, 2)))
    assert np.any(b.grad != 0)
    # without the detach, both sides receive gradient
    a2 = Value([[1.0, 2.0]], requires_grad=True)
    b2 = Value([[3.0, 1.0]], requires_grad=True)
    backward(ad.cosine_loss(a2, b2))
    assert np.any(a2.grad != 0) and np.any(b2.grad != 0)


def test_cosine_loss_rejects_zero_norm():
    with pytest.raises(ValueError, match="zero-norm"):
        ad.cosine_loss(Value([[0.0, 0.0]]), Value([[1.0, 0.0]]))


def _cosine_cases():
    """Pairs of (B, D) batches: a 1-row batch, random rows and rows scaled
    far apart in norm."""
    rng = SplitMix64(5).fork("cosine")
    for batch, dim in [(1, 1), (1, 4), (4, 6), (33, 5), (128, 32)]:
        a = rng.uniform_range(batch * dim, -1.0, 1.0).reshape(batch, dim)
        b = rng.uniform_range(batch * dim, -1.0, 1.0).reshape(batch, dim)
        yield a, b
        yield a * 1e3, b * 1e-3


def _chain_cosine(a, b):
    """neg(vmean(batch_cosine(a, b))) with both operands requiring grad"""
    na = np.sqrt((a * a).sum(axis=-1))
    nb = np.sqrt((b * b).sum(axis=-1))
    d = (a * b).sum(axis=-1)
    den = na * nb
    value = -np.asarray((d / den).mean())
    adj = np.full_like(d, float(-np.ones(())) / d.size)             # neg, vmean
    g_d = (adj / den)[:, None]                                       # batch_cosine
    g_den = -adj * d / (den * den)
    return (value, g_d * b + a * (g_den * nb / na)[:, None],
            g_d * a + b * (g_den * na / nb)[:, None])


def test_cosine_loss_bitwise_equals_its_op_chain():
    for a_data, b_data in _cosine_cases():
        a = Value(a_data, requires_grad=True)
        b = Value(b_data, requires_grad=True)
        loss = ad.cosine_loss(a, b)
        backward(loss)
        value, grad_a, grad_b = _chain_cosine(a_data, b_data)
        assert loss.data.tobytes() == value.tobytes()
        assert a.grad.tobytes() == (0.0 + grad_a).tobytes()
        assert b.grad.tobytes() == (0.0 + grad_b).tobytes()


def test_cosine_loss_gradients_match_finite_differences():
    # both operands require grad
    for seed in range(5):
        rng = SplitMix64(seed).fork("cosine")
        a = Value(rng.uniform_range(4 * 6, -1.0, 1.0).reshape(4, 6), requires_grad=True)
        b = Value(rng.uniform_range(4 * 6, -1.0, 1.0).reshape(4, 6), requires_grad=True)
        err = fd_max_rel_error(lambda: ad.cosine_loss(a, b), [a, b], coords_per_tensor=24)
        assert err < 1e-6, f"seed {seed}: max rel error {err}"


def test_cw_margin_max_subgradient():
    # the true class is 2 in both rows, so the max over the others is 5 and 4
    # (a tie at 4.0 resolves to the lower index); 1 / B goes to each max
    # and -1 / B to each label, in the logits' dtype
    z = np.array([[1.0, 5.0, 2.0], [4.0, 4.0, 0.0]])
    for dtype in (np.float32, np.float64):
        g = ad.cw_margin_adjoint(z.astype(dtype), np.array([2, 2]))
        assert g.dtype == dtype
        assert np.array_equal(g, np.array([[0.0, 0.5, -0.5], [0.5, 0.0, -0.5]], dtype=dtype))


# Each loss node against the chain of single-purpose ops it replaced, written
# out as the numpy arithmetic those ops ran, forward and backward in order:
# each returns the loss value and the adjoint of the logits.

def _chain_log_softmax(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    data = shifted - lse
    return data, np.exp(data)


def _chain_cross_entropy(z, y):
    """neg(vmean(gather_rows(log_softmax(z), y)))"""
    ls, soft = _chain_log_softmax(z)
    rows = np.arange(len(y))
    picked = ls[rows, y]
    value = -np.asarray(picked.mean())
    adj = np.full_like(picked, float(-np.ones(())) / picked.size)   # neg, vmean
    g = np.zeros_like(ls)
    np.add.at(g, (rows, y), adj)                                    # gather_rows
    return value, g - soft * g.sum(axis=-1, keepdims=True)          # log_softmax


def _chain_soft_cross_entropy(z, t):
    """neg(scale(vsum(mul(log_softmax(z), t)), 1 / n))"""
    ls, soft = _chain_log_softmax(z)
    factor = float(1.0 / len(z))
    value = -(np.asarray((ls * t).sum()) * factor)
    adj = -np.ones(()) * factor                                     # neg, scale
    g = np.full_like(ls, float(adj)) * t                            # vsum, mul
    return value, g - soft * g.sum(axis=-1, keepdims=True)          # log_softmax


def _chain_cw_margin(z, y):
    """vmean(sub(gather_rows(add(z, mask), argmax), gather_rows(z, y)))"""
    rows = np.arange(len(y))
    mask = np.zeros(z.shape)
    mask[rows, y] = -1e18
    masked = z + mask
    other = np.argmax(masked, axis=1)
    diff = masked[rows, other] - z[rows, y]
    adj = np.full_like(diff, float(np.ones(())) / diff.size)       # vmean
    g_other, g_true = np.zeros_like(z), np.zeros_like(z)
    np.add.at(g_other, (rows, other), adj)                         # sub, gather_rows
    np.add.at(g_true, (rows, y), -adj)
    return np.asarray(diff.mean()), g_other + g_true


def _chain_neg_softmax_mse(z, t):
    """neg(mse(softmax(z), t))"""
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=-1, keepdims=True)
    diff = p - t
    value = -np.asarray((diff * diff).sum() / diff.size)
    g = (2.0 / diff.size) * diff * -np.ones(())                     # neg, mse
    return value, p * (g - (g * p).sum(axis=-1, keepdims=True))      # softmax


def _loss_cases():
    """Random (B, C) logits, labels and a target distribution per row: a
    1-row batch, CW ties at the max, and logits shifted by a log prior."""
    rng = SplitMix64(21).fork("losses")
    for batch, classes in [(1, 2), (1, 10), (3, 2), (7, 3), (128, 10), (33, 5)]:
        z = rng.normal(batch * classes).reshape(batch, classes) * 4.0
        y = np.array([rng.randint(classes) for _ in range(batch)])
        t = np.exp(rng.normal(batch * classes).reshape(batch, classes))
        yield z, y, t / t.sum(axis=1, keepdims=True)
        prior = np.log(rng.uniform_range(classes, 1.0, 900.0))
        yield z + (prior - prior.max()), y, np.eye(classes)[y]
    tied = np.array([[4.0, 4.0, 0.0], [1.0, 3.0, 3.0], [2.0, 2.0, 2.0], [0.0, 7.0, 7.0]])
    yield tied, np.array([2, 0, 1, 0]), np.full((4, 3), 1 / 3)


_FUSED = [(ad.cross_entropy, _chain_cross_entropy, "labels"),
          (ad.soft_cross_entropy, _chain_soft_cross_entropy, "target"),
          (cw_margin_loss, _chain_cw_margin, "labels"),
          (ad.neg_softmax_mse, _chain_neg_softmax_mse, "target")]


@pytest.mark.parametrize("op,chain,second", _FUSED)
def test_loss_node_bitwise_equals_its_op_chain(op, chain, second):
    for z, y, t in _loss_cases():
        arg = y if second == "labels" else t
        logits = Value(z, requires_grad=True)
        loss = op(logits, arg)
        backward(loss)
        value, grad = chain(z, arg)
        assert loss.data.tobytes() == value.tobytes()
        assert logits.grad.tobytes() == (0.0 + grad).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_max_is_bitwise_numpys_reduction(dtype):
    # random rows, and rows whose maximum is a signed zero, NaN or infinite,
    # where numpy's order of comparison decides the bits
    rng = SplitMix64(29).fork("row_max")
    cases = [rng.normal(n * c).reshape(n, c) for n, c in ((1, 2), (128, 10), (33, 17))]
    values = np.array([0.0, -0.0, -1.5, np.nan, np.inf, -np.inf])
    for _ in range(200):
        cols = 2 + rng.randint(15)
        cases.append(values[[rng.randint(3) for _ in range(cols)]].reshape(1, cols))
        cases.append(values[[rng.randint(6) for _ in range(3 * cols)]].reshape(3, cols))
    cases.append(np.zeros((0, 4)))
    for z in cases:
        z = z.astype(dtype)
        want = z.max(axis=-1, keepdims=True)
        assert ad._row_max(z).tobytes() == want.tobytes(), z
        # softmax takes its shift from _row_max: bitwise the shift by numpy's max
        with np.errstate(invalid="ignore"):
            e = np.exp(z - want)
            assert ad.softmax(z).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes(), z


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cross_entropy_adjoint_is_bitwise_the_log_softmax_chain_rule(dtype):
    # the closed form against g - exp(log_probs) * g.sum(-1), with g holding
    # -adj / B at each label, compared raw so the sign of every zero counts;
    # at the larger scales exp(log_probs) underflows to 0 in most entries
    rng = SplitMix64(23).fork("ce_adjoint")
    for scale in (1e-2, 1.0, 30.0, 1e3):
        for batch, classes in ((1, 2), (7, 3), (128, 10)):
            z = (rng.normal(batch * classes).reshape(batch, classes) * scale).astype(dtype)
            y = np.array([rng.randint(classes) for _ in range(batch)])
            log_probs = ad.log_softmax(z)
            for adj in (1.0, 2.0, 0.37):
                g = np.zeros_like(log_probs)
                g[np.arange(batch), y] += -adj / batch
                want = ad._log_softmax_grad(g, log_probs)
                got = ad.cross_entropy_adjoint(log_probs, y, adj)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes()
    assert not np.exp(ad.log_softmax(z)).all()  # some entries did underflow


def test_cw_margin_tie_goes_to_the_lower_index():
    z = np.array([[0.0, 7.0, 7.0], [3.0, 1.0, 3.0]])
    assert np.array_equal(ad.cw_margin_adjoint(z, np.array([0, 1])),
                          [[-0.5, 0.5, 0.0], [0.5, -0.5, 0.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cw_margin_adjoint_is_bitwise_the_graph_node(dtype):
    # the kernel against the graph-built node's backward, compared raw so the
    # sign of every zero counts: through backward into a logits leaf, which
    # is how the attack took it before the kernel
    for z, y, _ in _loss_cases():
        z = z.astype(dtype)
        leaf = Value(z, requires_grad=True)
        backward(cw_margin_loss(leaf, y))
        got = ad.cw_margin_adjoint(z, y)
        assert got.dtype == dtype
        assert got.tobytes() == leaf.grad.tobytes()


def _cw_margin(z, y):
    """The mean CW margin, its max over the non-label entries written out."""
    rows = np.arange(len(y))
    others = z.copy()
    others[rows, y] = -np.inf
    return (others.max(axis=1) - z[rows, y]).mean()


def test_cw_margin_adjoint_matches_finite_differences():
    # central differences on float64 logits with no tie at a row's maximum
    # (ties are kinks of the margin, so the tied case is left out); the
    # margin is piecewise linear, so they agree to rounding
    h = 1e-5
    for z, y, _ in list(_loss_cases())[:-1]:
        grad = ad.cw_margin_adjoint(z, y)
        worst = 0.0
        for i in np.ndindex(z.shape):
            up, down = z.copy(), z.copy()
            up[i] += h
            down[i] -= h
            fd = (_cw_margin(up, y) - _cw_margin(down, y)) / (2.0 * h)
            worst = max(worst, abs(grad[i] - fd) / max(1.0, abs(fd)))
        assert worst < 1e-6, f"{z.shape}: max rel error {worst}"


@pytest.mark.parametrize("op,chain,second", _FUSED)
def test_loss_node_gradients_match_finite_differences(op, chain, second):
    # ties are kinks of the CW margin, so only the random cases are checked
    for z, y, t in list(_loss_cases())[:-1]:
        logits = Value(z, requires_grad=True)
        arg = y if second == "labels" else t
        err = fd_max_rel_error(lambda: op(logits, arg), [logits], coords_per_tensor=30)
        assert err < 1e-6, f"{op.__name__} on {z.shape}: max rel error {err}"


def test_loss_nodes_reject_bad_shapes():
    z = Value(np.zeros((4, 3)))
    with pytest.raises(ValueError, match=r"expects \(B, C\) logits"):
        ad.cross_entropy(Value(np.zeros(3)), np.array([0]))
    with pytest.raises(ValueError, match="expected 4 labels, got shape"):
        ad.cross_entropy(z, np.array([0]))          # would broadcast over the rows
    with pytest.raises(ValueError, match="expected 4 labels, got shape"):
        ad.cross_entropy(z, np.zeros((4, 1), dtype=np.int64))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=r"labels outside \[0, 3\)"):
            ad.cross_entropy(z, np.array([0, 1, bad, 2]))
    for op in (ad.soft_cross_entropy, ad.neg_softmax_mse):
        for logits, target in [(z, np.full(3, 1 / 3)),          # a (C,) target broadcast
                               (z, np.full((4, 1), 1.0)),
                               (z, np.full((3, 3), 1 / 3)),
                               (Value(np.zeros(3)), np.full(3, 1 / 3))]:
            with pytest.raises(ValueError, match=f"{op.__name__}: expected"):
                op(logits, target)


def test_mlp_gradients_match_finite_differences():
    # random 2-layer MLPs across seeds; hand-rolled loss through every op family
    for seed in range(5):
        rng = SplitMix64(seed).fork("mlp")
        w1 = Value(rng.uniform_range(4 * 6, -0.5, 0.5).reshape(4, 6), requires_grad=True)
        b1 = Value(rng.uniform_range(6, -0.5, 0.5), requires_grad=True)
        w2 = Value(rng.uniform_range(6 * 3, -0.5, 0.5).reshape(6, 3), requires_grad=True)
        b2 = Value(rng.uniform_range(3, -0.5, 0.5), requires_grad=True)
        x = Value(rng.uniform(2 * 4).reshape(2, 4), requires_grad=True)
        y = np.array([0, 2])

        def loss():
            return ad.cross_entropy(ad.mlp(x, [(w1, b1), (w2, b2)]), y)

        err = fd_max_rel_error(loss, [x, w1, b1, w2, b2], coords_per_tensor=50)
        assert err < 1e-4, f"seed {seed}: max rel error {err}"


def test_sgd_plain_step():
    w = Value(1.0, requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.1, momentum=0.0, weight_decay=0.0)
    w.grad[...] = 2.0
    opt.step()
    assert np.allclose(w.data, 0.8)
    assert float(w.grad) == 0.0  # step zeroes grads


def test_sgd_momentum_unrolled():
    w = Value(1.0, requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.1, momentum=0.9, weight_decay=0.0)
    w.grad[...] = 1.0
    opt.step()
    assert np.allclose(w.data, 0.9)  # first step: -0.1
    w.grad[...] = 1.0
    opt.step()
    assert np.allclose(w.data, 0.71)  # second step: -0.19


def test_sgd_weight_decay_only():
    w = Value(1.0, requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.1, momentum=0.0, weight_decay=0.0005)
    opt.step()  # grad is zero
    assert np.allclose(w.data, 0.99995)


def test_sgd_step_bitwise_equals_out_of_place_update():
    rng = SplitMix64(3).fork("sgd")
    params = [Value(rng.normal(1)[0], requires_grad=True),
              Value(rng.normal(12).reshape(3, 4), requires_grad=True)]
    lr, momentum, weight_decay = 0.05, 0.9, 5e-4
    opt = SgdOptimizer(params, learning_rate=lr, momentum=momentum,
                       weight_decay=weight_decay)
    grads = [p.grad for p in params]
    weights = [p.data.copy() for p in params]
    velocity = [np.zeros_like(p.data) for p in params]
    for _ in range(5):
        for p, w, v in zip(params, weights, velocity):
            p.grad[...] = rng.normal(p.data.size).reshape(p.shape)
            g = p.grad + weight_decay * w
            v *= momentum
            v += g
            w -= lr * v
        opt.step()
        for p, grad, w, v, v_opt in zip(params, grads, weights, velocity, opt.velocity):
            assert p.data.tobytes() == w.tobytes() and v_opt.tobytes() == v.tobytes()
            assert p.grad is grad and not np.any(p.grad)


def test_sgd_pass_batches_order_and_means_parts_over_every_batch():
    w = Value(np.zeros(1), requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.5, momentum=0.0, weight_decay=0.0)
    part_of = [{"a": 1.0}, {"b": 2.0, "a": 3.0}, {"b": 4.0}]
    seen = []

    def batch_loss(i, idx):
        seen.append((i, idx.tolist()))
        return probe(w, len(idx)), part_of[i]   # d/dw = len(idx)

    means = sgd_pass(opt, np.array([4, 2, 0, 3, 1]), 2, batch_loss, "test loss")
    assert seen == [(0, [4, 2]), (1, [0, 3]), (2, [1])]
    assert list(means) == ["a", "b"]
    assert means == {"a": 4.0 / 3, "b": 6.0 / 3}
    assert w.data.tolist() == [-0.5 * (2 + 2 + 1)]   # one step per batch


def test_sgd_pass_non_finite_loss_raises_before_its_step():
    w = Value(np.ones(2), requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.2, momentum=0.0, weight_decay=0.0)

    def batch_loss(i, idx):
        loss = probe(w, 0.5) if i < 2 else ad.add(probe(w, 0.5), Value(np.nan))
        return loss, {"loss": loss.item()}

    with pytest.raises(FloatingPointError, match="^non-finite test loss$"):
        sgd_pass(opt, np.arange(8), 2, batch_loss, "test loss")
    assert w.data.tolist() == [0.8, 0.8]           # batches 0 and 1 stepped
    assert w.grad.tolist() == [0.0, 0.0]           # batch 2 never ran backward


def _random_mlp(seed: int, batch: int, dims: tuple[int, ...]):
    """A grad-requiring (batch, dims[0]) input, layers dims[i] -> dims[i + 1],
    and non-uniform probe weights of the output's shape."""
    rng = SplitMix64(seed).fork("mlp")

    def leaf(*shape):
        return Value(rng.uniform_range(int(np.prod(shape)), -1.0, 1.0).reshape(shape),
                     requires_grad=True)

    layers = [(leaf(a, b), leaf(b)) for a, b in zip(dims, dims[1:])]
    weights = rng.uniform_range(batch * dims[-1], -1.0, 1.0).reshape(batch, dims[-1])
    return leaf(batch, dims[0]), layers, weights


def _assert_matches_reference(x, layers, weights):
    """Run mlp and backward of probe(out, weights) on zero grads; compare
    the output and every leaf's grad bitwise with numpy per layer (matmul and
    add, np.where for the ReLU, its mask from the pre-activation) and return
    the output."""
    out = ad.mlp(x, layers)
    backward(probe(out, weights))
    acts, pre, h = [], [], x.data
    for i, (w, b) in enumerate(layers):
        acts.append(h)
        h = h @ w.data + b.data
        if i < len(layers) - 1:
            pre.append(h)
            h = np.where(h > 0, h, 0.0)
    assert out.data.tobytes() == h.tobytes()
    adj = weights   # what probe sends back
    for i in reversed(range(len(layers))):
        w, b = layers[i]
        for leaf, want in ((w, acts[i].T @ adj), (b, adj.sum(axis=0))):
            if leaf.requires_grad:
                assert leaf.grad.tobytes() == (0.0 + want).tobytes()
        adj = adj @ w.data.T
        if i:
            adj = adj * (pre[i - 1] > 0)
    if x.requires_grad:
        assert x.grad.tobytes() == (0.0 + adj).tobytes()
    return out


def test_mlp_bitwise_equals_per_layer_numpy_reference():
    # 1, 2 and 3 layers, with a grad-requiring and with a constant input (as
    # in training); the 128- and 256-row hidden layers of width 64 hold 8192
    # and 16384 elements
    for seed, (batch, dims) in enumerate([(1, (1, 1)), (3, (5, 2)), (7, (64, 10)),
                                          (1, (1, 1, 1)), (3, (5, 4, 2)),
                                          (128, (16, 64, 10)), (256, (16, 64, 32, 10))]):
        _assert_matches_reference(*_random_mlp(seed, batch, dims))
        x, layers, weights = _random_mlp(seed, batch, dims)
        _assert_matches_reference(detach(x), layers, weights)


def test_grads_held_by_leaves_only():
    x, layers, weights = _random_mlp(11, 4, (3, 5, 2))
    const = Value(weights)
    out = ad.add(ad.mlp(x, layers), const)
    root = probe(out, weights)
    backward(root)
    assert out.grad is None and const.grad is None
    assert root.grad is None
    for leaf in (x, *(p for layer in layers for p in layer)):
        assert np.any(leaf.grad != 0)


def test_backward_twice_doubles_leaf_grads_exactly():
    x, layers, weights = _random_mlp(12, 5, (4, 6, 3))
    root = probe(ad.mlp(x, layers), weights)
    leaves = [x, *(p for layer in layers for p in layer)]
    backward(root)
    first = [p.grad.copy() for p in leaves]
    backward(root)
    for p, g in zip(leaves, first):
        assert np.array_equal(p.grad, 2.0 * g)


def test_mlp_detached_weight_gets_no_grad():
    # one detached weight: every other operand's grad is as without it
    x, layers, weights = _random_mlp(13, 6, (4, 5, 3))
    w0 = layers[0][0]
    frozen = detach(w0)
    _assert_matches_reference(x, [(frozen, layers[0][1]), layers[1]], weights)
    assert frozen.grad is None
    assert np.array_equal(w0.grad, np.zeros((4, 5)))
    # a constant input and first layer: only the top layer takes a gradient
    x, layers, weights = _random_mlp(14, 6, (4, 5, 3))
    below = [detach(x), detach(layers[0][0]), detach(layers[0][1])]
    _assert_matches_reference(below[0], [tuple(below[1:]), layers[1]], weights)
    assert all(v.grad is None for v in below)
    assert np.any(layers[1][0].grad != 0) and np.any(layers[1][1].grad != 0)


def _names_called(tree: ast.Module) -> set[str]:
    """Names of ``oat.autodiff`` a module calls, as ``alias.name(...)`` or as
    ``name(...)`` after ``from .autodiff import name``."""
    aliases, imported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "autodiff":
                imported |= {a.asname or a.name for a in node.names}
            elif node.module is None:
                aliases |= {a.asname or a.name for a in node.names if a.name == "autodiff"}
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) \
                and f.value.id in aliases:
            called.add(f.attr)
        elif isinstance(f, ast.Name) and f.id in imported:
            called.add(f.id)
    return called


def test_every_public_engine_name_is_called_from_another_module():
    package = Path(oat.__file__).parent
    engine = ast.parse((package / "autodiff.py").read_text())
    public = {node.name for node in engine.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    called = set()
    for path in package.glob("*.py"):
        if path.name != "autodiff.py":
            called |= _names_called(ast.parse(path.read_text()))
    called |= {"backward"}  # reached through sgd_pass once no attack calls it
    assert sorted(public - called) == []
