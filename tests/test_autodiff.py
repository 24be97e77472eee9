import ast
from pathlib import Path

import numpy as np
import pytest

import oat
from oat import autodiff as ad
from oat.adversary import cw_margin_loss
from oat.autodiff import SgdOptimizer, Value, backward, detach, sgd_pass
from oat.rng import SplitMix64

from helpers import fd_max_rel_error


def test_linear_identity():
    x = np.array([[3.0, -1.0, 2.5]])
    out = ad.linear(Value(x), Value(np.eye(3)), Value(np.zeros(3)))
    assert np.array_equal(out.data, x)


def test_relu_definition():
    out = ad.relu(Value(np.array([-1.0, 0.0, 2.0])))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_softmax_symmetry():
    out = ad.softmax(Value(np.array([0.0, 0.0])))
    assert np.array_equal(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one():
    rows = ad.softmax(Value(np.array([[5.0, -3.0, 40.0], [0.1, 0.2, 0.3]])))
    assert np.all(np.abs(rows.data.sum(axis=1) - 1.0) < 1e-12)


def test_shape_mismatch_names_kind():
    with pytest.raises(ValueError, match="add"):
        ad.add(Value(np.zeros(3)), Value(np.zeros(4)))
    with pytest.raises(ValueError, match="linear"):
        ad.linear(Value(np.zeros((2, 3))), Value(np.zeros((3, 4))), Value(np.zeros(3)))


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
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
        backward(ad.vsum(Value([1.0, 2.0])))
    frozen = detach(Value([1.0, 2.0], requires_grad=True))
    with pytest.raises(ValueError, match="requires no grad"):
        backward(ad.vsum(frozen))


def test_batch_cosine_takes_2d_rows_of_one_shape():
    for bad in (np.ones(3), np.ones((1, 2, 3))):
        with pytest.raises(ValueError, match="batch_cosine: expected two 2-D inputs"):
            ad.batch_cosine(Value(bad), Value(bad))
    with pytest.raises(ValueError, match="batch_cosine: expected two 2-D inputs"):
        ad.batch_cosine(Value(np.ones((2, 3))), Value(np.ones((2, 4))))
    with pytest.raises(ValueError, match="batch_cosine: expected two 2-D inputs"):
        ad.batch_cosine(Value(np.ones((2, 3))), Value(np.ones((3, 3))))


def test_backward_relu_subgradient():
    x = Value([2.0, -2.0], requires_grad=True)
    root = ad.vsum(ad.relu(x))
    backward(root)
    assert np.array_equal(x.grad, [1.0, 0.0])
    assert root.grad is None


_RELU_EDGES = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]


def test_relu_bitwise_equals_where_reference():
    # shapes on both sides of np.where's 8192-element slow path, a strided and
    # a transposed view, 0-d and 1-d; fmax's scalar tail and 0-d path are
    # where it keeps a -0.0 input
    rng = SplitMix64(7).fork("relu")

    def with_edges(a):
        a.flat[::5] = np.resize(_RELU_EDGES, a.flat[::5].size)
        a.flat[a.size - len(_RELU_EDGES):] = _RELU_EDGES
        return a

    def normal(*shape):
        return rng.normal(int(np.prod(shape))).reshape(shape)

    inputs = [with_edges(normal(128, 64)), with_edges(normal(128, 256)),
              with_edges(normal(256, 64)), with_edges(normal(96, 90)[::2, 1::3]),
              with_edges(normal(64, 128).T), np.array(-0.0), np.array(-5e-324),
              np.array(_RELU_EDGES + [2.5, -0.0])]
    for a in inputs:
        probe = normal(*a.shape)
        x = Value(a, requires_grad=True)
        out = ad.relu(x)
        with np.errstate(invalid="ignore"):  # the root sums inf and -inf
            backward(ad.vsum(ad.mul(out, Value(probe))))
        want = np.where(a > 0, a, 0.0)
        want_grad = 0.0 + np.ones_like(a) * probe * (a > 0)
        assert np.array_equal(out.data.view(np.uint64), np.asarray(want).view(np.uint64))
        assert np.array_equal(x.grad.view(np.uint64), np.asarray(want_grad).view(np.uint64))


def test_backward_requires_scalar_root():
    x = Value([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(ad.relu(x))


def test_mse_of_value_with_itself_cancels():
    p = Value([1.0, 3.0, -2.0], requires_grad=True)
    backward(ad.mse(p, p))
    assert np.array_equal(p.grad, np.zeros(3))


def test_grad_accumulates_and_doubles():
    x = Value([1.0, 2.0], requires_grad=True)
    root = ad.vsum(ad.mul(x, x))
    backward(root)
    first = x.grad.copy()
    backward(root)
    assert np.array_equal(x.grad, 2.0 * first)


def test_value_reused_twice_accumulates_both_paths():
    x = Value([1.5], requires_grad=True)
    root = ad.vsum(ad.add(ad.mul(x, x), x))  # x^2 + x -> grad 2x + 1
    backward(root)
    assert np.allclose(x.grad, [4.0])


def test_detach_shares_data_and_blocks_gradient():
    x = Value([1.0, -2.0], requires_grad=True)
    y = ad.mul(x, x)
    d = detach(y)
    assert d.data is y.data
    assert not d.requires_grad and d.parents == ()
    backward(ad.vsum(ad.mul(d, x)))
    # only the direct x path contributes: d(d*x)/dx = d.data
    assert np.array_equal(x.grad, y.data)


def test_detach_byol_style_one_sided_gradient():
    a = Value([[1.0, 2.0]], requires_grad=True)
    b = Value([[3.0, 1.0]], requires_grad=True)
    backward(ad.neg(ad.vmean(ad.batch_cosine(detach(a), b))))
    assert np.array_equal(a.grad, np.zeros((1, 2)))
    assert np.any(b.grad != 0)
    # without the detach, both sides receive gradient
    a2 = Value([[1.0, 2.0]], requires_grad=True)
    b2 = Value([[3.0, 1.0]], requires_grad=True)
    backward(ad.neg(ad.vmean(ad.batch_cosine(a2, b2))))
    assert np.any(a2.grad != 0) and np.any(b2.grad != 0)


def test_batch_cosine_rejects_zero_norm():
    with pytest.raises(ValueError, match="zero-norm"):
        ad.batch_cosine(Value([[0.0, 0.0]]), Value([[1.0, 0.0]]))


def test_batch_cosine_gradients_match_finite_differences():
    # both operands require grad; a non-uniform probe weights each row's cosine
    for seed in range(5):
        rng = SplitMix64(seed).fork("cosine")
        a = Value(rng.uniform_range(4 * 6, -1.0, 1.0).reshape(4, 6), requires_grad=True)
        b = Value(rng.uniform_range(4 * 6, -1.0, 1.0).reshape(4, 6), requires_grad=True)
        probe = Value(rng.uniform_range(4, -1.0, 1.0))

        def loss():
            return ad.vsum(ad.mul(ad.batch_cosine(a, b), probe))

        err = fd_max_rel_error(loss, [a, b], coords_per_tensor=24)
        assert err < 1e-6, f"seed {seed}: max rel error {err}"


def test_gather_rows_and_cw_margin_max_subgradient():
    z = Value(np.array([[1.0, 5.0, 2.0], [4.0, 4.0, 0.0]]), requires_grad=True)
    picked = ad.gather_rows(z, np.array([1, 2]))
    assert np.array_equal(picked.data, [5.0, 0.0])
    # the true class is 2 in both rows, so the max over the others is 5 and 4
    loss = cw_margin_loss(z, np.array([2, 2]))
    assert loss.item() == ((5.0 - 2.0) + (4.0 - 0.0)) / 2
    backward(loss)
    expected = np.array([[0.0, 0.5, -0.5],
                         [0.5, 0.0, -0.5]])  # tie at 4.0 resolves to the lower index
    assert np.array_equal(z.grad, expected)


def test_mlp_gradients_match_finite_differences():
    # random 2-layer MLPs across seeds; hand-rolled loss through every op family
    for seed in range(5):
        rng = SplitMix64(seed).fork("mlp")
        w1 = Value(rng.uniform_range(4 * 6, -0.5, 0.5).reshape(4, 6), requires_grad=True)
        b1 = Value(rng.uniform_range(6, -0.5, 0.5), requires_grad=True)
        w2 = Value(rng.uniform_range(6 * 3, -0.5, 0.5).reshape(6, 3), requires_grad=True)
        b2 = Value(rng.uniform_range(3, -0.5, 0.5), requires_grad=True)
        x = rng.uniform(2 * 4).reshape(2, 4)
        y = np.array([0, 2])

        def loss():
            h = ad.relu(ad.linear(Value(x), w1, b1))
            logits = ad.linear(h, w2, b2)
            return ad.cross_entropy(logits, y)

        err = fd_max_rel_error(loss, [w1, b1, w2, b2], coords_per_tensor=50)
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
        return ad.vsum(ad.scale(w, float(len(idx)))), part_of[i]

    means = sgd_pass(opt, np.array([4, 2, 0, 3, 1]), 2, batch_loss, "test loss")
    assert seen == [(0, [4, 2]), (1, [0, 3]), (2, [1])]
    assert list(means) == ["a", "b"]
    assert means == {"a": 4.0 / 3, "b": 6.0 / 3}
    assert w.data.tolist() == [-0.5 * (2 + 2 + 1)]   # one step per batch


def test_sgd_pass_non_finite_loss_raises_before_its_step():
    w = Value(np.ones(2), requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.1, momentum=0.0, weight_decay=0.0)

    def batch_loss(i, idx):
        loss = ad.vsum(w) if i < 2 else ad.scale(ad.vsum(w), np.nan)
        return loss, {"loss": loss.item()}

    with pytest.raises(FloatingPointError, match="^non-finite test loss$"):
        sgd_pass(opt, np.arange(8), 2, batch_loss, "test loss")
    assert w.data.tolist() == [0.8, 0.8]           # batches 0 and 1 stepped
    assert w.grad.tolist() == [0.0, 0.0]           # batch 2 never ran backward


def _random_linear(seed: int, batch: int, fan_in: int, fan_out: int):
    rng = SplitMix64(seed).fork("linear")
    x = Value(rng.uniform_range(batch * fan_in, -1.0, 1.0).reshape(batch, fan_in),
              requires_grad=True)
    w = Value(rng.uniform_range(fan_in * fan_out, -1.0, 1.0).reshape(fan_in, fan_out),
              requires_grad=True)
    b = Value(rng.uniform_range(fan_out, -1.0, 1.0), requires_grad=True)
    probe = rng.uniform_range(batch * fan_out, -1.0, 1.0).reshape(batch, fan_out)
    return x, w, b, probe


def test_linear_bitwise_equals_add_of_matmul():
    for seed, shape in enumerate([(1, 1, 1), (3, 5, 2), (128, 16, 64), (7, 64, 10)]):
        x, w, b, probe = _random_linear(seed, *shape)
        out = ad.linear(x, w, b)
        # a non-uniform adjoint, so every backward product is exercised
        backward(ad.vsum(ad.relu(ad.mul(out, Value(probe)))))
        # numpy reference: the forward, the adjoint that vsum, relu and mul send
        # back, and linear's three backward products added into zero grads
        ref = x.data @ w.data + b.data
        adj = np.ones_like(ref) * (ref * probe > 0) * probe
        reference = [ref, 0.0 + adj @ w.data.T, 0.0 + x.data.T @ adj, 0.0 + adj.sum(axis=0)]
        for got, want in zip([out.data, x.grad, w.grad, b.grad], reference):
            assert got.tobytes() == want.tobytes()


def test_grads_held_by_leaves_only():
    x, w, b, probe = _random_linear(11, 4, 3, 2)
    const = Value(probe)
    hidden = ad.linear(x, w, b)
    scaled = ad.mul(hidden, const)
    root = ad.vsum(scaled)
    backward(root)
    assert hidden.grad is None and scaled.grad is None and const.grad is None
    assert root.grad is None
    assert np.array_equal(x.grad, probe @ w.data.T)
    assert np.array_equal(b.grad, probe.sum(axis=0))
    assert w.grad.shape == (3, 2) and np.any(w.grad != 0)


def test_backward_twice_doubles_leaf_grads_exactly():
    x, w, b, probe = _random_linear(12, 5, 4, 3)
    root = ad.vmean(ad.mul(ad.relu(ad.linear(x, w, b)), Value(probe)))
    backward(root)
    first = [p.grad.copy() for p in (x, w, b)]
    backward(root)
    for p, g in zip((x, w, b), first):
        assert np.array_equal(p.grad, 2.0 * g)


def test_linear_detached_weight_gets_no_grad():
    x, w, b, probe = _random_linear(13, 6, 4, 3)
    frozen = detach(w)
    backward(ad.vsum(ad.mul(ad.linear(x, frozen, b), Value(probe))))
    assert frozen.grad is None
    assert np.array_equal(w.grad, np.zeros((4, 3)))
    assert np.array_equal(x.grad, probe @ w.data.T)
    assert np.array_equal(b.grad, probe.sum(axis=0))


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
    assert sorted(public - called) == []
