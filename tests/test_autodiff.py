import numpy as np
import pytest

from oat import autodiff as ad
from oat.autodiff import SgdOptimizer, Value, backward, detach, sgd_pass
from oat.rng import SplitMix64

from helpers import fd_max_rel_error


def test_matmul_identity():
    x = np.array([3.0, -1.0, 2.5])
    out = ad.matmul(Value(np.eye(3)), Value(x))
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
    with pytest.raises(ValueError, match="matmul"):
        ad.matmul(Value(np.zeros((2, 3))), Value(np.zeros((4, 2))))
    with pytest.raises(ValueError, match="linear"):
        ad.linear(Value(np.zeros((2, 3))), Value(np.zeros((3, 4))), Value(np.zeros(3)))


def test_backward_relu_subgradient():
    x = Value([2.0, -2.0], requires_grad=True)
    root = ad.vsum(ad.relu(x))
    backward(root)
    assert np.array_equal(x.grad, [1.0, 0.0])
    assert float(root.grad) == 1.0


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


def test_gather_rows_and_max_rows():
    z = Value(np.array([[1.0, 5.0, 2.0], [4.0, 4.0, 0.0]]), requires_grad=True)
    picked = ad.gather_rows(z, np.array([1, 2]))
    assert np.array_equal(picked.data, [5.0, 0.0])
    top = ad.max_rows(z)
    assert np.array_equal(top.data, [5.0, 4.0])
    backward(ad.vsum(top))
    expected = np.zeros((2, 3))
    expected[0, 1] = 1.0
    expected[1, 0] = 1.0  # tie at 4.0 resolves to the lower index
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
            h = ad.relu(ad.add(ad.matmul(Value(x), w1), b1))
            logits = ad.add(ad.matmul(h, w2), b2)
            return ad.cross_entropy(logits, y)

        err = fd_max_rel_error(loss, [w1, b1, w2, b2], coords_per_tensor=50)
        assert err < 1e-4, f"seed {seed}: max rel error {err}"


def test_sgd_plain_step():
    w = Value(1.0, requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.1)
    w.grad[...] = 2.0
    opt.step()
    assert np.allclose(w.data, 0.8)
    assert float(w.grad) == 0.0  # step zeroes grads


def test_sgd_momentum_unrolled():
    w = Value(1.0, requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.1, momentum=0.9)
    w.grad[...] = 1.0
    opt.step()
    assert np.allclose(w.data, 0.9)  # first step: -0.1
    w.grad[...] = 1.0
    opt.step()
    assert np.allclose(w.data, 0.71)  # second step: -0.19


def test_sgd_weight_decay_only():
    w = Value(1.0, requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.1, weight_decay=0.0005)
    opt.step()  # grad is zero
    assert np.allclose(w.data, 0.99995)


def test_sgd_pass_batches_order_and_means_parts_over_every_batch():
    w = Value(np.zeros(1), requires_grad=True)
    opt = SgdOptimizer([w], learning_rate=0.5)
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
    opt = SgdOptimizer([w], learning_rate=0.1)

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
        results = []
        for fused in (True, False):
            x, w, b, probe = _random_linear(seed, *shape)
            out = ad.linear(x, w, b) if fused else ad.add(ad.matmul(x, w), b)
            # a non-uniform adjoint, so every backward product is exercised
            backward(ad.vsum(ad.relu(ad.mul(out, Value(probe)))))
            results.append([out.data, x.grad, w.grad, b.grad])
        for fused, reference in zip(*results):
            assert fused.tobytes() == reference.tobytes()


def test_grads_held_by_leaves_and_root_only():
    x, w, b, probe = _random_linear(11, 4, 3, 2)
    const = Value(probe)
    hidden = ad.linear(x, w, b)
    scaled = ad.mul(hidden, const)
    root = ad.vsum(scaled)
    backward(root)
    assert hidden.grad is None and scaled.grad is None and const.grad is None
    assert float(root.grad) == 1.0
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
    assert float(root.grad) == 2.0


def test_linear_detached_weight_gets_no_grad():
    x, w, b, probe = _random_linear(13, 6, 4, 3)
    frozen = detach(w)
    backward(ad.vsum(ad.mul(ad.linear(x, frozen, b), Value(probe))))
    assert frozen.grad is None
    assert np.array_equal(w.grad, np.zeros((4, 3)))
    assert np.array_equal(x.grad, probe @ w.data.T)
    assert np.array_equal(b.grad, probe.sum(axis=0))
