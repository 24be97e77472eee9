import itertools
import math

import numpy as np
import pytest

from oat import autodiff as ad
from oat.adversary import AttackSpec, pgd_attack
from oat.corruption import ClassCounts
from oat.models import AT_MODEL, ArchSpec, cast, init_model
from oat.rng import SplitMix64

from helpers import TINY_ARCH, leaves_model_untouched, reference_pgd_attack


def _rand_batch(rng, n, d):
    return rng.uniform(n * d).reshape(n, d)


def test_attack_spec_validation():
    for epsilon, alpha in [(math.nan, 0.01), (math.inf, 0.01), (0.1, math.nan),
                           (0.1, -math.inf), (0.1, -0.01)]:
        with pytest.raises(ValueError, match="finite and nonnegative"):
            AttackSpec(epsilon=epsilon, alpha=alpha, steps=3)
    with pytest.raises(ValueError):
        AttackSpec(epsilon=0.01, alpha=0.02, steps=10)  # alpha > epsilon
    with pytest.raises(ValueError):
        AttackSpec(epsilon=0.1, alpha=0.02, steps=0)
    with pytest.raises(ValueError):
        AttackSpec(epsilon=0.1, alpha=0.02, steps=5, loss_kind="fgsm")
    assert AttackSpec(epsilon=8 / 255, alpha=2 / 255, steps=20).name() == "pgd20"
    assert AttackSpec(epsilon=8 / 255, alpha=2 / 255, steps=100,
                      loss_kind="cw_margin").name() == "cw100"


def test_zero_epsilon_is_identity():
    model = init_model(TINY_ARCH, AT_MODEL, seed=1)
    rng = SplitMix64(0).fork("x")
    x = _rand_batch(rng, 6, 5)
    y = np.array([0, 1, 2, 0, 1, 2])
    adv = pgd_attack(model, x, y, AttackSpec(epsilon=0.0, alpha=0.0, steps=3), rng)
    assert np.array_equal(adv, x)


def test_projection_soundness_randomized():
    rng = SplitMix64(42).fork("proj")
    for trial in range(40):
        arch = ArchSpec(input_dim=4, encoder_widths=(6,), feature_dim=5,
                        num_classes=3, projector_hidden=4, projector_out=2,
                        predictor_hidden=4, predictor_out=2)
        model = init_model(arch, AT_MODEL, seed=trial)
        x = _rand_batch(rng, 5, 4)
        y = np.array([rng.randint(3) for _ in range(5)])
        eps = 0.01 + 0.2 * float(rng.uniform(1)[0])
        spec = AttackSpec(epsilon=eps, alpha=eps / 4, steps=1 + trial % 8,
                          loss_kind="cw_margin" if trial % 3 == 0 else "cross_entropy")
        adv = pgd_attack(model, x, y, spec, rng.fork("a", trial))
        assert np.max(np.abs(adv - x)) <= eps + 1e-9
        assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_one_step_matches_closed_form_linear():
    # single linear layer, no hidden widths: logits = x W + b
    arch = ArchSpec(input_dim=3, encoder_widths=(), feature_dim=3, num_classes=2,
                    projector_hidden=4, projector_out=2, predictor_hidden=4,
                    predictor_out=2)
    model = init_model(arch, AT_MODEL, seed=7)
    weight = model.encoder[0][0].data @ model.head[0].data  # (3, 2) effective
    bias = model.encoder[0][1].data @ model.head[0].data + model.head[1].data
    x = np.array([[0.4, 0.5, 0.6]])
    y = np.array([0])
    spec = AttackSpec(epsilon=0.1, alpha=0.05, steps=1, random_start=False)
    adv = pgd_attack(model, x, y, spec)

    z = x @ weight + bias
    p = np.exp(z - z.max())
    p /= p.sum()
    grad_x = (p - np.array([[1.0, 0.0]])) @ weight.T  # d CE / d x
    expected = np.clip(x + 0.05 * np.sign(grad_x), 0.0, 1.0)
    assert np.allclose(adv, expected, atol=1e-12)


def test_uniform_adjustment_is_bitwise_noop():
    model = init_model(TINY_ARCH, AT_MODEL, seed=3)
    rng = SplitMix64(5).fork("u")
    x = _rand_batch(rng, 8, 5)
    y = np.array([rng.randint(3) for _ in range(8)])
    spec = AttackSpec(epsilon=0.05, alpha=0.0125, steps=6)
    a = pgd_attack(model, x, y, spec, SplitMix64(9).fork("r"))
    b = pgd_attack(model, x, y, spec, SplitMix64(9).fork("r"), ClassCounts((7, 7, 7)))
    assert np.array_equal(a, b)


def test_nonuniform_adjustment_changes_attack():
    model = init_model(TINY_ARCH, AT_MODEL, seed=3)
    rng = SplitMix64(6).fork("n")
    x = _rand_batch(rng, 8, 5)
    y = np.array([rng.randint(3) for _ in range(8)])
    spec = AttackSpec(epsilon=0.05, alpha=0.0125, steps=6)
    a = pgd_attack(model, x, y, spec, SplitMix64(9).fork("r"))
    b = pgd_attack(model, x, y, spec, SplitMix64(9).fork("r"), ClassCounts((100, 1, 1)))
    assert not np.array_equal(a, b)


def test_zero_count_prior_attacks_as_a_count_of_one():
    # the prior's log is taken of its smoothed counts, so no class count can
    # make the shift undefined
    model = init_model(TINY_ARCH, AT_MODEL, seed=3)
    rng = SplitMix64(8).fork("z")
    x = _rand_batch(rng, 8, 5)
    y = np.array([rng.randint(3) for _ in range(8)])
    spec = AttackSpec(epsilon=0.05, alpha=0.0125, steps=6)
    a = pgd_attack(model, x, y, spec, SplitMix64(9).fork("r"), ClassCounts((5, 0, 5)))
    b = pgd_attack(model, x, y, spec, SplitMix64(9).fork("r"), ClassCounts((5, 1, 5)))
    c = pgd_attack(model, x, y, spec, SplitMix64(9).fork("r"))
    assert np.array_equal(a, b)
    assert np.all(np.isfinite(a)) and not np.array_equal(a, c)


def test_labels_out_of_range():
    model = init_model(TINY_ARCH, AT_MODEL, seed=2)
    spec = AttackSpec(epsilon=0.1, alpha=0.05, steps=1)
    with pytest.raises(ValueError, match="labels"):
        pgd_attack(model, np.zeros((1, 5)), np.array([3]), spec)


def test_pgd_attack_on_zero_rows_returns_zero_rows():
    model = init_model(TINY_ARCH, AT_MODEL, seed=2)
    x = np.zeros((0, TINY_ARCH.input_dim))
    ce = AttackSpec(epsilon=0.08, alpha=0.02, steps=3)
    cw = AttackSpec(epsilon=0.08, alpha=0.02, steps=3, loss_kind="cw_margin")
    for spec, prior in [(ce, None), (cw, None), (ce, ClassCounts((9, 1, 1)))]:
        adv = pgd_attack(model, x, np.zeros(0, dtype=np.int64), spec, prior=prior)
        assert adv.shape == (0, TINY_ARCH.input_dim)


def test_cw_margin_closed_forms():
    # the label's own logit never counts as the largest other one, even when
    # it ties or leads: the margin rises along e_other - e_label
    for z in ([[3.0, 1.0]], [[1.0, 1.0]], [[1.0, 3.0]]):
        assert np.array_equal(ad.cw_margin_adjoint(np.array(z), np.array([0])), [[-1.0, 1.0]])
    assert np.array_equal(ad.cw_margin_adjoint(np.array([[2.0, 5.0, 1.0, 5.0]]), np.array([2])),
                          [[0.0, 1.0, -1.0, 0.0]])


def test_pgd_attack_rejects_a_cw_attack_on_a_one_class_model():
    # with one class the label is every row's only logit, so the CW margin has
    # no other class to raise; the check runs at entry
    arch = ArchSpec(input_dim=5, encoder_widths=(4,), feature_dim=3, num_classes=1)
    model = init_model(arch, AT_MODEL, seed=0)
    x, y = np.full((3, 5), 0.5), np.zeros(3, dtype=np.int64)
    cw = AttackSpec(epsilon=0.1, alpha=0.05, steps=2, loss_kind="cw_margin")
    with pytest.raises(ValueError, match="the cw_margin loss needs at least 2 classes, "
                                         "the model has 1"):
        pgd_attack(model, x, y, cw)
    assert pgd_attack(model, x, y, AttackSpec(epsilon=0.1, alpha=0.05, steps=2)).shape == x.shape


@pytest.mark.parametrize("loss_kind", ["cross_entropy", "cw_margin"])
@pytest.mark.parametrize("prior", [None, (40, 3, 0, 9), (6, 6, 6, 6)],
                         ids=["no-prior", "skewed-prior", "uniform-prior"])
@pytest.mark.parametrize("random_start", [True, False])
def test_pgd_attack_is_bitwise_the_graph_built_reference(loss_kind, prior, random_start):
    # pgd_attack runs the engine's kernels on plain arrays; the reference
    # differentiates forward_logits and the loss node with ad.backward. The
    # trainer attacks float32 models, evaluation float64 ones.
    spec = AttackSpec(epsilon=0.1, alpha=0.025, steps=6, loss_kind=loss_kind,
                      random_start=random_start)
    prior = None if prior is None else ClassCounts(prior)
    rng = SplitMix64(13).fork("ref." + loss_kind, int(random_start))
    for trial, (widths, dtype) in enumerate(itertools.product(((), (64,), (8, 6)),
                                                              (np.float64, np.float32))):
        arch = ArchSpec(input_dim=9, encoder_widths=widths, feature_dim=5, num_classes=4)
        model = cast(init_model(arch, AT_MODEL, seed=trial), dtype)
        for n in (1, 23, 128):
            x = _rand_batch(rng, n, 9)
            y = np.array([rng.randint(4) for _ in range(n)])
            got = pgd_attack(model, x, y, spec, SplitMix64(trial).fork("a"), prior)
            want = reference_pgd_attack(model, x, y, spec, SplitMix64(trial).fork("a"), prior)
            assert got.tobytes() == want.tobytes()


def test_pgd_attack_checks_the_batch_shape_at_entry():
    model = init_model(TINY_ARCH, AT_MODEL, seed=2)
    spec = AttackSpec(epsilon=0.1, alpha=0.05, steps=1)
    for x in (np.zeros((3, 4)), np.zeros(5), np.zeros((3, 5, 1))):
        with pytest.raises(ValueError, match=r"expected batch of shape \(B, 5\), got"):
            pgd_attack(model, x, np.zeros(len(x), dtype=np.int64), spec)


def test_pgd_attack_checks_the_prior_class_count_at_entry():
    model = init_model(TINY_ARCH, AT_MODEL, seed=2)
    spec = AttackSpec(epsilon=0.1, alpha=0.05, steps=1)
    for counts in ((9,), (9, 1), (9, 1, 1, 1)):
        with pytest.raises(ValueError, match=f"prior has {len(counts)} class counts, "
                                             "the model 3 classes"):
            pgd_attack(model, np.full((2, 5), 0.5), np.array([0, 1]), spec,
                       prior=ClassCounts(counts))


def test_pgd_attack_checks_the_label_count_at_entry():
    model = init_model(TINY_ARCH, AT_MODEL, seed=2)
    spec = AttackSpec(epsilon=0.1, alpha=0.05, steps=1)
    for y in (np.array([0, 1]), np.array([0, 1, 2, 0]), np.zeros((3, 1), dtype=np.int64)):
        with pytest.raises(ValueError, match="expected 3 labels, got shape"):
            pgd_attack(model, np.full((3, 5), 0.5), y, spec)


def test_cw_gradient_direction_matches_ce_on_2class_linear():
    # symmetric 2-class toy: d(CW)/dz = [-1, 1] for y=0; CE gives softmax-e_y,
    # proportional along the same axis, so input-gradient signs agree
    w = np.array([[1.0, -1.0], [0.5, 2.0]])
    z = ad.mlp_activations(np.array([[0.3, 0.7]]), [(w, np.zeros(2))])[-1]
    y = np.array([0])
    cw = ad.mlp_input_adjoint(ad.cw_margin_adjoint(z, y), w, None)
    ce = ad.mlp_input_adjoint(ad.cross_entropy_adjoint(ad.log_softmax(z), y), w, None)
    assert np.all(cw != 0) and np.array_equal(np.sign(cw), np.sign(ce))


def test_attack_deterministic_given_stream():
    model = init_model(TINY_ARCH, AT_MODEL, seed=4)
    x = _rand_batch(SplitMix64(1).fork("x"), 4, 5)
    y = np.array([0, 1, 2, 0])
    spec = AttackSpec(epsilon=0.08, alpha=0.02, steps=5)
    a = pgd_attack(model, x, y, spec, SplitMix64(11).fork("s"))
    b = pgd_attack(model, x, y, spec, SplitMix64(11).fork("s"))
    assert np.array_equal(a, b)


def test_pgd_attack_leaves_model_untouched():
    """The attack differentiates with respect to its input only: no attack
    objective writes a weight gradient or moves a parameter."""
    model = init_model(TINY_ARCH, AT_MODEL, seed=4)
    x = _rand_batch(SplitMix64(1).fork("x"), 4, 5)
    y = np.array([0, 1, 2, 0])
    ce = AttackSpec(epsilon=0.08, alpha=0.02, steps=3)
    cw = AttackSpec(epsilon=0.08, alpha=0.02, steps=3, loss_kind="cw_margin")
    with leaves_model_untouched(model):
        for spec, prior in [(ce, None), (cw, None), (ce, ClassCounts((100, 1, 1)))]:
            pgd_attack(model, x, y, spec, SplitMix64(11).fork("s"), prior)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("loss_kind", ["cross_entropy", "cw_margin"])
def test_pgd_attack_leaves_the_callers_batch_unchanged(monkeypatch, dtype, loss_kind):
    """The attack updates its own copy in place, never ``x``; it builds no
    graph for either loss, so it never calls ``backward``."""
    def no_backward(root):
        raise AssertionError(f"a {loss_kind} attack called autodiff.backward")
    monkeypatch.setattr(ad, "backward", no_backward)
    arch = ArchSpec(input_dim=9, encoder_widths=(16,), feature_dim=5, num_classes=4)
    model = cast(init_model(arch, AT_MODEL, seed=3), dtype)
    rng = SplitMix64(17).fork("caller." + loss_kind)
    x = _rand_batch(rng, 12, 9)
    y = np.array([rng.randint(4) for _ in range(12)])
    before = x.tobytes()
    for random_start in (True, False):
        spec = AttackSpec(epsilon=0.1, alpha=0.025, steps=4, loss_kind=loss_kind,
                          random_start=random_start)
        for prior in (None, ClassCounts((9, 1, 4, 2))):
            adv = pgd_attack(model, x, y, spec, SplitMix64(2).fork("a"), prior)
            assert not np.shares_memory(adv, x)
            assert x.tobytes() == before
