import json
from pathlib import Path

import numpy as np
import pytest

from oat import autodiff as ad
from oat.models import (AT_MODEL, ORACLE, ArchSpec, detached, forward_features,
                        forward_logits, init_model, load_model, project_predict,
                        save_model)
from oat.rng import SplitMix64

from helpers import TINY_ARCH, probe


def test_init_deterministic():
    a = init_model(TINY_ARCH, ORACLE, seed=5)
    b = init_model(TINY_ARCH, ORACLE, seed=5)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    c = init_model(TINY_ARCH, ORACLE, seed=6)
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_oracle_extra_heads():
    oracle = init_model(TINY_ARCH, ORACLE, seed=1)
    at = init_model(TINY_ARCH, AT_MODEL, seed=1)
    assert len(oracle.parameters()) - len(at.parameters()) == 8  # 4 weights + 4 biases
    assert at.projector is None and at.predictor is None


def test_no_hidden_widths_is_single_linear_map():
    arch = ArchSpec(input_dim=4, encoder_widths=(), feature_dim=3, num_classes=2,
                    projector_hidden=4, projector_out=2, predictor_hidden=4,
                    predictor_out=2)
    params = init_model(arch, AT_MODEL, seed=3)
    assert len(params.encoder) == 1
    x = np.full((2, 4), 0.5)
    feats = forward_features(params, x)
    expected = x @ params.encoder[0][0].data + params.encoder[0][1].data
    assert np.allclose(feats.data, expected)


def test_forward_logits_is_one_node_per_mlp():
    arch = ArchSpec(input_dim=5, encoder_widths=(7, 6), feature_dim=4, num_classes=3)
    params = init_model(arch, AT_MODEL, seed=2)
    x = ad.as_value(np.full((2, 5), 0.5))
    logits = forward_logits(params, x)
    nodes, stack = [], [logits]
    while stack:
        node = stack.pop()
        if node.parents:
            nodes.append(node)
            stack.extend(node.parents)
    head, encoder = nodes
    assert head.parents == (encoder, *params.head)
    assert encoder.parents == (x, *(p for layer in params.encoder for p in layer))


def test_forward_shapes_and_equivariance():
    params = init_model(TINY_ARCH, ORACLE, seed=4)
    rng = SplitMix64(0).fork("x")
    x = rng.uniform(3 * 5).reshape(3, 5)
    feats = forward_features(params, x)
    logits = forward_logits(params, x)
    assert feats.shape == (3, TINY_ARCH.feature_dim)
    assert logits.shape == (3, TINY_ARCH.num_classes)
    # permuting rows permutes outputs identically
    perm = np.array([2, 0, 1])
    assert np.array_equal(forward_logits(params, x[perm]).data, logits.data[perm])
    # duplicated rows give duplicated outputs
    dup = forward_features(params, np.vstack([x[0], x[0]]))
    assert np.array_equal(dup.data[0], dup.data[1])


def test_zero_weight_encoder_gives_zero_features():
    params = init_model(TINY_ARCH, AT_MODEL, seed=5)
    for w, b in params.encoder:
        w.data[...] = 0.0
        b.data[...] = 0.0
    feats = forward_features(params, np.full((2, 5), 0.3))
    assert np.array_equal(feats.data, np.zeros((2, 6)))


def test_forward_shape_mismatch():
    params = init_model(TINY_ARCH, AT_MODEL, seed=6)
    with pytest.raises(ValueError, match=r"\(B, 5\)"):
        forward_features(params, np.zeros((2, 7)))


def test_project_predict_widths_and_errors():
    oracle = init_model(TINY_ARCH, ORACLE, seed=7)
    x = np.full((2, 5), 0.4)
    feats = forward_features(oracle, x)
    proj = project_predict(oracle, feats, use_predictor=False)
    pred = project_predict(oracle, feats, use_predictor=True)
    assert proj.shape == (2, TINY_ARCH.projector_out)
    assert pred.shape == (2, TINY_ARCH.predictor_out)
    assert not np.array_equal(proj.data, pred.data)
    at = init_model(TINY_ARCH, AT_MODEL, seed=7)
    with pytest.raises(ValueError, match="projector"):
        project_predict(at, forward_features(at, x), use_predictor=False)


def test_arch_spec_head_width_invariant():
    with pytest.raises(ValueError, match="must match"):
        ArchSpec(input_dim=3, encoder_widths=(4,), feature_dim=3, num_classes=2,
                 projector_hidden=8, projector_out=4, predictor_hidden=8,
                 predictor_out=2)


@pytest.mark.parametrize("widths,named", [
    ((0, (0,), 4, 3), "arch key 'input_dim' must be at least 1, got 0"),
    ((3, (4, 0), 4, 3), "arch key 'encoder_widths' must all be at least 1, got [4, 0]"),
    ((3, (4,), 4, 0), "arch key 'num_classes' must be at least 1, got 0"),
], ids=["input_dim", "encoder_widths", "num_classes"])
def test_arch_spec_rejects_a_width_below_1(widths, named):
    with pytest.raises(ValueError) as err:
        ArchSpec(*widths)
    assert str(err.value) == named


def test_detached_passes_no_gradient():
    oracle = init_model(TINY_ARCH, ORACLE, seed=8)
    heads = detached(oracle)
    feats = forward_features(oracle, np.full((2, 5), 0.2))
    out = project_predict(heads, ad.detach(feats), use_predictor=True)
    assert not out.requires_grad and out.parents == ()  # no edge back to the oracle
    with pytest.raises(ValueError, match="requires no grad"):
        ad.backward(probe(out))
    assert all(np.all(p.grad == 0) for p in oracle.parameters())
    # buffers are shared, not copied
    assert heads.projector[0][0].data is oracle.projector[0][0].data


@pytest.mark.parametrize("role", [ORACLE, AT_MODEL])
def test_detached_view_is_constant_and_shares_every_buffer(role):
    params = init_model(TINY_ARCH, role, seed=8)
    view = detached(params)
    assert [n for n, _ in view.named_buffers()] == [n for n, _ in params.named_buffers()]
    for p, v in zip(params.parameters(), view.parameters()):
        assert v.data is p.data and not v.requires_grad
    x = ad.Value(np.full((2, 5), 0.2), requires_grad=True)
    logits = forward_logits(view, x)
    assert np.array_equal(logits.data, forward_logits(params, x.data).data)
    ad.backward(probe(logits))
    assert np.any(x.grad != 0)
    assert all(np.all(p.grad == 0) for p in params.parameters())


def test_checkpoint_roundtrip(tmp_path):
    for role in (ORACLE, AT_MODEL):
        params = init_model(TINY_ARCH, role, seed=9)
        save_model(params, tmp_path / role)
        back = load_model(tmp_path / role)
        assert back.role == role
        assert back.arch == TINY_ARCH
        for pa, pb in zip(params.parameters(), back.parameters()):
            assert np.array_equal(pa.data, pb.data)  # bitwise
        x = np.full((3, 5), 0.6)
        assert np.array_equal(forward_logits(params, x).data,
                              forward_logits(back, x).data)


_DROP = object()


def _set(path, value=_DROP):
    """An edit that sets (or, given no value, deletes) the manifest entry at
    ``path``, a list of keys and indices."""
    def edit(manifest):
        for key in path[:-1]:
            manifest = manifest[key]
        if value is _DROP:
            del manifest[path[-1]]
        else:
            manifest[path[-1]] = value
    return edit


def _swap_retiled(m):
    """Buffers 2 and 3 swapped, their offsets set so that they still tile."""
    buffers = m["buffers"]
    buffers[2], buffers[3] = buffers[3], buffers[2]
    buffers[3]["offset"] = buffers[2]["offset"] + buffers[2]["nbytes"]
    buffers[2]["offset"] = 336


# TINY_ARCH's at_model buffers as checkpoint.json lists them, keys sorted
_ENC0_W = '{"name": "encoder.0.w", "nbytes": 280, "offset": 0, "shape": [5, 7]}'
_ENC1_W = '{"name": "encoder.1.w", "nbytes": 336, "offset": 336, "shape": [7, 6]}'
_HEAD_B = '{"name": "head.b", "nbytes": 24, "offset": 864, "shape": [3]}'


def _buffer_2(got):
    return f"buffer 2 is {got}, save_model writes {_ENC1_W}"


_MALFORMED_MANIFEST = {
    "list": (lambda m: [m], "checkpoint must hold a JSON object, not a list"),
    "key-unknown": (_set(["step"], 3), "unknown checkpoint key(s): step"),
    "version-missing": (_set(["version"]), "missing checkpoint key(s): version"),
    "version-true": (_set(["version"], True), "checkpoint key 'version' must be int, got True"),
    "version-2": (_set(["version"], 2), "unsupported checkpoint version 2"),
    "role-missing": (_set(["role"]), "missing checkpoint key(s): role"),
    "role-unknown": (_set(["role"], "critic"),
                     "checkpoint key 'role' must be 'oracle' or 'at_model', got 'critic'"),
    "arch-list": (_set(["arch"], []), "checkpoint key 'arch' must be ArchSpec, got []"),
    "arch-key-missing": (_set(["arch", "feature_dim"]), "missing arch key(s): feature_dim"),
    "arch-default-key-missing": (_set(["arch", "projector_hidden"]),
                                 "missing arch key(s): projector_hidden"),
    "arch-key-unknown": (_set(["arch", "depth"], 2), "unknown arch key(s): depth"),
    "input_dim-float": (_set(["arch", "input_dim"], 5.0),
                        "arch key 'input_dim' must be int, got 5.0"),
    "num_classes-true": (_set(["arch", "num_classes"], True),
                         "arch key 'num_classes' must be int, got True"),
    "feature_dim-zero": (_set(["arch", "feature_dim"], 0),
                         "arch key 'feature_dim' must be at least 1, got 0"),
    "encoder_widths-int": (_set(["arch", "encoder_widths"], 7),
                           "arch key 'encoder_widths' must be tuple[int, ...], got 7"),
    "encoder_widths-float": (_set(["arch", "encoder_widths"], [7.0]),
                             "arch key 'encoder_widths' must be tuple[int, ...], got [7.0]"),
    "input_dim-changed": (_set(["arch", "input_dim"], 8),
                          f"buffer 0 is {_ENC0_W}, save_model writes "
                          '{"name": "encoder.0.w", "nbytes": 448, "offset": 0, "shape": [8, 7]}'),
    "buffers-object": (_set(["buffers"], {}), "checkpoint key 'buffers' must be list, got {}"),
    "buffer-list": (_set(["buffers", 0], []), f"buffer 0 is [], save_model writes {_ENC0_W}"),
    "buffer-missing": (_set(["buffers", 5]), f"buffer 5 is null, save_model writes {_HEAD_B}"),
    "buffer-extra": (lambda m: m["buffers"].append({**m["buffers"][-1], "name": "head.c"}),
                     'buffer 6 is {"name": "head.c", "nbytes": 24, "offset": 864, '
                     '"shape": [3]}, save_model writes null'),
    "buffer-twice": (lambda m: m["buffers"].append(m["buffers"][-1]),
                     f"buffer 6 is {_HEAD_B}, save_model writes null"),
    "buffers-swapped": (_swap_retiled, _buffer_2(
        '{"name": "encoder.1.b", "nbytes": 48, "offset": 336, "shape": [6]}')),
    "offset-missing": (_set(["buffers", 2, "offset"]), _buffer_2(
        '{"name": "encoder.1.w", "nbytes": 336, "shape": [7, 6]}')),
    "offset-moved": (_set(["buffers", 2, "offset"], 344), _buffer_2(
        '{"name": "encoder.1.w", "nbytes": 336, "offset": 344, "shape": [7, 6]}')),
    "offset-true": (_set(["buffers", 2, "offset"], True), _buffer_2(
        '{"name": "encoder.1.w", "nbytes": 336, "offset": true, "shape": [7, 6]}')),
    "offset-float": (_set(["buffers", 2, "offset"], 336.0), _buffer_2(
        '{"name": "encoder.1.w", "nbytes": 336, "offset": 336.0, "shape": [7, 6]}')),
    "name-int": (_set(["buffers", 2, "name"], 3), _buffer_2(
        '{"name": 3, "nbytes": 336, "offset": 336, "shape": [7, 6]}')),
    "shape-string": (_set(["buffers", 2, "shape"], "7x6"), _buffer_2(
        '{"name": "encoder.1.w", "nbytes": 336, "offset": 336, "shape": "7x6"}')),
    "shape-float": (_set(["buffers", 2, "shape"], [7.0, 6]), _buffer_2(
        '{"name": "encoder.1.w", "nbytes": 336, "offset": 336, "shape": [7.0, 6]}')),
    "nbytes-negative": (_set(["buffers", 2, "nbytes"], -8), _buffer_2(
        '{"name": "encoder.1.w", "nbytes": -8, "offset": 336, "shape": [7, 6]}')),
    "nbytes-grown": (_set(["buffers", 2, "nbytes"], 344), _buffer_2(
        '{"name": "encoder.1.w", "nbytes": 344, "offset": 336, "shape": [7, 6]}')),
}


@pytest.mark.parametrize("edit,named", _MALFORMED_MANIFEST.values(), ids=_MALFORMED_MANIFEST)
def test_load_model_rejects_malformed_manifest(tmp_path, edit, named):
    save_model(init_model(TINY_ARCH, AT_MODEL, seed=9), tmp_path)
    manifest = json.loads((tmp_path / "checkpoint.json").read_text())
    manifest = edit(manifest) or manifest
    (tmp_path / "checkpoint.json").write_text(json.dumps(manifest))
    (tmp_path / "params.bin").unlink()  # checkpoint.json is checked before params.bin is read
    with pytest.raises(ValueError) as err:
        load_model(tmp_path)
    assert str(err.value) == f"{tmp_path / 'checkpoint.json'}: {named}"


@pytest.mark.parametrize("edit,named", [
    (lambda blob: blob + bytes(8), "params.bin holds 896 bytes, its buffers span 888"),
    (lambda blob: blob[:-8], "params.bin ends at byte 880, its buffers span 888"),
    (lambda blob: blob[:-3], "params.bin ends at byte 885, its buffers span 888"),
])
def test_load_model_rejects_params_bin_of_the_wrong_length(tmp_path, edit, named):
    save_model(init_model(TINY_ARCH, AT_MODEL, seed=9), tmp_path)
    blob = tmp_path / "params.bin"
    blob.write_bytes(edit(blob.read_bytes()))
    with pytest.raises(ValueError) as err:
        load_model(tmp_path)
    assert str(err.value) == f"{tmp_path}/{named}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_save_model_refuses_a_non_finite_parameter(tmp_path, value):
    params = init_model(TINY_ARCH, AT_MODEL, seed=9)
    params.head[1].data[1] = value
    with pytest.raises(ValueError) as err:
        save_model(params, tmp_path / "ckpt")
    assert str(err.value) == \
        f"{tmp_path / 'ckpt' / 'params.bin'}: buffer 'head.b' holds a non-finite value"
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("name", ["encoder.0.b", "encoder.1.w", "head.b"])
def test_load_model_rejects_a_non_finite_params_bin(tmp_path, name):
    save_model(init_model(TINY_ARCH, AT_MODEL, seed=9), tmp_path)
    entry = next(e for e in json.loads((tmp_path / "checkpoint.json").read_text())["buffers"]
                 if e["name"] == name)
    blob = bytearray((tmp_path / "params.bin").read_bytes())
    at = entry["offset"] + entry["nbytes"] - 8  # the buffer's last value
    blob[at:at + 8] = np.array([np.nan], dtype="<f8").tobytes()
    (tmp_path / "params.bin").write_bytes(bytes(blob))
    with pytest.raises(ValueError) as err:
        load_model(tmp_path)
    assert str(err.value) == f"{tmp_path / 'params.bin'}: buffer {name!r} holds a non-finite value"


def test_failed_save_leaves_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "ckpt"
    old = init_model(TINY_ARCH, ORACLE, seed=9)
    save_model(old, path)
    before = {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    def disk_gone(self, *args, **kwargs):
        raise OSError("disk gone")

    # params.bin's temp file is written, then the manifest's write fails
    monkeypatch.setattr(Path, "write_text", disk_gone)
    with pytest.raises(OSError, match="disk gone"):
        save_model(init_model(TINY_ARCH, ORACLE, seed=10), path)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in sorted(path.iterdir())} == before
    back = load_model(path)
    for pa, pb in zip(old.parameters(), back.parameters()):
        assert np.array_equal(pa.data, pb.data)
