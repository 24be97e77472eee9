"""Small MLP classifiers built on the autodiff engine.

Two roles share one architecture: the oracle carries a projector and a
predictor head (two one-hidden-layer MLPs) on top of its feature encoder for
contrastive training; the robust model carries only encoder + classifier.
Both encoders must share feature_dim so the oracle's projector can score the
robust model's features.

``init_model`` draws float64 parameters, and ``cast`` copies a model into
another dtype: the trainer trains float32 copies and evaluates float64 ones.
Checkpoints hold float64 on disk, which widens float32 exactly, and
``load_model`` returns a float64 model.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .dataio import read_json, replaced_together, require
from .rng import SplitMix64

ORACLE = "oracle"
AT_MODEL = "at_model"


@dataclass(frozen=True)
class ArchSpec:
    input_dim: int
    encoder_widths: tuple[int, ...]
    feature_dim: int
    num_classes: int
    projector_hidden: int = 256
    projector_out: int = 128
    predictor_hidden: int = 256
    predictor_out: int = 128

    def __post_init__(self):
        require(self, "arch", ("input_dim", "feature_dim", "num_classes", "projector_hidden",
                               "projector_out", "predictor_hidden", "predictor_out"),
                lambda v: v >= 1, "be at least 1")
        require(self, "arch", ("encoder_widths",),
                lambda widths: all(w >= 1 for w in widths), "all be at least 1")
        if self.projector_out != self.predictor_out:
            raise ValueError("projector_out and predictor_out must match (cosine compares them)")


Layer = tuple[Value, Value]  # (weight, bias)


@dataclass
class ModelParams:
    arch: ArchSpec
    role: str
    encoder: list[Layer]
    head: Layer
    projector: list[Layer] | None
    predictor: list[Layer] | None

    def parameters(self) -> list[Value]:
        return [value for _, value in self.named_buffers()]

    def named_buffers(self) -> list[tuple[str, Value]]:
        out = []
        for i, (w, b) in enumerate(self.encoder):
            out += [(f"encoder.{i}.w", w), (f"encoder.{i}.b", b)]
        out += [("head.w", self.head[0]), ("head.b", self.head[1])]
        for name, block in (("projector", self.projector), ("predictor", self.predictor)):
            if block is not None:
                for i, (w, b) in enumerate(block):
                    out += [(f"{name}.{i}.w", w), (f"{name}.{i}.b", b)]
        return out


def _linear_init(rng: SplitMix64, fan_in: int, fan_out: int) -> Layer:
    # uniform fan-in scaling, same bound for weight and bias
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform_range(fan_in * fan_out, -bound, bound).reshape(fan_in, fan_out)
    b = rng.uniform_range(fan_out, -bound, bound)
    return Value(w, requires_grad=True), Value(b, requires_grad=True)


def init_model(spec: ArchSpec, role: str, seed: int) -> ModelParams:
    """Build parameters for the requested role; deterministic given seed."""
    if role not in (ORACLE, AT_MODEL):
        raise ValueError(f"unknown role {role!r}")
    rng = SplitMix64(seed).fork(f"init.{role}")
    dims = [spec.input_dim, *spec.encoder_widths, spec.feature_dim]
    encoder = [_linear_init(rng, a, b) for a, b in zip(dims, dims[1:])]
    head = _linear_init(rng, spec.feature_dim, spec.num_classes)
    projector = predictor = None
    if role == ORACLE:
        projector = [
            _linear_init(rng, spec.feature_dim, spec.projector_hidden),
            _linear_init(rng, spec.projector_hidden, spec.projector_out),
        ]
        predictor = [
            _linear_init(rng, spec.projector_out, spec.predictor_hidden),
            _linear_init(rng, spec.predictor_hidden, spec.predictor_out),
        ]
    return ModelParams(arch=spec, role=role, encoder=encoder,
                       head=head, projector=projector, predictor=predictor)


def forward_features(params: ModelParams, x) -> Value:
    """Encoder output (batch x feature_dim): ReLU after hidden layers, linear out."""
    v = ad.as_value(x)
    if v.data.ndim != 2 or v.data.shape[1] != params.arch.input_dim:
        raise ValueError(f"expected batch of shape (B, {params.arch.input_dim}), got {v.shape}")
    return ad.mlp(v, params.encoder)


def forward_logits(params: ModelParams, x) -> Value:
    """Classifier logits (batch x C)."""
    return ad.mlp(forward_features(params, x), [params.head])


def project_predict(params: ModelParams, feats: Value, use_predictor: bool) -> Value:
    """Projector output, optionally pushed through the predictor as well."""
    if params.projector is None:
        raise ValueError(f"{params.role} params have no projector")
    out = ad.mlp(feats, params.projector)
    if use_predictor:
        if params.predictor is None:
            raise ValueError(f"{params.role} params have no predictor")
        out = ad.mlp(out, params.predictor)
    return out


def _map_layers(params: ModelParams, fn) -> ModelParams:
    """The model with each ``(w, b)`` layer replaced by ``fn(w, b)``."""
    block = lambda layers: None if layers is None else [fn(*layer) for layer in layers]
    return dataclasses.replace(params, encoder=block(params.encoder), head=fn(*params.head),
                               projector=block(params.projector),
                               predictor=block(params.predictor))


def cast(params: ModelParams, dtype) -> ModelParams:
    """A copy of the model with every buffer in ``dtype``; each copy requires
    grad as its source does and shares no buffer with it."""
    copy = lambda v: Value(v.data.astype(dtype), requires_grad=v.requires_grad)
    return _map_layers(params, lambda w, b: (copy(w), copy(b)))


def detached(params: ModelParams) -> ModelParams:
    """View of a model whose every layer is a constant.

    Shares the underlying buffers, so later optimizer updates to the model
    are visible, but no gradient ever reaches the model through this view.
    """
    return _map_layers(params, lambda w, b: (ad.detach(w), ad.detach(b)))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class _Manifest:
    """checkpoint.json: the model to build, and where its buffers lie in params.bin."""
    version: int
    role: str
    arch: ArchSpec
    buffers: list

    def __post_init__(self):
        if self.version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {self.version!r}")
        require(self, "checkpoint", ("role",), lambda v: v in (ORACLE, AT_MODEL),
                f"be {ORACLE!r} or {AT_MODEL!r}")


def _layout(params: ModelParams) -> list[dict]:
    """The buffer entries save_model writes: each named buffer's shape, and
    its bytes in params.bin, one after the other in ``named_buffers`` order."""
    layout, offset = [], 0
    for name, value in params.named_buffers():
        nbytes = 8 * value.data.size
        layout.append({"name": name, "shape": list(value.data.shape),
                       "offset": offset, "nbytes": nbytes})
        offset += nbytes
    return layout


def _require_finite(params: ModelParams, blob_file: Path) -> None:
    for name, value in params.named_buffers():
        if not np.isfinite(value.data).all():
            raise ValueError(f"{blob_file}: buffer {name!r} holds a non-finite value")


def save_model(params: ModelParams, path: str | Path) -> None:
    """Write checkpoint.json (manifest) + params.bin (little-endian float64).

    A float32 model is widened, which is exact, so ``load_model`` gives its
    values back bit for bit in float64. A non-finite parameter raises
    ValueError naming params.bin and the buffer, before anything is written.
    Both files are renamed into place only after both are written, so a
    failed save leaves a previous checkpoint in ``path`` untouched.
    """
    path = Path(path)
    _require_finite(params, path / "params.bin")
    path.mkdir(parents=True, exist_ok=True)
    manifest = _Manifest(CHECKPOINT_VERSION, params.role, params.arch, _layout(params))
    blob = b"".join(np.ascontiguousarray(value.data, dtype="<f8").tobytes()
                    for value in params.parameters())
    with replaced_together(path, ("params.bin", "checkpoint.json")) as temps:
        temps["params.bin"].write_bytes(blob)
        temps["checkpoint.json"].write_text(
            json.dumps(dataclasses.asdict(manifest), indent=2) + "\n")


def load_model(path: str | Path) -> ModelParams:
    """Read a checkpoint written by ``save_model`` as a float64 model.

    checkpoint.json must hold every key save_model writes and no other: a
    ``version`` 1, a known ``role`` and an ``arch`` that ``ArchSpec``
    accepts. Its ``buffers`` must be the list save_model writes for that
    arch and role (``_layout``), entry by entry as JSON text, so ``true`` is
    not ``1``; params.bin must be exactly as long as those buffers and hold
    only finite values. ValueError names the file, then the key, the buffer
    or the length.
    """
    path = Path(path)
    manifest_file, blob_file = path / "checkpoint.json", path / "params.bin"
    manifest = read_json(manifest_file, _Manifest, "checkpoint")
    params = init_model(manifest.arch, manifest.role, seed=0)
    layout = _layout(params)
    for i, entries in enumerate(zip_longest(manifest.buffers, layout)):
        got, want = (json.dumps(entry, sort_keys=True) for entry in entries)
        if got != want:
            raise ValueError(f"{manifest_file}: buffer {i} is {got}, save_model writes {want}")
    blob = blob_file.read_bytes()
    size = layout[-1]["offset"] + layout[-1]["nbytes"]
    if len(blob) != size:
        state = f"holds {len(blob)} bytes" if len(blob) > size else f"ends at byte {len(blob)}"
        raise ValueError(f"{blob_file} {state}, its buffers span {size}")
    for value, entry in zip(params.parameters(), layout):
        value.data[...] = np.frombuffer(blob, "<f8", value.data.size,
                                        entry["offset"]).reshape(value.shape)
    _require_finite(params, blob_file)
    return params
