"""Small MLP classifiers built on the autodiff engine.

Two roles share one architecture: the oracle carries a projector and a
predictor head (two one-hidden-layer MLPs) on top of its feature encoder for
contrastive training; the robust model carries only encoder + classifier.
Both encoders must share feature_dim so the oracle's projector can score the
robust model's features.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .dataio import replaced_together
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


def detached(params: ModelParams) -> ModelParams:
    """View of a model whose every layer is a constant.

    Shares the underlying buffers, so later optimizer updates to the model
    are visible, but no gradient ever reaches the model through this view.
    """
    const = lambda layer: (ad.detach(layer[0]), ad.detach(layer[1]))
    block = lambda layers: None if layers is None else [const(layer) for layer in layers]
    return dataclasses.replace(params, encoder=block(params.encoder), head=const(params.head),
                               projector=block(params.projector),
                               predictor=block(params.predictor))


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_model(params: ModelParams, path: str | Path) -> None:
    """Write checkpoint.json (manifest) + params.bin (little-endian float64).

    Both are renamed into place only after both are written, so a failed
    save leaves a previous checkpoint in ``path`` untouched.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "version": CHECKPOINT_VERSION,
        "role": params.role,
        "arch": dataclasses.asdict(params.arch),
        "buffers": [],
    }
    blob = bytearray()
    for name, value in params.named_buffers():
        raw = np.ascontiguousarray(value.data, dtype="<f8").tobytes()
        manifest["buffers"].append({
            "name": name,
            "shape": list(value.data.shape),
            "offset": len(blob),
            "nbytes": len(raw),
        })
        blob += raw
    with replaced_together(path, ("params.bin", "checkpoint.json")) as temps:
        temps["params.bin"].write_bytes(bytes(blob))
        temps["checkpoint.json"].write_text(json.dumps(manifest, indent=2) + "\n")


_ARCH_KEYS = tuple(f.name for f in dataclasses.fields(ArchSpec))


def _is_int(x, least: int) -> bool:
    return type(x) is int and x >= least


def _read_manifest(manifest_file: Path) -> tuple[ArchSpec, str, list[dict]]:
    """checkpoint.json's arch, role and buffer entries, every key load_model
    reads checked: ValueError names the first key that is missing or holds
    the wrong kind of value."""
    manifest = json.loads(manifest_file.read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"checkpoint.json must hold a JSON object, "
                         f"not a {type(manifest).__name__}")
    for key in ("version", "role", "arch", "buffers"):
        if key not in manifest:
            raise ValueError(f"checkpoint.json has no {key!r}")
    version = manifest["version"]
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    role = manifest["role"]
    if role not in (ORACLE, AT_MODEL):
        raise ValueError(f"checkpoint.json 'role' must be {ORACLE!r} or {AT_MODEL!r}, "
                         f"got {role!r}")
    arch = manifest["arch"]
    if not isinstance(arch, dict):
        raise ValueError(f"checkpoint.json 'arch' must be a JSON object, got {arch!r}")
    for key in _ARCH_KEYS:
        if key not in arch:
            raise ValueError(f"checkpoint.json 'arch' has no {key!r}")
    unknown = sorted(arch.keys() - set(_ARCH_KEYS))
    if unknown:
        raise ValueError(f"checkpoint.json 'arch' has unknown key {unknown[0]!r}")
    widths = arch["encoder_widths"]
    if not isinstance(widths, list) or not all(_is_int(w, 1) for w in widths):
        raise ValueError(f"checkpoint.json arch 'encoder_widths' must be a list of "
                         f"integers >= 1, got {widths!r}")
    for key in _ARCH_KEYS:
        if key != "encoder_widths" and not _is_int(arch[key], 1):
            raise ValueError(f"checkpoint.json arch {key!r} must be an integer >= 1, "
                             f"got {arch[key]!r}")
    buffers = manifest["buffers"]
    if not isinstance(buffers, list):
        raise ValueError(f"checkpoint.json 'buffers' must be a list, got {buffers!r}")
    for i, entry in enumerate(buffers):
        where = f"checkpoint.json buffer {i}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be a JSON object, got {entry!r}")
        for key in ("name", "shape", "offset", "nbytes"):
            if key not in entry:
                raise ValueError(f"{where} has no {key!r}")
        if not isinstance(entry["name"], str):
            raise ValueError(f"{where} 'name' must be a string, got {entry['name']!r}")
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(_is_int(n, 0) for n in shape):
            raise ValueError(f"{where} 'shape' must be a list of integers >= 0, got {shape!r}")
        for key in ("offset", "nbytes"):
            if not _is_int(entry[key], 0):
                raise ValueError(f"{where} {key!r} must be an integer >= 0, "
                                 f"got {entry[key]!r}")
    return ArchSpec(**{**arch, "encoder_widths": tuple(widths)}), role, buffers


def load_model(path: str | Path) -> ModelParams:
    """Read a checkpoint written by ``save_model``.

    checkpoint.json is checked before anything is built (``_read_manifest``).
    The model is then built by ``init_model`` from the manifest's arch and
    role, and each buffer is filled by name; raises ValueError naming a
    buffer that is listed twice, missing, unexpected or of the wrong shape for
    that arch, and one whose bytes do not tile ``params.bin``: in offset
    order, each buffer must start where the one before it ended and span 8
    bytes per element, and the last must end where ``params.bin`` does.
    """
    path = Path(path)
    arch, role, buffers = _read_manifest(path / "checkpoint.json")
    params = init_model(arch, role, seed=0)
    expected = dict(params.named_buffers())
    entries = {}
    for entry in buffers:
        if entry["name"] in entries:
            raise ValueError(f"checkpoint.json lists buffer {entry['name']!r} twice")
        entries[entry["name"]] = entry
    extra = sorted(entries.keys() - expected.keys())
    if extra:
        raise ValueError(f"checkpoint buffer {extra[0]!r} is not part of its arch")
    missing = [name for name in expected if name not in entries]
    if missing:
        raise ValueError(f"checkpoint is missing buffer {missing[0]!r}")
    blob = (path / "params.bin").read_bytes()
    end = 0
    for entry in sorted(entries.values(), key=lambda e: e["offset"]):
        name, value = entry["name"], expected[entry["name"]]
        if tuple(entry["shape"]) != value.shape:
            raise ValueError(f"checkpoint buffer {name!r} has shape {tuple(entry['shape'])}, "
                             f"its arch needs {value.shape}")
        start, stop = entry["offset"], entry["offset"] + entry["nbytes"]
        if (start, stop) != (end, end + value.data.nbytes):
            raise ValueError(f"params.bin: buffer {name!r} is listed at bytes {start}..{stop}, "
                             f"its place is bytes {end}..{end + value.data.nbytes}")
        if stop > len(blob):
            raise ValueError(f"params.bin ends at byte {len(blob)}, inside buffer {name!r} "
                             f"(bytes {start}..{stop})")
        value.data[...] = np.frombuffer(blob[start:stop], dtype="<f8").reshape(value.shape)
        end = stop
    if end != len(blob):
        raise ValueError(f"params.bin holds {len(blob) - end} bytes after its last buffer "
                         f"{name!r}")
    return params
