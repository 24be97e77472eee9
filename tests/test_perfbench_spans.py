"""The benchmark's tracer wraps program functions by module and name; a renamed
or moved function must fail here rather than break a traced benchmark run."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


def test_workloads_module_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))   # workloads.py does `import checks`
    assert _load("workloads")


def test_every_traced_span_resolves(tracing):
    missing = []
    for mod_name, qualname in tracing.SPANS:
        target = importlib.import_module("oat." + mod_name)
        for part in qualname.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"oat.{mod_name}.{qualname}")
    assert not missing, f"traced names that no longer resolve: {missing}"
