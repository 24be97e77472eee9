"""The benchmark's tracer wraps program functions by module and name; a renamed
or moved function (or a dropped ``RunState`` field the workloads read) must
fail here rather than break a benchmark run."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
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


def _hook_arguments(tracing) -> list[tuple[str, int, str]]:
    """(hook suffix, position, name) for every ``_arg(args, kwargs, i, "name")``
    call in a ``_before_*``/``_after_*`` hook of the tracer."""
    found = []
    for node in ast.walk(ast.parse(Path(tracing.__file__).read_text())):
        if not (isinstance(node, ast.FunctionDef)
                and node.name.startswith(("_before_", "_after_"))):
            continue
        suffix = node.name.split("_", 2)[2]
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                index, name = (arg.value for arg in call.args[2:4])
                found.append((suffix, index, name))
    return found


def test_every_hook_argument_matches_the_traced_signature(tracing):
    hooks = _hook_arguments(tracing)
    assert len(hooks) >= 10, "the tracer's hooks no longer read arguments with _arg"
    wrong = []
    for suffix, index, name in hooks:
        spans = [(m, q) for m, q in tracing.SPANS if q.split(".")[-1] == suffix]
        assert spans, f"hook for {suffix!r} matches no traced span"
        for mod_name, qualname in spans:
            target = importlib.import_module("oat." + mod_name)
            for part in qualname.split("."):
                target = getattr(target, part)
            params = list(inspect.signature(target).parameters)
            if len(params) <= index or params[index] != name:
                wrong.append(f"oat.{mod_name}.{qualname}: position {index} is "
                             f"{params[index] if len(params) > index else None!r}, "
                             f"the tracer reads {name!r}")
    assert not wrong, f"tracer hooks read arguments that moved: {wrong}"


def test_every_run_state_field_the_workloads_read_exists():
    from oat.trainer import RunState
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "state"}
    assert read >= {"records", "best_epoch", "oversampled", "labels", "distribution", "oracle"}
    fields = {f.name for f in dataclasses.fields(RunState)}
    assert read <= fields, f"workloads read RunState fields that are gone: {sorted(read - fields)}"


def test_every_workload_knn_split_is_a_self_query():
    # knn_split rejects any query array but the index's own points
    calls = [node for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "knn_split"]
    assert calls, "workloads.py no longer calls knn_split"
    for call in calls:
        index, feats = call.args[:2]
        points = next((kw.value for kw in getattr(index, "keywords", ()) if kw.arg == "points"),
                      None)
        assert getattr(getattr(index, "func", None), "id", None) == "KnnIndex" \
            and isinstance(points, ast.Name), \
            f"line {call.lineno}: the index is not built as KnnIndex(points=<name>, ...)"
        assert isinstance(feats, ast.Name) and feats.id == points.id, \
            f"line {call.lineno}: knn_split queries {ast.unparse(feats)}, not its points {points.id}"
