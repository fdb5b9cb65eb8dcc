"""Names used from outside the package still resolve.

Nothing runs the demos or the benchmark in the test suite, and the
benchmark's tracer wraps package functions by name at run time, so a rename
or deletion inside `draftflow` could break either silently. These checks
need no training.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span,module,path", [
    (span, module, path) for span, module, path, _ in _tracing().TARGETS])
def test_traced_targets_resolve(span, module, path):
    owner = importlib.import_module(f"draftflow.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), span


@pytest.mark.parametrize("op", _tracing().BWD_OPS)
def test_traced_backward_ops_define_their_closure(op):
    # the tracer names a `bwd` span after the first part of the backward
    # closure's qualname, so the closure must be nested in the op itself
    fn = getattr(importlib.import_module("draftflow.tensor"), op)
    nested = [c.co_qualname for c in fn.__code__.co_consts
              if isinstance(c, types.CodeType)]
    assert f"{op}.<locals>.backward" in nested, nested


def test_traced_train_stage2_keeps_variant_fourth():
    # the tracer's per-variant hook reads a positional variant as args[3]
    from draftflow import flowfield

    params = list(inspect.signature(flowfield.train_stage2).parameters)
    assert params.index("variant") == 3, params


def _package_references(source: str):
    """(module, attribute, line) for every name taken from a draftflow
    module: `alias.attr` on an imported module, and `from draftflow.mod
    import name`."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        for name in node.names:
            if node.module == "draftflow":
                aliases[name.asname or name.name] = f"draftflow.{name.name}"
            elif (node.module or "").startswith("draftflow."):
                yield node.module, name.name, node.lineno
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr, node.lineno


def _missing_references(path: pathlib.Path) -> list:
    return [f"{module}.{attr} (line {line})"
            for module, attr, line in _package_references(path.read_text())
            if not hasattr(importlib.import_module(module), attr)]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_references_exist(demo):
    missing = _missing_references(ROOT / "demos" / demo)
    assert not missing, f"{demo} uses names the package lacks: {missing}"


@pytest.mark.parametrize("script", sorted(
    p.name for p in (ROOT / "perfbench").glob("*.py")))
def test_benchmark_references_exist(script):
    missing = _missing_references(ROOT / "perfbench" / script)
    assert not missing, f"{script} uses names the package lacks: {missing}"
