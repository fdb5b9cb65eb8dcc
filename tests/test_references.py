"""Names used from outside the package still resolve.

Nothing runs the demos in the test suite, and the benchmark's tracer wraps
package functions by name at run time, so a rename or deletion inside
`draftflow` could break either silently. These checks need no training.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("span,module,path", [
    (span, module, path) for span, module, path, _ in _tracing_targets()])
def test_traced_targets_resolve(span, module, path):
    owner = importlib.import_module(f"draftflow.{module}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner), span


def _demo_references(source: str):
    """(alias, attribute, line) for every `alias.attr` on a draftflow module."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "draftflow":
            for name in node.names:
                aliases[name.asname or name.name] = f"draftflow.{name.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield aliases[node.value.id], node.attr, node.lineno


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_references_exist(demo):
    source = (ROOT / "demos" / demo).read_text()
    missing = [f"{module}.{attr} (line {line})"
               for module, attr, line in _demo_references(source)
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing, f"{demo} uses names the package lacks: {missing}"
