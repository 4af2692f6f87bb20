"""Every exported name resolves, so deleting a function cannot leave a stale
export, and the benchmark's files still find what they call; no function or
class is kept for the tests alone, and README's library Quickstart runs."""

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import buffon


LIBRARY_MODULES = ("geometry", "steinhaus", "counting", "discrepancy", "harness", "rng")


def test_every_exported_name_resolves():
    """Each module's __all__ is its public surface, and buffon's is exactly
    the library modules' lists joined: a name is declared once."""
    submodules = {info.name: importlib.import_module(f"buffon.{info.name}")
                  for info in pkgutil.iter_modules(buffon.__path__)}
    assert set(submodules) == {*LIBRARY_MODULES, "cli"}
    for module in [buffon, *submodules.values()]:
        exported = module.__all__
        assert len(set(exported)) == len(exported), module.__name__
        assert not [name for name in exported if name.startswith("_") and name != "__version__"]
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    joined = [name for module in LIBRARY_MODULES for name in submodules[module].__all__]
    assert buffon.__all__ == joined + ["__version__"]
    namespace = {}
    exec("from buffon import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(buffon.__all__)


def _load_perfbench(name: str):
    """perfbench/<name>.py as a module: loaded from its file, never installed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look it up while it loads
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_name_the_benchmark_tracer_wraps_exists():
    """perfbench/tracing.py wraps package functions from outside, looked up as
    vars(owner)[attr]; a name deleted or moved in src/ would break a traced
    benchmark run."""
    targets = _load_perfbench("tracing")._targets()
    assert len(targets) >= 21
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets
               if not callable(vars(owner).get(attr))]
    assert not missing


WORKLOADS = _load_perfbench("workloads").WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_the_benchmark_workload_op_runs_and_passes_its_checks(name, tmp_path):
    """One op of each benchmark workload after its set-up: every call it makes,
    by the names and arguments it uses, runs and passes the op's own checks."""
    setup, op = WORKLOADS[name]
    result = op(setup(tmp_path, 3))
    assert result.ok, [check for check, ok in result.checks if not ok]
    assert result.digests
    assert all((tmp_path / output).is_file() for output in result.digests)


ROOT = Path(__file__).resolve().parents[1]


def _definitions(tree: ast.AST):
    """Every function and class defined in the tree, at any depth, dunders aside."""
    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _referenced(tree: ast.AST, strings: bool) -> set:
    """The names and attributes the tree uses, and its string constants if asked."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_function_and_class_is_used_outside_the_tests():
    """No code that only the tests call: each function and class of the package
    is named in the package beyond its definition and __all__, used by the
    benchmark's files (a string counts, as the tracer looks names up), or
    named in the CI workflow or pyproject.toml."""
    package = [ast.parse(path.read_text()) for path in (ROOT / "src" / "buffon").glob("*.py")]
    used = set()
    for tree in package:
        used |= _referenced(tree, strings=False)
    for path in (ROOT / "perfbench").glob("*.py"):
        used |= _referenced(ast.parse(path.read_text()), strings=True)
    for path in [*(ROOT / ".github" / "workflows").glob("*.yml"), ROOT / "pyproject.toml"]:
        used |= set(re.findall(r"\w+", path.read_text()))
    unused = sorted({name for tree in package for name in _definitions(tree)} - used)
    assert not unused


def test_the_readme_library_quickstart_runs(capsys):
    """README's library Quickstart block runs as printed."""
    readme = (ROOT / "README.md").read_text()
    fence = "```python\n"
    start = readme.index(fence, readme.index("## Quickstart (library)")) + len(fence)
    code = readme[start:readme.index("```\n", start)]
    exec(compile(code, "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == code.count("print(")
