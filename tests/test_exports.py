"""Every exported name resolves, so deleting a function cannot leave a stale
export, and the benchmark's files still find what they call."""

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import buffon


def test_every_exported_name_resolves():
    modules = [buffon] + [importlib.import_module(f"buffon.{info.name}")
                          for info in pkgutil.iter_modules(buffon.__path__)]
    for module in modules:
        exported = getattr(module, "__all__", [])  # discrepancy exports through buffon only
        assert len(set(exported)) == len(exported), module.__name__
        missing = [name for name in exported if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    namespace = {}
    exec("from buffon import *", namespace)
    assert set(buffon.__all__) <= set(namespace)


def _load_perfbench(name: str, monkeypatch):
    """perfbench/<name>.py as a module: loaded from its file, never installed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_wraps_exists(monkeypatch):
    """perfbench/tracing.py wraps package functions from outside, looked up as
    vars(owner)[attr]; a name deleted or moved in src/ would break a traced
    benchmark run."""
    targets = _load_perfbench("tracing", monkeypatch)._targets()
    assert len(targets) >= 21
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets
               if not callable(vars(owner).get(attr))]
    assert not missing


def test_the_benchmark_studies_op_runs_and_passes_its_checks(monkeypatch, tmp_path):
    """One op of the benchmark's studies workload: every study it calls, by
    the names and arguments it uses, runs and passes the op's own checks."""
    workloads = _load_perfbench("workloads", monkeypatch)
    result = workloads.studies_op(workloads.plain_setup(tmp_path, 3))
    assert result.ok, [name for name, ok in result.checks if not ok]
    assert (tmp_path / "studies.json").is_file()
