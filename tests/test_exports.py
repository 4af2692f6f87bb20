"""Every exported name resolves, so deleting a function cannot leave a stale export."""

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


def test_every_name_the_benchmark_tracer_wraps_exists(monkeypatch):
    """perfbench/tracing.py wraps package functions from outside, looked up as
    vars(owner)[attr]; a name deleted or moved in src/ would break a traced
    benchmark run.  The file is loaded and read, never installed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    targets = tracing._targets()
    assert len(targets) >= 21
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets
               if not callable(vars(owner).get(attr))]
    assert not missing
