"""Every exported name resolves, so deleting a function cannot leave a stale export."""

import importlib
import pkgutil

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
