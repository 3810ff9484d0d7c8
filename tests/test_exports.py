"""Every exported name resolves, so deleting a helper leaves no stale entry."""

import importlib
import pkgutil

import fricsim


def test_package_exports_resolve():
    missing = [n for n in fricsim.__all__ if not hasattr(fricsim, n)]
    assert missing == []


def test_module_exports_resolve():
    missing = []
    for info in pkgutil.iter_modules(fricsim.__path__):
        module = importlib.import_module(f"fricsim.{info.name}")
        missing += [f"{info.name}.{n}" for n in getattr(module, "__all__", ())
                    if not hasattr(module, n)]
    assert missing == []
