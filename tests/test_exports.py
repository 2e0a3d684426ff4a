"""Every exported name must resolve, so a deletion cannot leave a dangling export."""
import importlib
import pkgutil

import pytest

import procurelab

MODULES = sorted(m.name for m in pkgutil.iter_modules(procurelab.__path__, "procurelab."))


@pytest.mark.parametrize("name", ["procurelab"] + MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from procurelab import *", namespace)
    assert set(procurelab.__all__) <= set(namespace)


def test_package_exports_the_submodule_lists():
    joined = []
    for name in ("equilibria", "experiments", "game_core", "oracle_solver", "strategy"):
        mod = importlib.import_module(f"procurelab.{name}")
        joined += mod.__all__
        assert all(getattr(procurelab, n) is getattr(mod, n) for n in mod.__all__)
    assert len(set(procurelab.__all__)) == len(procurelab.__all__)
    assert procurelab.__all__ == joined
