"""Star imports of the package and of each module: a stale ``__all__`` entry fails here."""

import importlib
import pkgutil

import pytest

import lsdfem

MODULES = sorted(info.name for info in pkgutil.iter_modules(lsdfem.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_of_each_module(name):
    namespace = {}
    exec(f"from lsdfem.{name} import *", namespace)
    module = importlib.import_module(f"lsdfem.{name}")
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_package_all_resolves():
    namespace = {}
    exec("from lsdfem import *", namespace)
    assert [name for name in lsdfem.__all__ if name not in namespace] == []
    assert len(set(lsdfem.__all__)) == len(lsdfem.__all__)
