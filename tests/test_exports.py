import importlib
import pkgutil

import pytest

import nhqc

MODULES = sorted(info.name for info in pkgutil.iter_modules(nhqc.__path__, "nhqc."))


def test_every_module_is_found():
    assert "nhqc.propagator" in MODULES and "nhqc.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a deleted function left in ``__all__`` breaks ``from module import *``
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
