"""Every name a module exports exists."""

import importlib
import pkgutil

import pytest

import lmelab

MODULES = sorted(m.name for m in pkgutil.iter_modules(lmelab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"lmelab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
