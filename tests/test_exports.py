"""Every name a module exports exists, and every name it imports is used."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import lmelab

MODULES = sorted(m.name for m in pkgutil.iter_modules(lmelab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"lmelab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(f"lmelab.{name}")
    tree = ast.parse(inspect.getsource(module))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = _imported_names(tree) - used - set(getattr(module, "__all__", ()))
    assert not unused
