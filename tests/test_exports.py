"""Every name a module exports exists, every name it imports is used and
public in its package, and every cross-reference in its docstrings
resolves."""

import ast
import importlib
import inspect
import pkgutil
import re

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


def _private_imports(tree: ast.Module) -> list[str]:
    """Dotted paths that a module imports from another package through a
    _-prefixed (private) module or name."""
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths += [f"{node.module}.{a.name}" for a in node.names]
    parts = [p.split(".") for p in paths]
    return [
        ".".join(p) for p in parts
        if p[0] not in ("__future__", "lmelab") and any(x.startswith("_") for x in p)
    ]


@pytest.mark.parametrize("name", MODULES)
def test_no_private_imports(name):
    module = importlib.import_module(f"lmelab.{name}")
    assert not _private_imports(ast.parse(inspect.getsource(module)))


def test_private_import_gate_flags_private_paths():
    assert _private_imports(ast.parse("from scipy.optimize._nonlin import NoConvergence"))
    assert _private_imports(ast.parse("import scipy.special._ufuncs"))
    assert _private_imports(ast.parse("from scipy.optimize import _nonlin"))
    assert not _private_imports(ast.parse(
        "from __future__ import annotations\n"
        "from scipy.optimize import NoConvergence\n"
        "from . import _private_sibling\n"
        "from lmelab.laplace import _kernel\n"
    ))


# Sphinx roles the docstrings use to name code: :func:`x`, :mod:`a.b`, ...
_REFERENCE = re.compile(r":(func|data|class|attr|mod):`([^`]+)`")


def _resolves(module, role: str, target: str) -> bool:
    """A :mod: target imports; any other target is an attribute path from
    the module, and an :attr: target may also be one from a class that the
    module defines."""
    if role == "mod":
        try:
            importlib.import_module(target)
        except ImportError:
            return False
        return True
    owners = [module]
    if role == "attr":
        owners += [
            c for c in vars(module).values()
            if inspect.isclass(c) and c.__module__ == module.__name__
        ]
    for owner in owners:
        obj = owner
        try:
            for part in target.split("."):
                obj = getattr(obj, part)
        except AttributeError:
            continue
        return True
    return False


@pytest.mark.parametrize("name", ["lmelab", *(f"lmelab.{m}" for m in MODULES)])
def test_docstring_references_resolve(name):
    module = importlib.import_module(name)
    refs = _REFERENCE.findall(inspect.getsource(module))
    broken = [f":{role}:`{t}`" for role, t in refs if not _resolves(module, role, t)]
    assert not broken


def test_reference_resolver_rejects_missing_names():
    chain = importlib.import_module("lmelab.chain")
    theta = importlib.import_module("lmelab.theta")
    assert _resolves(chain, "attr", "vectors")  # a property of ChainState
    assert _resolves(theta, "func", "theta_density")
    assert not _resolves(theta, "func", "singular_limit")
    assert not _resolves(theta, "attr", "epsilon_max")
    assert not _resolves(chain, "mod", "lmelab.no_such_module")
