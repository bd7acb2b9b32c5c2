"""Every name a module exports exists, so a deleted function cannot stay
listed in ``__all__``, and the package exports exactly its modules' lists,
each name declared in one of them."""

import importlib
import inspect
import pkgutil
from collections import Counter

import pytest

import biholes
from biholes import errors

SUBMODULES = [f"biholes.{m.name}" for m in pkgutil.iter_modules(biholes.__path__)]
MODULES = ["biholes"] + SUBMODULES


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(exported) == len(set(exported))
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_runs():
    namespace = {}
    exec("from biholes import *", namespace)
    assert "find_bihole" in namespace and "bound_report" in namespace


def test_every_name_is_declared_in_exactly_one_module():
    declared = Counter(
        n for name in SUBMODULES for n in getattr(importlib.import_module(name), "__all__", ())
    )
    assert [n for n, count in declared.items() if count > 1] == []
    assert sorted(biholes.__all__) == sorted(declared)


def test_every_package_name_is_its_defining_modules_object():
    owner = {
        n: module
        for module in map(importlib.import_module, SUBMODULES)
        for n in getattr(module, "__all__", ())
    }
    namespace = {}
    exec("from biholes import *", namespace)
    for n in biholes.__all__:
        assert getattr(biholes, n) is getattr(owner[n], n), n
        assert namespace[n] is getattr(owner[n], n), n


def test_errors_exports_exactly_the_error_classes():
    classes = {
        n for n, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.BiholesError)
    }
    assert "BiholesError" in classes
    assert sorted(errors.__all__) == sorted(classes)
