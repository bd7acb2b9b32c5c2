"""Every name a module exports exists, so a deleted function cannot stay
listed in ``__all__``."""

import importlib
import pkgutil

import pytest

import biholes

MODULES = ["biholes"] + [f"biholes.{m.name}" for m in pkgutil.iter_modules(biholes.__path__)]


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

