import importlib
import pkgutil

import pytest

import grushin

MODULES = ["grushin"] + [f"grushin.{m.name}" for m in pkgutil.iter_modules(grushin.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name left in __all__ after its definition is deleted would drop out of every
    # `from module import *` and of every tool that walks __all__ with getattr
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # the CLI module exports by naming convention
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
