"""Every name a fracteig module exports resolves.

A name left in `__all__` after its definition is deleted would fail only at
`from module import *` or at a user's import; this check imports each module
and looks every exported name up.
"""

import importlib
import pkgutil

import pytest

import fracteig

MODULES = ["fracteig", *(f"fracteig.{m.name}" for m in pkgutil.iter_modules(fracteig.__path__))]


@pytest.mark.parametrize("modname", MODULES)
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    assert module.__all__, modname
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{modname}.__all__ names undefined {missing}"
