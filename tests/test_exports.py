"""Every name that the package or one of its modules exports exists."""

import importlib
import pkgutil

import pytest

import a2gcovert

MODULES = ["a2gcovert"] + sorted(
    f"a2gcovert.{m.name}" for m in pkgutil.iter_modules(a2gcovert.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
