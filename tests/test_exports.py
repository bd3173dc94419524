"""Every name that the package or one of its modules exports exists."""

import importlib
import inspect
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


@pytest.mark.parametrize("name", ["channel", "detection", "throughput",
                                  "planner", "oracle", "validation"])
def test_no_position_override(name):
    # an operating point is a scenario: other UAV positions go through
    # dataclasses.replace, not an ``alice`` argument (geometry is exempt:
    # its primitives take positions by definition)
    module = importlib.import_module(f"a2gcovert.{name}")
    takes_alice = [n for n in module.__all__
                   if inspect.isfunction(getattr(module, n))
                   and "alice" in inspect.signature(
                       getattr(module, n)).parameters]
    assert takes_alice == []


@pytest.mark.parametrize("name", ["channel", "detection", "throughput",
                                  "oracle", "planner", "validation"])
def test_no_noise_or_band_next_to_a_state_table(name):
    # a link's state table carries its receiver's nominal noise power and
    # the mode's band; a function that takes the table reads them from it
    module = importlib.import_module(f"a2gcovert.{name}")
    both = []
    for n in module.__all__:
        if inspect.isfunction(getattr(module, n)):
            params = inspect.signature(getattr(module, n)).parameters
            if "states" in params and {"sigma_n2", "bandwidth_hz"} & set(
                    params):
                both.append(n)
    assert both == []
