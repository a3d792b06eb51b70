"""The package surface: ``dynlaw`` re-exports each module's ``__all__``,
the one declaration of its public names."""

import importlib

import pytest

import dynlaw

MODULES = ("embedding", "spectral", "lawforms", "fitting", "codec", "signal_io")


@pytest.mark.parametrize("name", MODULES)
def test_package_exports_every_public_name_of_a_module(name):
    module = importlib.import_module(f"dynlaw.{name}")
    for public in module.__all__:
        assert getattr(dynlaw, public) is getattr(module, public), public
        assert public in dynlaw.__all__, public


def test_package_exports_nothing_else():
    declared = [public for name in MODULES
                for public in importlib.import_module(f"dynlaw.{name}").__all__]
    assert len(dynlaw.__all__) == len(set(dynlaw.__all__))
    assert set(dynlaw.__all__) == set(declared) | {"errors", "__version__"}
    namespace = {}
    exec("from dynlaw import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(dynlaw.__all__)
