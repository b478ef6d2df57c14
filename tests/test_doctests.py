"""Every docstring example in the package must run as written."""

import doctest
import importlib
import pkgutil

import pytest

import coxforge

MODULES = [coxforge] + [importlib.import_module(f"coxforge.{info.name}")
                        for info in pkgutil.iter_modules(coxforge.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    failed, _ = doctest.testmod(module)
    assert failed == 0
