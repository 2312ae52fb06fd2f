"""Every annotation in the package names something its module can resolve."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import rapidpsi

MODULES = sorted(
    name for _, name, _ in pkgutil.iter_modules(rapidpsi.__path__, "rapidpsi.")
    if not name.endswith("__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(name)
    defined = [
        obj for obj in vars(module).values()
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == name
    ]
    assert defined
    for obj in defined:
        typing.get_type_hints(obj)
