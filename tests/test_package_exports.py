"""The lazy package façades of ``repro.serve`` and ``repro.obs``.

Each package resolves its public names from their submodules on first
use; to a caller it must look like the eager package it replaced.
"""

import inspect
from importlib import import_module

import pytest

import repro.obs
import repro.serve

PACKAGES = [repro.serve, repro.obs]


@pytest.mark.parametrize(
    "package, name",
    [(package, name) for package in PACKAGES for name in package.__all__],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_name_resolves_to_what_its_submodule_defines(package, name):
    submodule = import_module(f"{package.__name__}.{package._EXPORTS[name]}")
    value = getattr(package, name)
    assert value is getattr(submodule, name)
    if inspect.isclass(value) or inspect.isfunction(value):
        assert value.__module__ == submodule.__name__  # defined there, not re-exported
    assert name in dir(package)


@pytest.mark.parametrize("package", PACKAGES, ids=lambda package: package.__name__)
def test_star_import_binds_every_name(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(package.__all__)
    for name, value in namespace.items():
        assert value is getattr(package, name)


@pytest.mark.parametrize("package", PACKAGES, ids=lambda package: package.__name__)
def test_unknown_name_raises_attribute_error_naming_the_module(package):
    with pytest.raises(AttributeError, match=f"module '{package.__name__}' has no attribute 'NoSuchName'"):
        package.NoSuchName
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import NoSuchName", {})
