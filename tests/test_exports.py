"""The export lists name what the package and its modules define."""

import importlib
import pkgutil

import pytest

import causalkit

MODULES = [importlib.import_module(f"causalkit.{m.name}") for m in pkgutil.iter_modules(causalkit.__path__)]
WITH_ALL = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", [causalkit, *WITH_ALL], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_the_package_exports_only_what_its_modules_export():
    # a name the package takes from a module with an export list is on that list
    unlisted = []
    for name in causalkit.__all__:
        home = getattr(getattr(causalkit, name), "__module__", None)
        module = next((m for m in WITH_ALL if m.__name__ == home), None)
        if module is not None and name not in module.__all__:
            unlisted.append(f"{home}.{name}")
    assert unlisted == []
