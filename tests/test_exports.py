import importlib
import pkgutil

import pytest

import elprov

MODULES = sorted(m.name for m in pkgutil.iter_modules(elprov.__path__, "elprov."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_submodules_are_not_shadowed():
    # a package attribute named like a submodule must stay the submodule
    assert "elprov.relevance" in MODULES
    for name in MODULES:
        assert importlib.import_module(name) is getattr(elprov, name.split(".")[1])
