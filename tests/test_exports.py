"""Every public name a qlesim module exports exists and star-imports."""

import importlib
import pkgutil

import pytest

import qlesim

# __main__ runs the command line when imported
MODULES = ["qlesim"] + [f"qlesim.{info.name}" for info in pkgutil.iter_modules(qlesim.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
