"""Every public name a qlesim module exports exists and star-imports, every
module-level import is used, and no module reads another's private names."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unused_imports(source):
    """Names bound by the module-level imports of ``source`` that it never
    reads, other than those re-exported through ``__all__``."""
    tree = ast.parse(source)
    bound, exported = set(), set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read - exported)


def test_unused_import_guard_sees_an_unused_import():
    assert _unused_imports("import math\nimport os\nfrom .a import b, c\n__all__ = ['c']\n"
                           "def f():\n    return math.pi\n") == ["b", "os"]


@pytest.mark.parametrize("path", sorted(Path(qlesim.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []


# the qlesim modules by name: from . import name binds one of these
SUBMODULES = {info.name for info in pkgutil.iter_modules(qlesim.__path__)}


def _private_reads(source):
    """``mod._name`` reads in ``source`` of a qlesim module ``mod`` bound by a
    module-level ``from . import`` (or ``from qlesim import``).  Importing a
    private name, as ``from .sde import _BLOCK``, is a declared contract and
    is not a read."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name
               for node in tree.body if isinstance(node, ast.ImportFrom)
               and (node.level, node.module) in ((1, None), (0, "qlesim"))
               for alias in node.names if alias.name in SUBMODULES}
    return sorted(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")
                  and not node.attr.startswith("__"))


def test_private_read_guard_sees_a_private_read():
    assert _private_reads("from . import microbath, rwa as r\nfrom .sde import _BLOCK\n"
                          "import os\nfrom qlesim import fdt\n"
                          "a = microbath._NormalModes(r._step, fdt._ohmic_pole)\n"
                          "b = microbath.ensemble_stats, _BLOCK, os._exit, r.__name__\n"
                          ) == ["fdt._ohmic_pole", "microbath._NormalModes", "r._step"]


@pytest.mark.parametrize("path", sorted(Path(qlesim.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_private_reads_of_other_modules(path):
    assert _private_reads(path.read_text()) == []
