import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qbstab

MODULES = sorted(m.name for m in pkgutil.iter_modules(qbstab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qbstab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", [n for n in MODULES
                                  if hasattr(importlib.import_module(f"qbstab.{n}"), "__all__")])
def test_module_all_lists_its_public_definitions(name):
    # __all__ names exactly the public functions and classes the module defines
    module = importlib.import_module(f"qbstab.{name}")
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    assert sorted(module.__all__) == sorted(defined)


def test_package_imports_resolve():
    tree = ast.parse(Path(qbstab.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "QBSystem" in names
    assert [n for n in names if not hasattr(qbstab, n)] == []
