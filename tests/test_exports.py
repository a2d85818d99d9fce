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


def test_package_imports_resolve():
    tree = ast.parse(Path(qbstab.__file__).read_text(encoding="utf-8"))
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "QBSystem" in names
    assert [n for n in names if not hasattr(qbstab, n)] == []
