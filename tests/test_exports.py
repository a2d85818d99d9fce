import ast
import importlib
import pkgutil
import re
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


# the functions perfbench's tracing (perfbench/run.py, ``--trace 1``) wraps by
# name in the module that calls them; a rename must not break it silently
TRACED = [("certify", "max_trace"), ("certify", "assemble"), ("certify", "solve"),
          ("cli", "load_certificate"), ("cli", "sample_check"), ("cli", "convergence_check"),
          ("verify", "close_loop")]


def test_traced_names_exist():
    run_py = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    patched = re.findall(r'tracer\.patch\((\w+), "(\w+)"', run_py.read_text(encoding="utf-8"))
    assert sorted(patched) == sorted(TRACED)
    missing = [f"{mod}.{name}" for mod, name in TRACED
               if not callable(getattr(importlib.import_module(f"qbstab.{mod}"), name, None))]
    assert missing == []
