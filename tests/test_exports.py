import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def _resolves(module: str, name: str) -> bool:
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    return hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_benchmark_imports_exist():
    # perfbench/workloads.py runs against the checkout it measures, so every
    # qbstab name it imports must stay
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "qbstab"
                for alias in node.names]
    assert ("qbstab.certify", "union_volume") in imported
    assert [f"{m}.{n}" for m, n in imported if not _resolves(m, n)] == []


def test_union_volume_positional_call():
    # workloads.py calls union_volume(region, samples, seed) positionally and
    # perfbench/tracing.py reads the sample count as args[1]
    from qbstab.certify import Ellipsoid, UnionRegion, union_volume

    result = union_volume(UnionRegion(members=(Ellipsoid(P=np.eye(2)),)), 10_000, 0)
    assert isinstance(result, tuple) and len(result) == 2
    assert all(isinstance(v, float) for v in result)


def test_import_leaves_scipy_sparse_out():
    # only the solver's W form needs scipy.sparse and imports it there; the
    # import adds about 15 ms to every process start
    src = Path(qbstab.__file__).resolve().parents[1]
    code = "import sys, qbstab; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
