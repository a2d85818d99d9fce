import importlib.util
import os
import sys
from pathlib import Path

# One BLAS thread, as perfbench and tools/parity_digest.py run: solver
# iterates depend on the thread count, and on two cores mid-size solves run
# slower with two threads.  The variables act only if set before numpy loads.
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the BLAS threads")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from qbstab.models import shear_flow_9, three_state_qb, two_state
from qbstab.certify import sweep_epsilon
from qbstab.systems import QBSystem

# tools/parity_digest.py, whose parity sets solve the Burgers model and the
# dense system that the tests solve: one definition of each serves both
_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity_digest.py"
_SPEC = importlib.util.spec_from_file_location("parity_digest", _PATH)
parity_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity_digest)
burgers, dense_system = parity_digest.burgers, parity_digest.dense_system

TWO_STATE_GRID = np.linspace(0.01, 0.8, 20)
THREE_STATE_GRID = np.linspace(0.01, 14.0, 20)


@pytest.fixture(scope="session")
def two_state_sweep():
    """20-point uniform analysis sweep of the planar benchmark (shared)."""
    return sweep_epsilon(two_state(), TWO_STATE_GRID, None, "analysis")


@pytest.fixture(scope="session")
def three_state_sweep():
    """20-point uniform synthesis sweep of the 3-state benchmark (shared)."""
    return sweep_epsilon(three_state_qb(), THREE_STATE_GRID, None, "synthesis")


def asymmetric_shear_flow(Re: float) -> QBSystem:
    """The shear flow with A[0, 1] and A[0, 3] set to 1e-3.  Each entry breaks
    two of the three sign flips of its group of order 4, and together they
    break all three, so its problems keep all 45 svec slots of P."""
    sys_obj = shear_flow_9(Re)
    A = sys_obj.A.copy()
    A[0, 1] = A[0, 3] = 1e-3
    return QBSystem(A=A, H=sys_obj.H)


def two_input_shear_flow(Re: float = 120.0) -> QBSystem:
    """The shear flow with two inputs, each with the signs of the states it
    drives, so its group keeps order 4 in synthesis too."""
    sys_obj = shear_flow_9(Re)
    B = np.zeros((9, 2))
    B[0, 0], B[8, 0], B[1, 1] = 1.0, 0.5, 1.0
    D = [np.zeros((9, 9)), np.zeros((9, 9))]
    D[0][0, 8] = 0.3
    D[1][1, 0] = 0.2  # s_2 = s_1 t_2, so t_2 = s_2
    return QBSystem(A=sys_obj.A, H=sys_obj.H, B=B, D=D)


def criterion_line(tag: str, ok: bool, detail: str) -> None:
    """One visible pass/fail line per acceptance criterion (run with -s)."""
    print(f"\n[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
