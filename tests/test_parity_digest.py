import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qbstab import certify, sdp
from qbstab.certify import SweepResult, sweep_epsilon
from qbstab.lmi import LmiBlock
from qbstab.models import scalar_family

_PATH = Path(__file__).resolve().parents[1] / "tools" / "parity_digest.py"
_SPEC = importlib.util.spec_from_file_location("parity_digest", _PATH)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

SCALAR = scalar_family(-1.0, 1.0)
GRID = [0.2, 0.5, 0.8]


def recorded_sweep():
    return tool.recording(lambda: sweep_epsilon(SCALAR, GRID, None, "analysis"))


def test_same_sweep_same_digest():
    sweep, solutions = recorded_sweep()
    assert len(solutions) == len(GRID)
    assert (certify.solve, certify.solve_many) == (sdp.solve, sdp.solve_many)
    assert (tool.digest(tool.grid_parts(sweep, solutions))
            == tool.digest(tool.grid_parts(*recorded_sweep())))


def test_one_certificate_changes_the_digest():
    sweep, solutions = recorded_sweep()
    reference = tool.digest(tool.grid_parts(sweep, solutions))
    entry = sweep.entries[1]
    P = np.nextafter(entry.certificate.P, np.inf)
    entries = list(sweep.entries)
    entries[1] = dataclasses.replace(entry, certificate=dataclasses.replace(entry.certificate, P=P))
    changed = SweepResult(entries=tuple(entries))
    assert tool.digest(tool.grid_parts(changed, solutions)) != reference
    # and so does one solve's log
    solutions[2] = dataclasses.replace(solutions[2], history=solutions[2].history[:-1])
    assert tool.digest(tool.grid_parts(sweep, solutions)) != reference


def test_reference_set_sees_evaluate(monkeypatch):
    assert "reference" in tool.parity_sets()
    sweep, solutions = recorded_sweep()

    def reference():
        return tool.digest(tool.certificate_parts(SCALAR, "analysis", sweep, solutions))

    before = reference()
    assert len(tool.certificate_parts(SCALAR, "analysis", sweep, solutions)) == len(GRID)
    assert reference() == before
    evaluate = LmiBlock.evaluate
    monkeypatch.setattr(LmiBlock, "evaluate", lambda blk, x: np.nextafter(evaluate(blk, x), np.inf))
    assert reference() != before


def test_refuses_a_tree_without_sources(tmp_path):
    with pytest.raises(SystemExit, match="no qbstab sources"):
        tool.main([str(tmp_path)])


def test_assembly_set_sees_one_ulp():
    assert "assembly" in tool.parity_sets()
    problems = []
    _, solutions = tool.recording(lambda: sweep_epsilon(SCALAR, GRID, None, "analysis"),
                                  problems)
    assert len(problems) == len(solutions) == len(GRID)
    assert (certify.solve, certify.solve_many) == (sdp.solve, sdp.solve_many)
    parts = [tool.problem_parts(p) for p in problems]
    reference = tool.digest(parts)
    assert tool.digest([tool.problem_parts(p) for p in problems]) == reference
    # one ulp in one entry of the middle problem's main-block vals
    vals = parts[1][1][0][2].copy()
    flat = vals.reshape(-1)
    k = np.flatnonzero(flat)[0]
    flat[k] = np.nextafter(flat[k], np.inf)
    parts[1][1][0][2] = vals
    assert tool.digest(parts) != reference
