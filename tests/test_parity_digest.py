import dataclasses
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qbstab import certify, sdp
from qbstab.certify import SweepResult, sweep_epsilon
from qbstab.lmi import LmiBlock, assemble
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


def test_failed_solve_is_referenced_at_its_returned_iterate(monkeypatch):
    # one iteration short of the strict optimum: IterLimit, and a certificate
    # from the best iterate, whose KKT residuals the reference set hashes
    monkeypatch.setattr(sdp, "MAX_ITERS", 7)
    sweep, solutions = tool.recording(lambda: sweep_epsilon(SCALAR, [1.0], 0.01, "analysis"))
    assert solutions[0].status == "IterLimit" and sweep.entries[0].feasible
    (parts,) = tool.certificate_parts(SCALAR, "analysis", sweep, solutions)
    problem = assemble(SCALAR, 1.0, 0.01, "analysis")
    assert parts[2] == sdp.kkt_residuals(problem, solutions[0])
    assert tool.solution_parts(solutions[0])[8].tobytes() == solutions[0].x.tobytes()


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


def test_items_hash_as_lists():
    items = tool.Items([[1.0, "a"], np.arange(3.0)], ["x", "y"])
    assert tool.digest(items) == tool.digest([[1.0, "a"], np.arange(3.0)])


def test_parts_name_the_certificate_that_moved():
    sweep, solutions = recorded_sweep()
    lines = dict(tool.part_lines(tool.grid_parts(sweep, solutions)))
    assert list(lines) == ["entry 0 eps=0.2", "entry 1 eps=0.5", "entry 2 eps=0.8",
                           "solve 0", "solve 1", "solve 2"]
    entry = sweep.entries[1]
    P = np.nextafter(entry.certificate.P, np.inf)
    entries = list(sweep.entries)
    entries[1] = dataclasses.replace(entry, certificate=dataclasses.replace(entry.certificate, P=P))
    moved = dict(tool.part_lines(tool.grid_parts(SweepResult(entries=tuple(entries)), solutions)))
    assert [k for k in lines if lines[k] != moved[k]] == ["entry 1 eps=0.5"]


def test_reference_parts_are_labelled_by_eps():
    sweep, solutions = recorded_sweep()
    parts = tool.certificate_parts(SCALAR, "analysis", sweep, solutions)
    assert parts.labels == ["eps=0.2", "eps=0.5", "eps=0.8"]


def test_main_prints_the_parts_of_one_set(capsys):
    assert tool.main(["--parts", "stacked-6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "stacked-6 solve eps=0.3", "stacked-6 solve eps=0.6", "stacked-6 solve eps=1"]
    parts = tool.parity_sets()["stacked-6"]()
    assert [line.rsplit(" ", 1)[1] for line in lines] == [tool.digest(p) for p in parts]
    with pytest.raises(SystemExit, match="no set 'nine'"):
        tool.main(["--parts", "nine"])
