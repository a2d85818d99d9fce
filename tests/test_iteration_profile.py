import importlib.util
import time
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "iteration_profile.py"
_SPEC = importlib.util.spec_from_file_location("iteration_profile", _PATH)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)


def test_single_solve_profile():
    start = time.perf_counter()
    (name, (problems, repeats)), = tool.cases(quick=True).items()
    result = tool.profile(problems, repeats)
    assert time.perf_counter() - start < 2.0
    assert name == "shear B=1" and len(problems) == 1
    assert result["iters"] == 33
    assert list(result["stages"]) == list(tool.STAGES)
    ms = [m for m, _ in result["stages"].values()]
    calls = [c for _, c in result["stages"].values()]
    assert abs(sum(ms) - result["ms"]) < 1e-9 * result["ms"]
    assert abs(sum(calls) - result["calls"]) < 1e-9 * result["calls"]
    # every stage of a step runs Python code of its own
    for stage in ("NT scaling", "set_scaling", "Schur share", "factor", "Newton",
                  "step length", "check"):
        assert result["stages"][stage][1] > 0, stage
    assert "shear B=1: 33 iterations" in tool.report(name, result)


def test_refuses_a_tree_without_sources(tmp_path):
    import pytest

    with pytest.raises(SystemExit, match="no qbstab sources"):
        tool.main([str(tmp_path)])
