import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
tool = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tool)

METRICS = [{"name": "job_p50_s", "better": "lower", "bound": 0.25},
           {"name": "eps_solved_ratio", "better": "higher", "bound": 0.02}]


def result(job, ratio, attempted=10, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"job_p50_s": {"value": job, "unit": "s"},
                        "eps_solved_ratio": {"value": ratio, "unit": "ratio"}}}


def test_runs_alternate_parent_first_on_odd_seeds():
    assert tool.run_order(3) == [(1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
                                 (3, "parent"), (3, "change")]


def test_run_pairs_keeps_each_tree_in_seed_order():
    calls = []

    def fake(root, workload, seed, seconds):
        calls.append((root, workload, seed, seconds))
        return {"root": root, "seed": seed}

    results = tool.run_pairs({"parent": "P", "change": "C"}, "audit", 4, run=fake)
    assert [c[0] for c in calls] == ["P", "C", "C", "P", "P", "C", "C", "P"]
    # every run is as long as the benchmark's own runs
    seconds = tool.benchmark()["run_seconds"]
    assert all(c[1] == "audit" and c[3] == seconds for c in calls)
    for tree, root in (("parent", "P"), ("change", "C")):
        assert results[tree] == [{"root": root, "seed": k} for k in (1, 2, 3, 4)]


def test_last_result_reads_the_last_line():
    out = "# perfbench audit\njob_p50_s 0.1 s\n" + json.dumps(result(0.1, 1.0)) + "\n\n"
    assert tool.last_result(out) == result(0.1, 1.0)
    with pytest.raises(ValueError):
        tool.last_result("\n")


def test_summary_on_fixed_numbers():
    parent = [result(1.0, 0.9), result(2.0, 0.9), result(3.0, 0.9), result(4.0, 0.9),
              result(5.0, 1.0)]
    change = [result(0.5, 0.9), result(2.5, 1.0), result(2.0, 0.9), result(3.0, 0.8),
              result(5.0, 1.0)]
    rep = tool.summarize({"parent": parent, "change": change}, METRICS)
    job = rep["metrics"]["job_p50_s"]
    assert job["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0, "n": 5}
    # linear quartiles of 0.5, 2, 2.5, 3, 5
    assert job["change"] == {"q1": 2.0, "median": 2.5, "q3": 3.0, "n": 5}
    assert job["relative_change"] == pytest.approx(-1.0 / 6.0)
    # pair gains parent - change: 0.5, -0.5, 1, 1, 0
    assert (job["change_better_in"], job["ties"], job["pairs"]) == (3, 1, 5)
    assert job["median_pair_improvement"] == 0.5
    assert job["parent_quartile_spread"] == 2.0 and job["bound"] == 0.25
    assert job["parent_runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    ratio = rep["metrics"]["eps_solved_ratio"]
    # higher is better, gains change - parent: 0, 0.1, 0, -0.1, 0
    assert (ratio["change_better_in"], ratio["ties"]) == (1, 3)
    assert ratio["median_pair_improvement"] == 0.0
    assert rep["flags"] == []
    assert rep["attempted_failed_correct"]["change"][0] == [10, 0, True]


def test_flags_incorrect_runs_and_a_rising_failed_share():
    parent = [result(1.0, 1.0, attempted=10, failed=1), result(1.0, 1.0)]
    change = [result(1.0, 1.0, attempted=20, failed=1),
              result(1.0, 1.0, attempted=10, failed=1, correct=False)]
    rep = tool.summarize({"parent": parent, "change": change}, METRICS)
    # 1/20 is below 1/10; 1/10 is above 0/10
    assert rep["flags"] == ["change seed 2: not correct",
                            "seed 2: failed share rose from 0 to 0.1"]
