"""Run one perfbench workload in alternating parent/change pairs and compare
the end-to-end metrics.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N [--out FILE]

PARENT and CHANGE are the roots of two source checkouts.  Pair k, for
k = 1..N, runs the command of ``BENCHMARK.json`` with ``--workload W --seed k
--seconds S --trace 0``, S its ``run_seconds``, in each root, one run at a
time: the parent first when k is odd, the change first when k is even, so
that a drift of the host falls on both trees alike.  Each run's last line of stdout is its result,
{correct, attempted, failed, metrics}.

For every end-to-end metric of ``BENCHMARK.json`` the report gives each
tree's median and quartiles (``numpy.percentile``, linear), the relative
change of the medians, the pairs the change wins by the metric's
``better`` and the ties, the parent's quartile spread and the median pair
improvement: the median over pairs of parent - change for a metric where
lower is better, change - parent where higher is.  It flags every run that
is not ``correct`` and every pair in which the change's failed share
(failed / attempted) is above the parent's; the exit code is 1 if anything
is flagged.  The report is printed as JSON and, with ``--out``, written to
FILE.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TREES = ("parent", "change")


def benchmark() -> dict:
    """This checkout's ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_order(pairs: int) -> list[tuple[int, str]]:
    """(seed, tree) of every run, in the order they run."""
    return [(k, tree) for k in range(1, pairs + 1)
            for tree in (TREES if k % 2 else TREES[::-1])]


def last_result(stdout: str) -> dict:
    """The JSON object on the last non-blank line of a run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def perfbench_run(root: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in the checkout at ``root``."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return last_result(proc.stdout)


def quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3), "n": len(values)}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """The paired comparison of one metric; run k of each list is pair k."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    a, b = quartiles(parent), quartiles(change)
    return {
        "parent": a,
        "change": b,
        "relative_change": (b["median"] - a["median"]) / a["median"] if a["median"] else None,
        "change_better_in": sum(g > 0 for g in gains),
        "ties": sum(g == 0 for g in gains),
        "pairs": len(gains),
        "parent_quartile_spread": a["q3"] - a["q1"],
        "median_pair_improvement": float(np.median(gains)),
        "parent_runs": list(parent),
        "change_runs": list(change),
    }


def summarize(results: dict, metrics: list[dict]) -> dict:
    """The report of ``results``, {tree: [result of pair 1, 2, ...]}, on the
    end-to-end ``metrics`` of ``BENCHMARK.json``."""
    flags = []
    for tree in TREES:
        for k, res in enumerate(results[tree], 1):
            if not res["correct"]:
                flags.append(f"{tree} seed {k}: not correct")
    for k, (p, c) in enumerate(zip(results["parent"], results["change"]), 1):
        shares = [res["failed"] / res["attempted"] for res in (p, c)]
        if shares[1] > shares[0]:
            flags.append(f"seed {k}: failed share rose from {shares[0]:.4g} to {shares[1]:.4g}")
    report = {}
    for spec in metrics:
        name = spec["name"]
        values = {tree: [res["metrics"][name]["value"] for res in results[tree]] for tree in TREES}
        report[name] = {**compare(values["parent"], values["change"], spec["better"]),
                        "bound": spec["bound"]}
    runs = {tree: [[res["attempted"], res["failed"], res["correct"]] for res in results[tree]]
            for tree in TREES}
    return {"metrics": report, "attempted_failed_correct": runs, "flags": flags}


def run_pairs(roots: dict, workload: str, pairs: int, run=None) -> dict:
    """Every run of ``run_order``, {tree: [result of pair 1, 2, ...]}, each
    ``run_seconds`` of ``BENCHMARK.json`` long.  ``run`` (root, workload,
    seed, seconds) -> result defaults to a perfbench run with the command of
    ``BENCHMARK.json``."""
    bench = benchmark()
    seconds = bench["run_seconds"]
    if run is None:
        run = lambda root, w, seed, s: perfbench_run(root, bench["command"], w, seed, s)
    results = {tree: [] for tree in TREES}
    for seed, tree in run_order(pairs):
        print(f"bench_pairs: {workload} seed {seed} {tree}", file=sys.stderr, flush=True)
        results[tree].append(run(roots[tree], workload, seed, seconds))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python tools/bench_pairs.py")
    parser.add_argument("parent", type=Path, metavar="PARENT")
    parser.add_argument("change", type=Path, metavar="CHANGE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree, root in roots.items():
        if not (root / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} checkout {root} has no perfbench/run.py")
    bench = benchmark()
    results = run_pairs(roots, args.workload, args.pairs)
    report = {"workload": args.workload, "pairs": args.pairs, "seconds": bench["run_seconds"],
              **summarize(results, bench["end_to_end"])}
    text = json.dumps(report, indent=1)
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    for flag in report["flags"]:
        print(f"bench_pairs: FLAG {flag}", file=sys.stderr)
    return 1 if report["flags"] else 0


if __name__ == "__main__":
    sys.exit(main())
