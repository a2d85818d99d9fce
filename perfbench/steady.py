"""Steadiness check: run workloads over several seeds and report the spread.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

For each workload and end-to-end metric, prints the median over seeds and
the spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to a third of the metric's
bound from ``BENCHMARK.json``.  With ``--trace 1`` it instead checks that
the computed counts (bytes, flops, iterations, RK4 steps) repeat exactly
across seeds.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPUTED = ("lmi.f_bytes", "lmi.assemble_calls", "sdp.iters", "sdp.solve_calls",
            "sdp.dense_gflop", "verify.traj_steps", "certify.eps_points")


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, float]:
    """The run's result line and its wall time, set-up included."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1]), wall


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else 0.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=None)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = seeds_arg(args.seeds)
    ok = True
    for name in names:
        results = []
        for seed in seeds:
            out, wall = run_once(spec, name, seed, args.trace)
            ok &= out["correct"] and out["failed"] == 0
            results.append(out)
            print(f"{name} seed={seed} wall={wall:.1f}s correct={out['correct']} "
                  f"attempted={out['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()
                             if args.trace == 0 or k in COMPUTED), flush=True)
        if args.trace:
            for key in COMPUTED:
                vals = {r["metrics"][key]["value"] for r in results}
                same = len(vals) == 1
                ok &= same
                print(f"  {name} {key}: {'repeats' if same else 'DIFFERS'} {sorted(vals)}")
            continue
        for metric in spec["end_to_end"]:
            vals = [r["metrics"][metric["name"]]["value"] for r in results]
            s = spread(vals)
            limit = metric["bound"] / 3.0
            flag = "ok" if s <= limit else "WIDE"
            ok &= flag == "ok"
            print(f"  {name} {metric['name']}: median {statistics.median(vals):.6g} "
                  f"spread {s:.4f} (bound/3 {limit:.4f}) {flag}", flush=True)
    print("STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
