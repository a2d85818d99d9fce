"""Reference-speed probe: a fixed kernel timed every 50 ms on the benchmark's CPU.

Run as a child pinned to the same CPU as the workload.  It prints
"ready", then every ``INTERVAL_S`` runs ``kernel()`` once untimed and
times a second call right after it, until its stdin is closed, and
finally prints the samples as one JSON list of [start, seconds] pairs
(``time.perf_counter`` is system-wide, so the parent can place each sample
inside its own job windows).

Why: on shared hosts the speed of one CPU changes by up to 1.6x within
seconds and drifts over minutes, because other tenants contend for the
same core.  A probe on the other CPU does not see it; one time-sliced onto
the same CPU does, since it runs on the same hardware thread moments
apart from the job.

The untimed call refills the caches the workload emptied, so the timed
call does not depend on the workload's memory footprint.  Measured on the
reference machine, against a load streaming a 64 MB buffer rather than a
16 KB one: a cold call was 3.5 % slower (1.40 vs 1.35 x a warm call), the
timed warm call 0.5 % (1.048 vs 1.043 x a third call).
"""

from __future__ import annotations

import json
import select
import sys
import time

import numpy as np

INTERVAL_S = 0.05


def kernel(a: np.ndarray, x: np.ndarray) -> float:
    """About 1 ms of the mix qbstab runs: interpreter loop, small arrays, BLAS."""
    acc = 0
    for i in range(1500):
        acc += i * i
    for _ in range(20):
        x = 0.5 * (x @ a[:3, :3]) + np.einsum("ki,kj->k", x, x)[:, None] * 1e-3
    for _ in range(3):
        a = 0.5 * (a @ a) / float(np.abs(a).max())
    return acc + float(x.sum())


def main() -> int:
    rng = np.random.default_rng(0)
    a, x = rng.random((64, 64)), rng.random((100, 3))
    kernel(a, x)
    samples = []
    print("ready", flush=True)
    while True:
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable:
            break
        kernel(a, x)
        t0 = time.perf_counter()
        kernel(a, x)
        samples.append((t0, time.perf_counter() - t0))
    json.dump(samples, sys.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
