"""qbstab benchmark: one workload, closed loop, one client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Set-up is measured in separate child processes (process start
to first job, median of ``Workload.setup_runs`` of them), then jobs run
back to back for about S seconds.  Every job's output is checked after
its timer stops.

Times are reported in reference-speed seconds: each wall interval is
multiplied by PROBE_REF_S over the median time of a fixed kernel that
``speedprobe.py`` runs every 50 ms on the same CPU during that interval.
Other tenants of a shared host change a CPU's speed by up to 1.6x for
seconds to minutes at a time; the scale cancels that, while the kernel,
being separate code, is untouched by any change to qbstab.  Wall times are
printed next to them and kept in the run record.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs and reports per-layer metrics: spans around the
benchmark's own calls plus wrappers installed over qbstab's public
functions for the duration of each traced job.  The last line of stdout is
one JSON object {correct, attempted, failed, metrics}; lines above it
repeat the metrics for people, with the environment.  A run record (and,
traced, every span) is written under ``perfbench/.work/records/``.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: the BLAS thread count is never inherited.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
PROBE_TIMEOUT_S = 120
# A warm speedprobe.kernel() call on an uncontended core of the reference
# machine (2-core Intel Xeon VM); the scale of the speed-normalized seconds.
PROBE_REF_S = 0.52e-3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import qbstab from this checkout's src/, never from anywhere else."""
    if not (SRC / "qbstab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qbstab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qbstab
    if Path(qbstab.__file__).resolve().parent != (SRC / "qbstab").resolve():
        raise SystemExit(f"perfbench: imported qbstab from {qbstab.__file__}, not {SRC}")
    return qbstab


# --------------------------------------------------------------------------
# CPU speed reference
# --------------------------------------------------------------------------

class SpeedProbe:
    """``speedprobe.py`` as a child on the CPU this process is pinned to.

    ``scale(t0, t1)`` is PROBE_REF_S over the median probe time inside the
    window: multiplying a wall time by it gives the time the same work takes
    when the CPU runs the probe kernel in PROBE_REF_S.
    """

    def __enter__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.child = subprocess.Popen([sys.executable, str(HERE / "speedprobe.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.child.stdout.readline().strip() != "ready":
            self.child.kill()
            self.child.wait()
            raise RuntimeError("speed probe failed to start")
        self.samples = []
        return self

    def __exit__(self, *exc):
        self.child.stdin.close()
        out = self.child.stdout.read()
        self.child.wait(timeout=PROBE_TIMEOUT_S)
        if exc[0] is None:
            self.samples = json.loads(out)
        return False

    def scale(self, t0: float, t1: float) -> float:
        inside = [d for start, d in self.samples if t0 <= start <= t1]
        if not inside:
            # window shorter than the probe interval: the nearest sample
            mid = (t0 + t1) / 2.0
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return PROBE_REF_S / statistics.median(inside)


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def measure_setup(args, runs: int) -> list[tuple[float, float]]:
    """(start, end) from child process start until its set-up is done, per child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    samples = []
    for _ in range(runs):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed (exit {code})")
        samples.append((t0, t1))
    return samples


# --------------------------------------------------------------------------
# tracing targets
# --------------------------------------------------------------------------

def install_patches(tracer) -> None:
    """Wrap each public function where its caller looks it up."""
    from qbstab import certify, cli, verify
    tracer.patch(certify, "max_trace", "certify.max_trace")
    tracer.patch(certify, "assemble", "lmi.assemble")
    tracer.patch(certify, "solve", "sdp.solve")
    tracer.patch(cli, "load_certificate", "cli.load_certificate")
    tracer.patch(cli, "sample_check", "verify.sample_check")
    tracer.patch(cli, "convergence_check", "verify.convergence_check")
    tracer.patch(verify, "close_loop", "systems.close_loop")


# --------------------------------------------------------------------------
# the job loop
# --------------------------------------------------------------------------

class Run:
    def __init__(self):
        self.windows = {False: [], True: []}     # (start, end) per job, keyed by "traced"
        self.job_windows: dict = {}
        self.setup_window = (0.0, 0.0)
        self.traced_jobs: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.eps: list[str] = []
        self.eps_by_job: list[list[str]] = []
        self.certs: dict = {}
        self.bytes_by_job: dict = {}

    def add_outcome(self, k, outcome) -> None:
        self.eps.extend(outcome.eps)
        self.eps_by_job.append(outcome.eps)
        # A certificate keeps the facts of its first check: a run that fits
        # more jobs re-checks certificates, which must not move the ratio.
        for cid, facts in outcome.certs.items():
            facts.usable &= not outcome.failures
            self.certs.setdefault(cid, facts)
        self.bytes_by_job[k] = outcome.bytes_written

    @property
    def all_durations(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.windows[False] + self.windows[True]]

    def job_seconds(self, traced: bool, scale=lambda w: 1.0) -> list[float]:
        return [(t1 - t0) * scale((t0, t1)) for t0, t1 in self.windows[traced]]


def run_jobs(wl, state, tracer, rng, seconds: float, trace: bool) -> Run:
    """Closed loop: the next job starts when the previous one has finished.

    A new job starts only while the elapsed time plus the median job so far
    fits in ``seconds``, and always until ``wl.min_jobs`` have run (at least
    three traced and three untraced when tracing).
    """
    run = Run()
    min_jobs = max(wl.min_jobs, 6) if trace else wl.min_jobs
    t_begin = time.perf_counter()
    k = 0
    while True:
        done = run.all_durations
        if k >= min_jobs and time.perf_counter() - t_begin + statistics.median(done) > seconds:
            break
        traced = trace and k % 2 == 1
        tracer.job = k
        if traced:
            install_patches(tracer)
            tracer.enabled = True
        run.attempted += 1
        t0 = time.perf_counter()
        try:
            try:
                with tracer.span("job"):
                    raw = wl.job(tracer, state, k, rng)
            finally:
                run.job_windows[k] = (t0, time.perf_counter())
                run.windows[traced].append(run.job_windows[k])
                tracer.enabled = False
                tracer.restore()
            outcome = wl.summarize(state, raw)
        except Exception:
            run.failed += 1
            run.failures.append(f"job {k}: {traceback.format_exc(limit=3)}")
            traceback.print_exc(file=sys.stderr)
        else:
            if traced:
                run.traced_jobs.append(k)
            run.add_outcome(k, outcome)
            if outcome.failures:
                run.failed += 1
                run.failures.extend(f"job {k}: {msg}" for msg in outcome.failures)
        k += 1
    return run


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

def tail(values: list[float]):
    """The highest percentile with at least ten jobs beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def end_to_end(run: Run, setup_s: list[float], job_s: list[float], setup_eps) -> dict:
    eps = setup_eps + run.eps
    eps_failed = sum(1 for s in eps if s.startswith("failed"))
    usable = sum(1 for f in run.certs.values() if f.usable)
    return {
        "job_p50_s": (statistics.median(job_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "eps_solved_ratio": (1.0 - eps_failed / len(eps) if eps else 0.0, "ratio"),
        "usable_cert_ratio": (usable / len(run.certs) if run.certs else 0.0, "ratio"),
    }


def per_layer(run: Run, tracer, scale) -> tuple[dict, bool]:
    """Per-layer metrics from the traced jobs; also whether computed counts repeat.

    Times are self times (span minus its children) per job, scaled like the
    job's own time by ``scale(window)``, as the median over traced jobs.
    ``trace.overhead_s`` is the traced minus the untraced job median of the
    same run.
    """
    by_job = defaultdict(list)
    for sp in tracer.spans:
        by_job[sp.job].append(sp)
    jobs = [(by_job[k], scale(run.job_windows[k])) for k in run.traced_jobs]
    setup = by_job["setup"]

    def med(fn, timed=False):
        if not jobs:
            return 0.0
        return statistics.median(fn(spans) * (f if timed else 1.0) for spans, f in jobs)

    def total(fn, timed=False):
        return sum(fn(spans) * (f if timed else 1.0) for spans, f in jobs)

    def self_s(*names):
        return lambda spans: sum(s.self_s for s in spans if s.name in names)

    def count(name):
        return lambda spans: sum(1 for s in spans if s.name == name)

    def attr(name, key):
        return lambda spans: sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def ratio(num, den, unit=1.0):
        return unit * num / den if den else 0.0

    def status(value):
        return lambda spans: sum(1 for s in spans
                                 if s.name == "sdp.solve" and s.attrs.get("status") == value)

    def solves_in_max_trace(spans):
        return sum(1 for s in spans if s.name == "sdp.solve" and s.parent is not None
                   and tracer.spans[s.parent].name == "certify.max_trace")

    def timed(*names):
        return med(self_s(*names), timed=True)

    computed = [(attr("lmi.assemble", "f_bytes")(s), attr("sdp.solve", "flops")(s),
                 attr("sdp.solve", "iters")(s), attr("verify.convergence_check", "traj_steps")(s))
                for s, _ in jobs]
    repeat = len(set(computed)) <= 1
    max_traces = total(count("certify.max_trace"))
    gains = [f.gain_norm for f in run.certs.values() if f.gain_norm is not None]
    untraced = statistics.median(run.job_seconds(False, scale))
    traced = statistics.median(run.job_seconds(True, scale)) if jobs else 0.0
    setup_scale = scale(run.setup_window)
    m = {
        "models.build_s": (self_s("models.build")(setup) * setup_scale, "s"),
        "systems.stack_s": (self_s("systems.stack")(setup) * setup_scale, "s"),
        "lmi.assemble_s": (timed("lmi.assemble"), "s"),
        "lmi.assemble_calls": (med(count("lmi.assemble")), "count"),
        "lmi.f_bytes": (med(attr("lmi.assemble", "f_bytes")), "B"),
        "sdp.solve_s": (timed("sdp.solve"), "s"),
        "sdp.solve_calls": (med(count("sdp.solve")), "count"),
        "sdp.iters": (med(attr("sdp.solve", "iters")), "count"),
        "sdp.ms_per_iter": (ratio(total(self_s("sdp.solve"), timed=True),
                                  total(attr("sdp.solve", "iters")), 1e3), "ms"),
        "sdp.dense_gflop": (med(attr("sdp.solve", "flops")) / 1e9, "GFLOP"),
        "sdp.status.optimal": (med(status("Optimal")), "count"),
        "sdp.status.infeasible": (med(status("Infeasible")), "count"),
        "sdp.status.numerical_failure": (med(status("NumericalFailure")), "count"),
        "sdp.status.iter_limit": (med(status("IterLimit")), "count"),
        "certify.max_trace_self_s": (timed("certify.max_trace"), "s"),
        "certify.retry_ratio": (ratio(total(solves_in_max_trace) - max_traces, max_traces), "ratio"),
        "certify.eps_points": (statistics.median(len(e) for e in run.eps_by_job)
                               if run.eps_by_job else 0, "count"),
        "certify.search_self_s": (timed("certify.sweep_epsilon", "certify.optimize_epsilon",
                                        "certify.best"), "s"),
        "certify.union_volume_s": (timed("certify.union_volume"), "s"),
        "certify.union_mc_points_per_s": (ratio(total(attr("certify.union_volume", "samples")),
                                                total(self_s("certify.union_volume"), timed=True)), "1/s"),
        "certify.floor_active_certs": (sum(1 for f in run.certs.values() if f.floor_active), "count"),
        "certify.max_gain_norm": (max(gains) if gains else 0.0, "1"),
        "verify.convergence_check_s": (timed("verify.convergence_check"), "s"),
        "verify.sample_check_s": (timed("verify.sample_check"), "s"),
        "verify.traj_steps": (med(attr("verify.convergence_check", "traj_steps")), "count"),
        "verify.us_per_traj_step": (ratio(total(self_s("verify.convergence_check"), timed=True),
                                          total(attr("verify.convergence_check", "traj_steps")), 1e6),
                                    "us"),
        "verify.converged_ratio": (ratio(total(attr("verify.convergence_check", "converged")),
                                         total(attr("verify.convergence_check", "trajectories"))), "ratio"),
        "systems.close_loop_s": (timed("systems.close_loop"), "s"),
        "cli.self_s": (timed("cli.main"), "s"),
        "cli.load_certificate_s": (timed("cli.load_certificate"), "s"),
        "cli.bytes_written": (statistics.median(run.bytes_by_job[k] for k in run.traced_jobs)
                              if run.traced_jobs else 0, "B"),
        "job.self_s": (timed("job"), "s"),
        "trace.unattributed_share": (med(lambda spans: ratio(self_s("job")(spans),
                                                             self_s(*{s.name for s in spans})(spans))),
                                     "ratio"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.spans_per_job": (med(len), "count"),
    }
    return m, repeat


# --------------------------------------------------------------------------
# environment record
# --------------------------------------------------------------------------

def environment(args) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qbstab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": bool(args.trace), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": os.cpu_count(), "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu, "commit": commit, "src_sha256": digest.hexdigest(),
    }


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import numpy as np
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            wl.setup(Tracer(False), np.random.default_rng(args.seed), workdir)
            print("ready", flush=True)
            return 0
        with SpeedProbe() as probe:
            setup_windows = measure_setup(args, wl.setup_runs)
            tracer = Tracer(bool(args.trace))
            rng = np.random.default_rng(args.seed)
            if args.trace:
                install_patches(tracer)
            t0 = time.perf_counter()
            try:
                state = wl.setup(tracer, rng, workdir)
            finally:
                tracer.enabled = False
                tracer.restore()
            setup_window = (t0, time.perf_counter())
            run = run_jobs(wl, state, tracer, rng, args.seconds, bool(args.trace))
            run.setup_window = setup_window
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def scale(window):
        return probe.scale(*window)

    setup_wall = [t1 - t0 for t0, t1 in setup_windows]
    setup_s = [(t1 - t0) * scale((t0, t1)) for t0, t1 in setup_windows]
    job_wall, job_s = run.job_seconds(False), run.job_seconds(False, scale)
    e2e = end_to_end(run, setup_s, job_s, state["eps"])
    layers, repeat = per_layer(run, tracer, scale) if args.trace else ({}, True)
    if not repeat:
        run.failures.append("computed counts differ between traced jobs")
    env = environment(args)
    wall = {"job_p50_wall_s": (statistics.median(job_wall), "s"),
            "setup_wall_s": (statistics.median(setup_wall), "s"),
            "probe_scale_p50": (statistics.median(scale(w) for w in run.windows[False]), "ratio")}
    eps_failed = 1.0 - e2e["eps_solved_ratio"][0]
    job_tail = tail(job_s)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(run.all_durations)} attempted={run.attempted} failed={run.failed}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**e2e, **wall, **layers}.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'failed_ratio':32s} {run.failed / run.attempted:.6g} ratio")
    print(f"{'eps_failed_ratio':32s} {eps_failed:.6g} ratio")
    if job_tail is None:
        print(f"{'job_tail_s':32s} n/a ({len(job_s)} untraced jobs; "
              "no percentile has ten jobs beyond it)")
    else:
        print(f"{'job_tail_s':32s} {job_tail[0]:.6g} s at p{job_tail[1]:.1f} of {len(job_s)} jobs")
    for msg in run.failures:
        print(f"# FAILED {msg.strip()}", file=sys.stderr)

    metrics = layers if args.trace else e2e
    result = {
        "correct": run.failed == 0 and repeat,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = records / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "end_to_end": e2e, "wall": wall,
                   "per_layer": layers, "setup_s": setup_s, "setup_wall_s": setup_wall,
                   "job_s": job_s, "job_wall_s": job_wall,
                   "traced_job_wall_s": run.job_seconds(True), "failures": run.failures,
                   "eps_failed_ratio": eps_failed, "job_tail": job_tail,
                   "probe_samples": probe.samples}, fh)
    if args.trace:
        tracer.write(f"{stem}-spans.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
