"""The four benchmark workloads: set-up, one timed job, and its output check.

Each workload puts a different qbstab module on the critical path:

* ``repro_grid``   the paper's reproduction protocol (sweeps + Monte Carlo union)
* ``shear_search`` the 9-state shear-flow eps line search (many small solves)
* ``stacked_n40``  one n = 40 stacked solve (dense kernels, memory)
* ``audit``        ``qbstab verify`` through the CLI (RK4 and sampling audits)

``setup`` builds everything a job reuses and returns it as a dict; ``job``
is the timed user-level call; ``summarize`` runs after the timer stops and
turns the job's output into an ``Outcome`` (failed output checks, eps
outcomes, per-certificate usability).  All randomness comes from the
``numpy.random.Generator`` the run derives from ``--seed``; the SDP inputs
are the fixed paper systems and the solver is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from qbstab import cli, models
from qbstab.certify import (
    Ellipsoid,
    UnionRegion,
    ellipsoid_volume,
    max_trace,
    optimize_epsilon,
    save_certificate,
    sweep_epsilon,
    union_volume,
)
from qbstab.lmi import assemble, default_delta
from qbstab.sdp import solve
from qbstab.systems import stack

# Paper reference values and the tolerances the job output is checked against.
REF_TRACE, TRACE_RTOL = 8.3347, 0.05
REF_AREA, AREA_RTOL = 12.8340, 0.03
REF_UNION, UNION_RTOL, UNION_SIGMAS = 15.9825, 0.03, 3.0
# Best shear-flow trace at Re = 120, measured when this benchmark was added;
# the solver is deterministic, so 1e-6 relative only allows reordered sums.
REF_SHEAR_TRACE, SHEAR_RTOL = 1.544771340792761e-3, 1e-6
STACK_K, STACK_EPS, STACK_RTOL = 20, 0.4, 1e-6
UNION_SAMPLES = 1_000_000
GRID_POINTS = 20

TWO_GRID = np.linspace(0.01, 0.8, GRID_POINTS)
THREE_GRID = np.linspace(0.01, 14.0, GRID_POINTS)
# verify runs per job: (certificate label, zoo name, --t-final, --dt)
AUDIT_RUNS = (("two", "two-state", "5", "1e-3"), ("three", "three-state-qb", "25", "0.01"))
AUDIT_TRAJECTORIES, AUDIT_SAMPLES = 100, 10_000


@dataclass
class Outcome:
    """What the benchmark learns from one job after its timer has stopped."""

    failures: list = field(default_factory=list)
    eps: list = field(default_factory=list)        # one status string per eps point
    certs: dict = field(default_factory=dict)      # certificate id -> CertFacts
    bytes_written: int = 0


@dataclass
class CertFacts:
    """Shape facts of one certificate and whether every check applied to it passed.

    The check is the verify audit on ``audit`` (0 sample violations, every
    trajectory converged, 0 trajectory violations) and the job's output
    check on the other workloads.
    """

    floor_active: bool
    gain_norm: float | None = None
    usable: bool = True


def cert_facts(P: np.ndarray, sys, K=None) -> CertFacts:
    """Floor activity is lambda_min(P) <= 10 delta, the degenerate-shape test."""
    floor = float(np.linalg.eigvalsh(P)[0]) <= 10.0 * default_delta(sys)
    return CertFacts(floor, None if K is None else float(np.linalg.norm(K, 2)))


def _sweep_outcome(out: Outcome, label: str, sweep, sys) -> None:
    for i, e in enumerate(sweep.entries):
        out.eps.append(e.status)
        if e.feasible:
            out.certs[f"{label}-{i}"] = cert_facts(e.certificate.P, sys, e.certificate.K)


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


# --------------------------------------------------------------------------
# repro_grid
# --------------------------------------------------------------------------

def repro_setup(tr, rng, workdir) -> dict:
    with tr.span("models.build"):
        two, three = models.two_state(), models.three_state_qb()
    return {"grids": (("two", two, TWO_GRID, "analysis"), ("three", three, THREE_GRID, "synthesis")),
            "eps": []}


def repro_job(tr, state, k, rng):
    results = []
    for label, sys, grid, mode in state["grids"]:
        sweep = tr.call("certify.sweep_epsilon", sweep_epsilon, sys, grid, None, mode)
        best = tr.call("certify.best", sweep.best)
        region = UnionRegion(members=tuple(Ellipsoid(P=e.certificate.P)
                                           for e in sweep.feasible_entries()))
        union = tr.call("certify.union_volume", union_volume, region, UNION_SAMPLES,
                        int(rng.integers(2**31)))
        results.append((label, sys, sweep, best, union))
    return results


def repro_summarize(state, results) -> Outcome:
    out = Outcome()
    for label, sys, sweep, best, (volume, stderr) in results:
        _sweep_outcome(out, label, sweep, sys)
        if len(sweep.feasible_entries()) != GRID_POINTS:
            out.failures.append(f"{label}: {len(sweep.feasible_entries())}/{GRID_POINTS} points certified")
        if label != "two":
            continue
        if best is None or _rel(best.trace_P, REF_TRACE) > TRACE_RTOL:
            out.failures.append(f"two-state max trace {best and best.trace_P} vs {REF_TRACE}")
            continue
        area = ellipsoid_volume(best.ellipsoid())
        if _rel(area, REF_AREA) > AREA_RTOL:
            out.failures.append(f"best-ellipse area {area:.6g} vs {REF_AREA}")
        if abs(volume - REF_UNION) > UNION_RTOL * REF_UNION + UNION_SIGMAS * stderr:
            out.failures.append(f"union {volume:.6g} +- {stderr:.2g} vs {REF_UNION}")
    return out


# --------------------------------------------------------------------------
# shear_search
# --------------------------------------------------------------------------

def shear_setup(tr, rng, workdir) -> dict:
    with tr.span("models.build"):
        sys = models.shear_flow_9(120.0)
    return {"sys": sys, "eps": []}


def shear_job(tr, state, k, rng):
    return tr.call("certify.optimize_epsilon", optimize_epsilon, state["sys"], (1e-3, 1.0),
                   rel_tol=1e-3)


def shear_summarize(state, result) -> Outcome:
    out = Outcome(eps=[e.status for e in result.history])
    if not result.feasible:
        out.failures.append("shear-flow search found no feasible eps")
        return out
    out.certs["best"] = cert_facts(result.best.P, state["sys"])
    if _rel(result.best.trace_P, REF_SHEAR_TRACE) > SHEAR_RTOL:
        out.failures.append(f"shear-flow best trace {result.best.trace_P!r} vs {REF_SHEAR_TRACE!r}")
    return out


# --------------------------------------------------------------------------
# stacked_n40
# --------------------------------------------------------------------------

def stacked_setup(tr, rng, workdir) -> dict:
    with tr.span("models.build"):
        base = models.two_state()
    with tr.span("systems.stack"):
        stacked = stack(base, STACK_K)
    base_cert = tr.call("certify.max_trace", max_trace, base, STACK_EPS, None, "analysis")
    return {"sys": stacked, "alpha": base_cert.alpha, "expected": STACK_K * base_cert.trace_P,
            "eps": ["optimal"]}


def stacked_job(tr, state, k, rng):
    problem = tr.call("lmi.assemble", assemble, state["sys"], STACK_EPS, state["alpha"], "analysis")
    return problem, tr.call("sdp.solve", solve, problem)


def stacked_summarize(state, result) -> Outcome:
    problem, sol = result
    out = Outcome(eps=["optimal" if sol.status == "Optimal" else f"failed: {sol.status}"])
    if sol.status != "Optimal":
        out.failures.append(f"stacked solve returned {sol.status}")
        return out
    P, _ = problem.layout.unpack(sol.x)
    out.certs["stacked"] = cert_facts(P, state["sys"])
    if _rel(sol.objective, state["expected"]) > STACK_RTOL:
        out.failures.append(f"stacked objective {sol.objective!r} vs {STACK_K} x base "
                            f"{state['expected']!r}")
    return out


# --------------------------------------------------------------------------
# audit
# --------------------------------------------------------------------------

def audit_setup(tr, rng, workdir) -> dict:
    with tr.span("models.build"):
        systems = {"two": models.two_state(), "three": models.three_state_qb()}
    sweeps = {
        "two": tr.call("certify.sweep_epsilon", sweep_epsilon, systems["two"], TWO_GRID, None, "analysis"),
        "three": tr.call("certify.sweep_epsilon", sweep_epsilon, systems["three"], THREE_GRID, None,
                         "synthesis"),
    }
    certs, paths, eps = {}, {}, []
    for label, sweep in sweeps.items():
        for i, entry in enumerate(sweep.entries):
            eps.append(entry.status)
            if not entry.feasible:
                raise RuntimeError(f"audit set-up: {label} grid point {i} is {entry.status}")
            path = workdir / f"cert-{label}-{i:02d}.json"
            tr.call("certify.save_certificate", save_certificate, entry.certificate, path)
            certs[(label, i)] = entry.certificate
            paths[(label, i)] = path
    return {"systems": systems, "certs": certs, "paths": paths, "eps": eps,
            "order": rng.permutation(GRID_POINTS), "workdir": workdir}


def audit_job(tr, state, k, rng):
    i = int(state["order"][k % GRID_POINTS])
    seed = int(rng.integers(2**31))
    codes = []
    for label, zoo, t_final, dt in AUDIT_RUNS:
        argv = ["verify", "--zoo", zoo, "--certificate", str(state["paths"][(label, i)]),
                "--t-final", t_final, "--dt", dt, "--trajectories", str(AUDIT_TRAJECTORIES),
                "--samples", str(AUDIT_SAMPLES), "--seed", str(seed),
                "--out", str(state["workdir"] / f"verify-{label}")]
        codes.append(tr.call("cli.main", cli.main, argv))
    return i, codes


def audit_summarize(state, result) -> Outcome:
    i, codes = result
    out = Outcome()
    for (label, zoo, _t, _dt), code in zip(AUDIT_RUNS, codes):
        path = state["workdir"] / f"verify-{label}" / "verification.json"
        out.bytes_written += path.stat().st_size
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        path.unlink()  # a later run that writes no report must not find this one
        samp, conv = report["sample_check"], report["convergence_check"]
        if code != (0 if report["passed"] else 3):
            out.failures.append(f"{zoo} #{i}: exit {code} but passed={report['passed']}")
        if samp["violations"]:
            out.failures.append(f"{zoo} #{i}: {samp['violations']} sample violations")
        cert = state["certs"][(label, i)]
        facts = cert_facts(cert.P, state["systems"][label], cert.K)
        facts.usable = (samp["violations"] == 0 and conv["violations"] == 0
                        and conv["converged"] == conv["trajectories"] == AUDIT_TRAJECTORIES)
        out.certs[f"{label}-{i}"] = facts
    return out


@dataclass(frozen=True)
class Workload:
    setup: object
    job: object
    summarize: object
    min_jobs: int   # jobs a run makes however long they take
    # Set-ups timed per run, reported as their median.  With 3, setup_s
    # spread 0.07-0.14 over ten seeds on the 0.5 s set-ups and 0.10 on
    # audit's 1.3 s one.  Audit gets 5, not 7: each of its set-ups runs 43
    # solves, and its run is already the longest.
    setup_runs: int = 7


WORKLOADS = {
    "repro_grid": Workload(repro_setup, repro_job, repro_summarize, 3),
    "shear_search": Workload(shear_setup, shear_job, shear_summarize, 3),
    "stacked_n40": Workload(stacked_setup, stacked_job, stacked_summarize, 3),
    # every certificate is audited at least once, so usable_cert_ratio
    # does not depend on which part of the cycle a run happens to reach
    "audit": Workload(audit_setup, audit_job, audit_summarize, GRID_POINTS, setup_runs=5),
}

