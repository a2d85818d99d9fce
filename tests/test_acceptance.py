"""Acceptance suite: one module per release gate, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines.  Three sub-clauses assert literature claims that contradict
the assembled problem's mathematics under this package's documented
formulation (infeasibility at and below the small-eps window edge, and a
trace floor at the smallest grid eps); they are implemented faithfully,
fail honestly, and carry the analysis in their failure messages.
Everything else is green.
"""

import math
import time

import numpy as np
import pytest

from conftest import criterion_line
from qbstab.certify import (
    Certificate,
    Ellipsoid,
    Infeasible,
    UnionRegion,
    max_trace,
    optimize_epsilon,
    union_volume,
)
from qbstab.lmi import assemble, delta_norm, petersen_parts
from qbstab.models import (
    scalar_family,
    shear_flow_9,
    three_state_qb,
    two_state,
)
from qbstab.sdp import solve
from qbstab.systems import QBSystem, stack, symmetrize_quadratic
from qbstab.verify import convergence_check, sample_check

from dense_lmi import dense_stack

SCALAR = scalar_family(-1.0, 1.0)


# --------------------------------------------------------------------------
# criterion 1: scalar closed-form oracle
# --------------------------------------------------------------------------

def test_criterion_1_scalar_closed_form():
    t0 = time.perf_counter()
    checks = []
    for eps in (0.5, 1.0, 1.5):
        cert = max_trace(SCALAR, eps, 0.01, "analysis")
        expected = -eps * (2 * (-1.0) + eps * 1.0 + 0.01)
        checks.append(abs(cert.trace_P - expected) <= 1e-6)
    search = optimize_epsilon(SCALAR, (0.1, 2.0), rel_tol=1e-3, alpha=1e-8)
    checks.append(abs(search.best.epsilon - 1.0) <= 1e-3)
    checks.append(abs(search.best.trace_P - 1.0) <= 1e-3)
    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 1.0)
    ok = all(checks)
    criterion_line("criterion 1", ok,
                   f"scalar oracle p* = -eps(2a+eps h^2+alpha), eps* = "
                   f"{search.best.epsilon:.5f}, {elapsed:.2f} s")
    assert ok, checks


# --------------------------------------------------------------------------
# criterion 2: two-state reproduction
# --------------------------------------------------------------------------

def test_criterion_2_two_state_reproduction(two_state_sweep):
    t0 = time.perf_counter()
    sweep = two_state_sweep
    feas = sweep.feasible_entries()
    max_tr = max(e.trace_P for e in feas)
    best = sweep.best()
    area = math.pi * math.sqrt(float(np.linalg.det(best.P)))
    region = UnionRegion(members=tuple(Ellipsoid(P=e.certificate.P) for e in feas))
    union_est, union_se = union_volume(region, 1_000_000, seed=0)

    out_high = max_trace(two_state(), 1.0, None, "analysis")
    high_infeasible = isinstance(out_high, Infeasible)
    ray_ok = False
    if high_infeasible:
        prob = assemble(two_state(), 1.0, out_high.alpha, "analysis")
        ray_ok = _ray_verifies(prob, out_high.ray)
    elapsed = time.perf_counter() - t0

    checks = {
        "max trace 8.3347 +-5%": abs(max_tr - 8.3347) <= 0.05 * 8.3347,
        "best-ellipse area 12.8340 +-3%": abs(area - 12.8340) <= 0.03 * 12.8340,
        "union area 15.9825 +-3% (3 sigma)":
            abs(union_est - 15.9825) <= 0.03 * 15.9825 + 3 * union_se,
        "eps=1.0 infeasible": high_infeasible,
        "eps=1.0 ray verifies": ray_ok,
        "runtime < 30 s": elapsed < 30.0,
    }
    ok = all(checks.values())
    criterion_line(
        "criterion 2 (core)", ok,
        f"max trace {max_tr:.4f}, area {area:.4f}, union {union_est:.4f} "
        f"(se {union_se:.4f}), eps=1.0 infeasible={high_infeasible}, {elapsed:.1f} s")
    assert ok, checks


def test_criterion_2_below_window_infeasibility_claim(two_state_sweep):
    """The acceptance gate pins eps = 0.005 as Infeasible, but the assembled
    LMI is strictly feasible there (P = 0.01 I is an explicit interior point:
    feasibility below the window is generic for Hurwitz A because the
    quadratic Schur term vanishes at second order in the scale of P), so a
    correct solver must return Optimal.  Asserted as pinned; fails by design."""
    out = max_trace(two_state(), 0.005, None, "analysis")
    is_infeasible = isinstance(out, Infeasible)
    criterion_line(
        "criterion 2 (eps=0.005 sub-clause)", is_infeasible,
        "pinned as Infeasible below the window; the LMI is strictly feasible "
        f"there (returned {type(out).__name__}"
        + (f", trace {out.trace_P:.4f}" if isinstance(out, Certificate) else "") + ")")
    assert is_infeasible, (
        "pinned-value defect: the eps=0.005 analysis LMI is strictly feasible "
        "(witness P = 0.01 I), so Infeasible is unattainable here")


def _ray_verifies(prob, Z) -> bool:
    if Z is None:
        return False
    for Zb in Z:
        if np.linalg.eigvalsh((Zb + Zb.T) / 2.0)[0] < -1e-10:
            return False
    dense = [dense_stack(blk) for blk in prob.blocks]
    for k in range(prob.d):
        tot = sum(float(np.sum(F[k] * Zb)) for F, Zb in zip(dense, Z))
        if abs(tot) > 1e-8:
            return False
    phi = sum(float(np.sum(blk.F0 * Zb)) for blk, Zb in zip(prob.blocks, Z))
    return phi >= 1e-10


# --------------------------------------------------------------------------
# criterion 3: plateau pin
# --------------------------------------------------------------------------

def test_criterion_3_plateau(two_state_sweep):
    vals = [e.trace_P for e in two_state_sweep.feasible_entries()
            if 0.09 <= e.epsilon <= 0.53]
    ratio = max(vals) / min(vals)
    ok = ratio <= 1.25 and len(vals) >= 5
    criterion_line("criterion 3", ok,
                   f"plateau max/min trace ratio {ratio:.4f} over {len(vals)} grid points")
    assert ok


# --------------------------------------------------------------------------
# criterion 4: three-state synthesis
# --------------------------------------------------------------------------

def test_criterion_4_grid_certificates_and_sampling(three_state_sweep):
    t0 = time.perf_counter()
    sweep = three_state_sweep
    feas = sweep.feasible_entries()
    all_feasible = len(feas) == len(sweep.entries)
    sys3 = three_state_qb()
    sampling_clean = True
    for e in feas:
        rep = sample_check(sys3, e.certificate, 10_000, seed=0)
        if rep.violations != 0:
            sampling_clean = False
    elapsed = time.perf_counter() - t0
    ok = all_feasible and sampling_clean and elapsed < 60.0
    criterion_line(
        "criterion 4 (certificates + sampling)", ok,
        f"{len(feas)}/20 grid points certified, sample_check 10^4 points each: "
        f"0 violations = {sampling_clean}, {elapsed:.1f} s")
    assert ok


def test_criterion_4_trace_exceeds_baseline_claim(three_state_sweep):
    """The acceptance gate pins every feasible grid trace above the 0.9927
    baseline; the smallest-eps point certifies trace ~ 0.175 (the LMI forces
    P ~ eps scale as eps -> 0), so the quantified claim fails at eps = 0.01.
    Asserted as pinned; fails by design."""
    feas = three_state_sweep.feasible_entries()
    traces = {e.epsilon: e.trace_P for e in feas}
    ok = all(tr > 0.9927 for tr in traces.values())
    offenders = {f"{k:.4f}": f"{v:.4f}" for k, v in traces.items() if v <= 0.9927}
    criterion_line("criterion 4 (trace > 0.9927 sub-clause)", ok,
                   f"offending grid points: {offenders or 'none'}")
    assert ok, (
        f"pinned-value defect: grid traces at small eps sit below the baseline "
        f"({offenders}) because the feasible P shrinks with eps")


def test_criterion_4_window_edge_infeasibility_claim():
    """The acceptance gate pins eps = 0.005 and eps = 20 as Infeasible for
    synthesis; both are feasible for the assembled LMI (small-eps feasibility
    is generic for Hurwitz A, and the free gain keeps the large-eps problem
    feasible well past 20).  Asserted as pinned; fails by design."""
    sys3 = three_state_qb()
    out_low = max_trace(sys3, 0.005, None, "synthesis")
    out_high = max_trace(sys3, 20.0, None, "synthesis")
    low_inf = isinstance(out_low, Infeasible)
    high_inf = isinstance(out_high, Infeasible)
    criterion_line(
        "criterion 4 (edge infeasibility sub-clause)", low_inf and high_inf,
        f"eps=0.005 -> {type(out_low).__name__}, eps=20 -> {type(out_high).__name__} "
        "(pinned as Infeasible for both)")
    assert low_inf and high_inf, (
        "pinned-value defect: the synthesis LMI is feasible at both pinned "
        "edges (verified against an independent solver during development)")


def test_criterion_4_convergence_audit(three_state_sweep):
    """100 boundary trajectories per gain, 100% convergence required.

    The synthesis LMI bounds the input amplitude |K x| <= sqrt(mu) on the
    certified ellipsoid, which keeps lambda_min(P) well above the
    delta = 1e-8 assembly floor and |K| of order 10.  Without that bound,
    trace maximization parks an eigenvalue of P on the floor for
    eps >~ 1.5, making |K| ~ 1e8: the closed-loop Jacobian then reaches ~1e8
    and explicit fixed-step integration is out of reach (the divergence
    guard trips immediately), although the pointwise Lyapunov decrease of
    such certificates still verifies."""
    sys3 = three_state_qb()
    results = {}
    for e in three_state_sweep.feasible_entries():
        rep = convergence_check(sys3, e.certificate, 100, t_final=25.0, dt=0.01, seed=1)
        results[e.epsilon] = (rep.trajectories_converged, rep.violations)
    full = {f"{k:.3f}": v for k, v in results.items()}
    ok = all(conv == 100 and viol == 0 for conv, viol in results.values())
    n_pass = sum(1 for conv, viol in results.values() if conv == 100 and viol == 0)
    criterion_line(
        "criterion 4 (convergence audit sub-clause)", ok,
        f"{n_pass}/{len(results)} gains fully converge under explicit RK4 "
        "(100 boundary trajectories each, dt = 0.01)")
    assert ok, (
        "some synthesized gains do not integrate under explicit RK4 from the "
        "certified boundary (converged trajectories, violations); "
        f"per-eps {full}")


# --------------------------------------------------------------------------
# criterion 5: algebraic identities
# --------------------------------------------------------------------------

def test_criterion_5_algebraic_identities():
    rng = np.random.default_rng(2024)
    worst_schur = 0.0
    worst_delta = 0.0
    for _ in range(50):
        m = int(rng.integers(0, 3))
        n = int(rng.integers(max(2, m + 1), 7))
        A = rng.normal(size=(n, n))
        H = symmetrize_quadratic(rng.normal(size=(n, n * n)), n)
        if m:
            sysr = QBSystem(A=A, H=H, B=rng.normal(size=(n, m)),
                            D=tuple(rng.normal(size=(n, n)) for _ in range(m)))
        else:
            sysr = QBSystem(A=A, H=H)
        G = rng.normal(size=(n, n))
        P = G @ G.T + n * np.eye(n)
        eps = float(rng.uniform(0.2, 2.0))
        alpha = float(rng.uniform(0.0, 0.3))
        mode = "synthesis" if m else "analysis"
        K = rng.normal(size=(m, n)) if m else None
        parts = petersen_parts(sysr, P, K)
        lhs = parts.G + eps * parts.M @ parts.M.T + parts.N.T @ parts.N / eps + alpha * P
        prob = assemble(sysr, eps, alpha, mode)
        x = prob.layout.pack(P, K @ P if m else None)
        blk = prob.blocks[0].evaluate(x)
        C = blk[:n, n:]
        schur = blk[:n, :n] + C @ C.T / eps
        scale = max(1.0, float(np.abs(lhs).max()))
        worst_schur = max(worst_schur, float(np.abs(schur - lhs).max()) / scale)

        x_probe = rng.normal(size=n)
        q = math.sqrt(float(x_probe @ np.linalg.solve(P, x_probe)))
        worst_delta = max(worst_delta,
                          abs(delta_norm(sysr, P, x_probe, mode) - q))

    # degeneration: B = 0, D = 0 synthesis trace equals analysis trace
    worst_degen = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        G = rng.normal(size=(n, n))
        A = G - (np.max(np.linalg.eigvals(G).real) + 1.0) * np.eye(n)
        H = symmetrize_quadratic(0.3 * rng.normal(size=(n, n * n)), n)
        sa = QBSystem(A=A, H=H)
        sz = QBSystem(A=A, H=H, B=np.zeros((n, 1)), D=(np.zeros((n, n)),))
        ca = max_trace(sa, 0.5, 1e-6, "analysis")
        cs = max_trace(sz, 0.5, 1e-6, "synthesis")
        worst_degen = max(worst_degen, abs(ca.trace_P - cs.trace_P) / ca.trace_P)

    checks = {
        "schur identity <= 1e-10": worst_schur <= 1e-10,
        "delta norm <= 1e-12": worst_delta <= 1e-12,
        "degeneration <= 1e-6 rel": worst_degen <= 1e-6,
    }
    ok = all(checks.values())
    criterion_line("criterion 5", ok,
                   f"schur {worst_schur:.2e}, delta {worst_delta:.2e}, "
                   f"degeneration {worst_degen:.2e}")
    assert ok, checks


# --------------------------------------------------------------------------
# criterion 6: verification suite over produced certificates
# --------------------------------------------------------------------------

def test_criterion_6_verification_suite(two_state_sweep, three_state_sweep):
    """Sampling for every certificate from criteria 1, 2, 4; monotone V along
    simulated trajectories for the scalar and two-state certificates and the
    two smallest-eps 3-state gains (the criterion 4 convergence audit
    integrates all twenty); exponential envelope for the alpha = 0.1
    variant."""
    sys2, sys3 = two_state(), three_state_qb()
    sampling_viol = 0
    scalar_certs = [max_trace(SCALAR, eps, 0.01, "analysis") for eps in (0.5, 1.0, 1.5)]
    for cert in scalar_certs:
        sampling_viol += sample_check(SCALAR, cert, 10_000, seed=0).violations
    for e in two_state_sweep.feasible_entries():
        sampling_viol += sample_check(sys2, e.certificate, 10_000, seed=0).violations
    for e in three_state_sweep.feasible_entries():
        sampling_viol += sample_check(sys3, e.certificate, 10_000, seed=0).violations

    traj_bad = 0
    for cert in scalar_certs:
        rep = convergence_check(SCALAR, cert, 100, t_final=25.0, dt=1e-3, seed=1)
        if rep.violations or rep.trajectories_converged != 100:
            traj_bad += 1
    for e in two_state_sweep.feasible_entries():
        rep = convergence_check(sys2, e.certificate, 100, t_final=5.0, dt=1e-3, seed=1)
        if rep.violations or rep.trajectories_converged != 100:
            traj_bad += 1
    for e in three_state_sweep.feasible_entries()[:2]:  # all 20: criterion 4 audit
        rep = convergence_check(sys3, e.certificate, 100, t_final=25.0, dt=0.01, seed=1)
        if rep.violations or rep.trajectories_converged != 100:
            traj_bad += 1

    exp_cert = max_trace(sys2, 0.3, 0.1, "analysis")
    exp_rep = convergence_check(sys2, exp_cert, 100, t_final=5.0, dt=1e-3, seed=2)
    envelope_ok = exp_rep.violations == 0 and exp_rep.trajectories_converged == 100

    checks = {
        "0 sampled decrease violations": sampling_viol == 0,
        "monotone V on all integrable loops": traj_bad == 0,
        "alpha=0.1 envelope": envelope_ok,
    }
    ok = all(checks.values())
    criterion_line("criterion 6", ok,
                   f"sampling violations {sampling_viol}, trajectory failures {traj_bad}, "
                   f"exponential envelope ok = {envelope_ok} "
                   "(first two 3-state gains; all of them: see criterion 4 audit)")
    assert ok, checks


# --------------------------------------------------------------------------
# criterion 7: scaling on stacked systems
# --------------------------------------------------------------------------

def test_criterion_7_scaling():
    base = two_state()
    base_cert = max_trace(base, 0.4, None, "analysis")
    times = {}
    ok_status = True
    ok_trace = True
    for k in (5, 10, 20):
        stacked = stack(base, k)
        t0 = time.perf_counter()
        prob = assemble(stacked, 0.4, base_cert.alpha, "analysis")
        sol = solve(prob)
        times[2 * k] = time.perf_counter() - t0
        ok_status &= sol.status == "Optimal"
        expected = k * base_cert.trace_P
        ok_trace &= abs(sol.objective - expected) <= 0.01 * expected
    exponent = None
    sizes = sorted(times)
    if len(sizes) >= 2:
        exponent = float(np.polyfit(np.log(sizes), np.log([times[s] for s in sizes]), 1)[0])
    checks = {
        "all Optimal": ok_status,
        "traces k x base within 1%": ok_trace,
        "n=40 under 10 min": times[40] < 600.0,
    }
    ok = all(checks.values())
    criterion_line(
        "criterion 7", ok,
        f"n=10/20/40 solved in {times[10]:.2f}/{times[20]:.2f}/{times[40]:.2f} s, "
        f"measured power-law exponent {exponent:.2f} (reported, not pinned)")
    assert ok, checks


# --------------------------------------------------------------------------
# criterion 8: shear-flow trace monotonic in Reynolds number
# --------------------------------------------------------------------------

def test_criterion_8_shear_flow_monotonic():
    traces = []
    for Re in (120.0, 130.0, 140.0, 150.0, 160.0):
        res = optimize_epsilon(shear_flow_9(Re), (1e-3, 1.0), rel_tol=1e-3,
                               alpha=None, mode="analysis")
        assert res.feasible, f"Re={Re} search found no feasible eps"
        traces.append(res.best.trace_P)
    strictly_decreasing = all(a > b for a, b in zip(traces, traces[1:]))
    criterion_line(
        "criterion 8", strictly_decreasing,
        "optimized trace over Re=120..160: " + ", ".join(f"{t:.6f}" for t in traces))
    assert strictly_decreasing, traces
