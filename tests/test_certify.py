import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import THREE_STATE_GRID, burgers
from qbstab import certify
from qbstab.certify import (
    REL_TOL_MIN,
    SCAN_POINTS,
    Certificate,
    Ellipsoid,
    Infeasible,
    UnionRegion,
    deserialize_certificate,
    ellipsoid_volume,
    load_certificate,
    max_trace,
    optimize_epsilon,
    save_certificate,
    serialize_certificate,
    sweep_epsilon,
    union_volume,
)
from qbstab import sdp
from qbstab.cli import main as cli_main
from qbstab.errors import DimensionError, NotPositiveDefiniteError, SchemaError
from qbstab.lmi import _Stack as lmi_stack
from qbstab.lmi import _TStar, assemble, default_alpha, default_delta, default_mu
from qbstab.models import scalar_family, shear_flow_9, three_state_qb, two_state
from qbstab.sdp import check_block_feasibility
from qbstab.systems import save_system, stack

SCALAR = scalar_family(-1.0, 1.0)
DATA = Path(__file__).parent / "data"


def scalar_expected(eps, alpha):
    return -eps * (-2.0 + eps + alpha)


class TestMaxTrace:
    def test_scalar_closed_form(self):
        cert = max_trace(SCALAR, 1.0, 0.01, "analysis")
        assert isinstance(cert, Certificate)
        assert cert.trace_P == pytest.approx(0.99, abs=1e-6)
        assert cert.epsilon == 1.0 and cert.alpha == 0.01

    def test_two_state_feasible_inside_window(self):
        cert = max_trace(two_state(), 0.4, None, "analysis")
        assert isinstance(cert, Certificate)

    def test_two_state_infeasible_above_window(self):
        out = max_trace(two_state(), 1.0, None, "analysis")
        assert isinstance(out, Infeasible)
        assert out.ray is not None and out.epsilon == 1.0

    def test_certificate_reverifies(self):
        cert = max_trace(two_state(), 0.3, None, "analysis")
        prob = assemble(two_state(), 0.3, cert.alpha, "analysis")
        x = prob.layout.pack(cert.P)
        rep = check_block_feasibility(prob, x, 1e-7)
        assert rep.feasible

    def test_synthesis_certificate_has_gain(self):
        cert = max_trace(three_state_qb(), 1.0, None, "synthesis")
        assert cert.K.shape == (2, 3)
        resid = np.linalg.norm(cert.K @ cert.P - cert.Y) / np.linalg.norm(cert.Y)
        assert resid <= 1e-8


    def test_solver_report_shape_entries(self):
        cert = max_trace(two_state(), 0.3, None, "analysis")
        rep = cert.solver_report
        assert rep["gain_norm"] is None and rep["status"] == "Optimal"
        assert "proof_shrink" not in rep
        lam_min = np.linalg.eigvalsh(cert.P)[0]
        assert rep["lambda_min_over_delta"] == pytest.approx(lam_min / default_delta(two_state()))
        assert rep["floor_active"] is False
        syn = max_trace(three_state_qb(), 1.0, None, "synthesis")
        assert syn.solver_report["gain_norm"] == pytest.approx(np.linalg.norm(syn.K, 2))


class TestSynthesisGrid:
    def test_one_solve_per_eps(self, monkeypatch):
        # a strict solve that ends NumericalFailure or IterLimit is not
        # repeated: its certificate comes from the best iterate it returns
        statuses = []

        def counting_solve_many(problems):
            sols = sdp.solve_many(problems)
            statuses.extend(sol.status for sol in sols)
            return sols

        monkeypatch.setattr("qbstab.certify.solve_many", counting_solve_many)
        monkeypatch.setattr("qbstab.certify.solve", None)
        sweep = sweep_epsilon(three_state_qb(), THREE_STATE_GRID, None, "synthesis")
        assert len(statuses) == len(THREE_STATE_GRID)
        for entry, status in zip(sweep.entries, statuses):
            if entry.feasible:
                report = entry.certificate.solver_report
                assert report["status"] == status
                assert ("proof_shrink" in report) == (status != "Optimal")

    def test_failed_solve_certifies_from_its_best_iterate(self, three_state_sweep):
        # eps = 1.4826 ends "step length collapsed" after 20 iterations; its
        # best iterate, shrunk by at most 1e-8, makes both blocks negative
        entry = three_state_sweep.entries[2]
        cert = entry.certificate
        assert entry.epsilon == THREE_STATE_GRID[2]
        assert cert.solver_report["status"] == "NumericalFailure"
        assert cert.solver_report["proof_shrink"] <= 1e-8
        prob = assemble(three_state_qb(), cert.epsilon, cert.alpha, "synthesis")
        rep = check_block_feasibility(prob, prob.layout.pack(cert.P, cert.Y), 0.0)
        assert len(rep.lambda_max) == 2 and max(rep.lambda_max) < 0, rep.lambda_max
        assert cert.trace_P == pytest.approx(11.3780603, rel=1e-7)

    def test_off_the_floor_and_inside_the_input_bound(self, three_state_sweep):
        # every grid certificate keeps lambda_min(P) > 10 delta, and its gain
        # keeps |K x| <= sqrt(mu) on the certified ellipsoid (boundary and
        # interior samples)
        s = three_state_qb()
        delta, mu = default_delta(s), default_mu(s)
        rng = np.random.default_rng(0)
        for e in three_state_sweep.feasible_entries():
            cert = e.certificate
            assert np.linalg.eigvalsh(cert.P)[0] > 10.0 * delta, e.epsilon
            assert cert.solver_report["floor_active"] is False
            u = rng.normal(size=(4000, s.n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            r = np.ones(4000)
            r[2000:] = rng.random(2000) ** (1.0 / s.n)
            w, V = np.linalg.eigh(cert.P)
            X = (u * r[:, None]) @ ((V * np.sqrt(w)) @ V.T)
            u_max = float(np.max(np.linalg.norm(X @ cert.K.T, axis=1)))
            assert u_max <= np.sqrt(mu) * (1.0 + 1e-6), (e.epsilon, u_max)


class TestBurgers:
    """The finite-difference Burgers model at n = 20, where the solver ends
    NumericalFailure below eps* (ROADMAP item 22), so every certificate
    there comes from a proven best iterate."""

    def test_energy_preserving(self):
        s = burgers(20)
        x = np.random.default_rng(0).normal(size=20)
        assert abs(x @ (s.H @ np.kron(x, x))) < 1e-12

    def test_failed_solves_certify_on_proof(self):
        s = burgers(20)
        eps_star = _TStar(s, default_alpha(s)).eps_star
        assert eps_star == pytest.approx(2.4467, rel=1e-4)
        for eps in np.geomspace(0.02, 0.9, 8) * eps_star:
            cert = max_trace(s, eps, None, "analysis")
            assert isinstance(cert, Certificate), eps
            report = cert.solver_report
            assert ("proof_shrink" in report) == (report["status"] != "Optimal"), eps
            if report["status"] != "Optimal":
                assert report["status"] in ("NumericalFailure", "IterLimit"), eps
                assert report["proof_shrink"] <= 1e-4, eps
            prob = assemble(s, eps, cert.alpha, "analysis")
            lam = check_block_feasibility(prob, prob.layout.pack(cert.P), 0.0).lambda_max
            assert max(lam) < 0, (eps, lam)


class TestSweep:
    def test_scalar_grid_closed_form(self):
        sw = sweep_epsilon(SCALAR, [0.5, 1.0, 1.5], 0.01, "analysis")
        traces = [e.trace_P for e in sw.entries]
        expected = [scalar_expected(e, 0.01) for e in (0.5, 1.0, 1.5)]
        np.testing.assert_allclose(traces, expected, atol=1e-6)
        np.testing.assert_allclose(expected, [0.745, 0.99, 0.735], atol=1e-12)

    def test_entries_ordered_and_flagged(self):
        sw = sweep_epsilon(SCALAR, [0.5, 1.0], 0.01, "analysis")
        assert [e.epsilon for e in sw.entries] == [0.5, 1.0]
        assert all(e.feasible == (e.trace_P is not None) for e in sw.entries)

    def test_grid_outside_window_all_infeasible(self):
        sw = sweep_epsilon(two_state(), [1.0, 2.0], None, "analysis")
        assert not any(e.feasible for e in sw.entries)
        assert sw.best() is None

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_epsilon(SCALAR, [], 0.0, "analysis")
        with pytest.raises(ValueError):
            sweep_epsilon(SCALAR, [0.5, 0.4], 0.0, "analysis")
        with pytest.raises(ValueError):
            sweep_epsilon(SCALAR, [-0.1, 0.4], 0.0, "analysis")

    def test_csv_export(self, tmp_path):
        # sweep.csv is written by the CLI's CSV writer
        sys_path = tmp_path / "scalar.json"
        save_system(SCALAR, sys_path)
        out = tmp_path / "sweep"
        assert cli_main(["analyze", "--system", str(sys_path), "--eps", "grid:0.5:1.0:2",
                         "--alpha", "0.01", "--out", str(out),
                         "--union-samples", "10000"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# generated: ")
        assert lines[1] == "epsilon,feasible,trace_P"
        assert lines[2].startswith("0.5,1,0.745")
        assert lines[3].startswith("1,1,0.99")


class TestOutcomeRecord:
    """Every eps protocol decides a point into one ``SweepEntry``, and
    ``max_trace`` maps that entry to its result."""

    def test_infeasible_solution_keeps_ray_and_message(self):
        problem = assemble(two_state(), 1.0, 1e-5, "analysis")
        sol = sdp.solve(problem)
        assert sol.status == "Infeasible"
        entry = certify._outcome(problem, sol, 1.0, 1e-5, "analysis", default_delta(two_state()))
        assert (entry.epsilon, entry.status, entry.certificate, entry.solved) == (
            1.0, "infeasible", None, True)
        assert entry.ray is sol.Z and entry.message == sol.message

    def test_stalled_point_raises_the_entry_text(self):
        # Re = 120 just above eps*: the solve stalls, the one-point grid lists
        # a failed entry, and max_trace raises the text after "failed: "
        sys_obj = shear_flow_9(120.0)
        eps = float(np.geomspace(1e-3, 1.0, SCAN_POINTS)[6])
        (entry,) = sweep_epsilon(sys_obj, [eps], None, "analysis").entries
        assert entry.status.startswith("failed: solver returned NumericalFailure at eps=0.0158489")
        assert entry.certificate is None and "stalled" in entry.status
        with pytest.raises(certify.SolverFailure) as info:
            max_trace(sys_obj, eps, None, "analysis")
        assert f"failed: {info.value}" == entry.status


def assert_spectral_ray(problem, entry_or_marker):
    """A point decided without a solve carries a ray that ``sdp.ray_test``
    accepts on the point's problem, with every block positive semidefinite."""
    ray = entry_or_marker.ray
    user = [lmi_stack.of([blk]) for blk in problem.blocks]
    _, eta, ok = sdp.ray_test(user, [Zb[None] for Zb in ray], problem.c[None])
    assert ok[0] and eta[0] <= sdp.FEAS_TOL
    assert all(np.linalg.eigvalsh(Zb)[0] >= 0 for Zb in ray)
    assert sum(np.trace(Zb) for Zb in ray) == pytest.approx(1.0, rel=1e-14)


class TestSpectralScreen:
    """Analysis points above eps* are decided by the Perron ray without a solve."""

    @pytest.mark.parametrize("eps", [2.5, 3.0, 10.0])
    def test_scalar_above_bound_is_infeasible(self, eps):
        # p* = eps (2 - eps) < 0: no P > 0 exists, where the solver's primal
        # test accepted a P near the floor delta as Optimal
        out = max_trace(SCALAR, eps, None, "analysis")
        assert isinstance(out, Infeasible) and out.message.startswith("spectral ray")
        assert_spectral_ray(assemble(SCALAR, eps, certify.resolve_alpha(SCALAR, None),
                                     "analysis"), out)

    def test_shear_prescan(self):
        # Re = 120 pre-scan: every feasible entry is bitwise what solving all
        # 16 problems gives, and each screened point is one where that solve
        # ends Infeasible or stalls
        sys_obj = shear_flow_9(120.0)
        alpha = certify.resolve_alpha(sys_obj, None)
        scan = np.geomspace(1e-3, 1.0, SCAN_POINTS)
        sweep = sweep_epsilon(sys_obj, scan, None, "analysis")
        problems = [assemble(sys_obj, e, alpha, "analysis") for e in scan]
        solutions = sdp.solve_many(problems)
        assert sweep.eps_star == pytest.approx(0.0152184, rel=1e-5)
        assert sweep.ray_points == 9
        for e, p, sol, entry in zip(scan, problems, solutions, sweep.entries):
            if entry.solved:
                alone = certify._outcome(p, sol, e, alpha, "analysis", default_delta(sys_obj))
                assert entry_bits(entry) == entry_bits(alone)
                continue
            assert e > sweep.eps_star and entry.status == "infeasible"
            assert sol.status == "Infeasible" or sol.message.startswith("stalled")
            assert_spectral_ray(p, entry)
        assert sum(e.feasible for e in sweep.entries) == 6

    def test_repeated_perron_root(self):
        # ten identical copies repeat the Perron root ten times, and a dense
        # eigenvector of the repeated root can be indefinite; each point
        # above eps* is decided by a PSD ray or solved
        sys_obj = stack(two_state(), 10)
        alpha = certify.resolve_alpha(sys_obj, None)
        grid = [0.9, 1.0, 2.0]
        sweep = sweep_epsilon(sys_obj, grid, None, "analysis")
        assert all(e > sweep.eps_star for e in grid)
        for e, entry in zip(grid, sweep.entries):
            assert entry.status == "infeasible"
            if not entry.solved:
                assert_spectral_ray(assemble(sys_obj, e, alpha, "analysis"), entry)

    def test_search_counts(self):
        # the pre-scan points above eps* take no solve; solves and ray points
        # together are every point evaluated, discarded probes included
        res = optimize_epsilon(two_state(), (0.01, 2.0), rel_tol=1e-2)
        screened = [e for e in res.history if not e.solved]
        assert res.ray_points == len(screened) == 3
        assert all(e.epsilon > res.eps_star for e in screened)
        assert res.solves + res.ray_points > len(res.history)

    def test_synthesis_has_no_window(self):
        sweep = sweep_epsilon(three_state_qb(), [0.5], None, "synthesis")
        assert sweep.eps_star is None and sweep.entries[0].solved


class TestOptimizeEpsilon:
    def test_scalar_maximizer(self):
        res = optimize_epsilon(SCALAR, (0.1, 2.0), rel_tol=1e-3, alpha=1e-8)
        assert res.feasible
        assert res.best.epsilon == pytest.approx(1.0, abs=1e-3)
        assert res.best.trace_P == pytest.approx(1.0, abs=1e-3)

    def test_refinement_never_worse_than_history(self):
        res = optimize_epsilon(two_state(), (0.01, 0.8), rel_tol=1e-2)
        assert res.feasible
        best_hist = max(e.trace_P for e in res.history if e.feasible)
        assert res.best.trace_P >= best_hist * (1 - 1e-12)

    def test_infeasible_range(self):
        res = optimize_epsilon(two_state(), (5.0, 6.0), rel_tol=1e-2)
        assert not res.feasible
        assert all(not e.feasible for e in res.history)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            optimize_epsilon(SCALAR, (0.0, 1.0))
        with pytest.raises(ValueError):
            optimize_epsilon(SCALAR, (1.0, 0.5))

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, float("nan"), float("inf"), 1e-16,
                                         REL_TOL_MIN * (1 - 1e-15)])
    def test_rel_tol_validation(self, monkeypatch, rel_tol):
        # rejected before any solve: rel_tol <= 0 would never end the
        # refinement, and neither would one that lets the bracket reach an ulp
        monkeypatch.setattr("qbstab.certify.solve", None)
        monkeypatch.setattr("qbstab.certify.solve_many", None)
        with pytest.raises(ValueError, match="rel_tol"):
            optimize_epsilon(SCALAR, (0.1, 2.0), rel_tol=rel_tol)

    def test_smallest_rel_tol_ends(self):
        res = optimize_epsilon(SCALAR, (0.1, 2.0), rel_tol=REL_TOL_MIN, alpha=1e-8)
        assert len(res.history) == SCAN_POINTS + 58
        assert res.best.epsilon == pytest.approx(1.0, abs=1e-3)


def sequential_search(sys, eps_range, rel_tol, alpha, mode):
    """The golden-section search of ``optimize_epsilon``, one ``max_trace`` per
    probe after the lockstep pre-scan: the history it must reproduce."""
    lo, hi = eps_range
    alpha = certify.resolve_alpha(sys, alpha)
    scan = np.geomspace(lo, hi, SCAN_POINTS)
    history = list(sweep_epsilon(sys, scan, alpha, mode).entries)

    def probe(eps):
        try:
            out = max_trace(sys, eps, alpha, mode)
        except certify.SolverFailure as exc:
            history.append(certify.SweepEntry(eps, None, f"failed: {exc}"))
        else:
            feasible = isinstance(out, Certificate)
            history.append(certify.SweepEntry(eps, out if feasible else None,
                                              "optimal" if feasible else "infeasible"))
        return history[-1].trace_P if history[-1].feasible else -math.inf

    values = [e.trace_P if e.feasible else -math.inf for e in history]
    k = int(np.argmax(values))
    if history[k].feasible:
        a = scan[k - 1] if k > 0 else lo
        b = scan[k + 1] if k + 1 < len(scan) else hi
        x1 = b - certify._INV_PHI * (b - a)
        x2 = a + certify._INV_PHI * (b - a)
        f1, f2 = probe(x1), probe(x2)
        while (b - a) > rel_tol * b:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + certify._INV_PHI * (b - a)
                f2 = probe(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - certify._INV_PHI * (b - a)
                f1 = probe(x1)
    return history


def entry_bits(entry):
    """What a history entry says, bitwise."""
    cert = entry.certificate
    if cert is None:
        return entry.epsilon, entry.status
    return (entry.epsilon, entry.status, cert.P.tobytes(), cert.solver_report,
            None if cert.K is None else cert.K.tobytes())


class TestLookAheadSearch:
    """The refinement solves each probe with the two that can follow it and
    keeps the history of one solve at a time, bit for bit."""

    @pytest.mark.parametrize("case", [
        pytest.param((SCALAR, (0.1, 2.0), 1e-3, 1e-8, "analysis"), id="scalar"),
        pytest.param((two_state(), (0.01, 0.8), 1e-3, None, "analysis"), id="two-state"),
        pytest.param((three_state_qb(), (0.01, 20.0), 1e-2, None, "synthesis"),
                     id="three-state"),
        pytest.param((None, (1e-3, 1.0), 1e-3, None, "analysis"), id="shear-flow-120"),
    ])
    def test_history_is_the_sequential_one(self, monkeypatch, case):
        system, eps_range, rel_tol, alpha, mode = case
        system = shear_flow_9(120.0) if system is None else system
        reference = sequential_search(system, eps_range, rel_tol, alpha, mode)
        rounds, solve_many = [], certify.solve_many

        def recording(problems):
            rounds.append(len(problems))
            return solve_many(problems)

        monkeypatch.setattr(certify, "solve_many", recording)
        res = optimize_epsilon(system, eps_range, rel_tol=rel_tol, alpha=alpha, mode=mode)
        assert [entry_bits(e) for e in res.history] == [entry_bits(e) for e in reference]
        best = max((e for e in reference if e.feasible), key=lambda e: (e.trace_P, -e.epsilon))
        assert res.best.epsilon == best.epsilon
        assert res.best.P.tobytes() == best.certificate.P.tobytes()
        # the pre-scan but for the points the spectral ray decides, the two
        # first probes, then rounds of at most three
        scanned = sum(e.solved for e in res.history[:SCAN_POINTS])
        assert rounds[:2] == [scanned, 2] and max(rounds[2:]) <= 3
        assert sum(rounds) == res.solves
        # every round but the last keeps two probes, the last one or two
        assert len(rounds) == 2 + math.ceil((len(res.history) - SCAN_POINTS - 2) / 2)


class TestEllipsoid:
    def test_unit_disk_area(self):
        assert ellipsoid_volume(Ellipsoid(P=np.eye(2))) == pytest.approx(np.pi)

    def test_axis_aligned_area(self):
        assert ellipsoid_volume(Ellipsoid(P=np.diag([4.0, 9.0]))) == pytest.approx(6 * np.pi)

    @pytest.mark.parametrize("c, n", [(1e-3, 120), (100.0, 200), (1.0, 400)])
    def test_high_dimension_volume_finite(self, c, n):
        # det(c I) and gamma(n/2 + 1) alone under- or overflow here.  For even
        # n the volume of {x' x <= c} is prod_{k=1}^{n/2} (pi c / k), a running
        # product that stays in range for these (c, n).
        ref = math.prod(np.pi * c / k for k in range(1, n // 2 + 1))
        vol = ellipsoid_volume(Ellipsoid(P=c * np.eye(n)))
        assert np.isfinite(vol) and vol > 0
        assert vol == pytest.approx(ref, rel=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            Ellipsoid(P=np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite(self, value):
        # tested first: an inf passed the symmetry and eigenvalue tests, and
        # a NaN warned in the symmetry test, which warnings-as-errors fails
        for P in (np.array([[value]]), np.array([[1.0, value], [value, 1.0]])):
            with pytest.raises(NotPositiveDefiniteError, match="non-finite entries"):
                Ellipsoid(P=P)
            with pytest.raises(NotPositiveDefiniteError, match="non-finite entries"):
                Certificate(mode="analysis", P=P, epsilon=0.3, alpha=0.0)
        # a synthesis certificate's Y and K too: the K P = Y test passed them
        bad, good = np.array([[value, 0.0]]), np.array([[1.0, 0.0]])
        for Y, K in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(ValueError, match="Y and K must be finite"):
                Certificate(mode="synthesis", P=np.eye(2), epsilon=0.3, alpha=0.0, Y=Y, K=K)


class TestUnionVolume:
    def test_single_member_matches_area(self):
        region = UnionRegion(members=(Ellipsoid(P=np.eye(2)),))
        est, se = union_volume(region, 1_000_000, seed=0)
        assert abs(est - np.pi) <= 3 * se

    def test_idempotent_union(self):
        e = Ellipsoid(P=np.diag([2.0, 0.5]))
        one, _ = union_volume(UnionRegion(members=(e,)), 200_000, seed=1)
        two, _ = union_volume(UnionRegion(members=(e, e)), 200_000, seed=1)
        assert one == two

    def test_deterministic_given_seed(self):
        region = UnionRegion(members=(Ellipsoid(P=np.eye(2)),))
        a, _ = union_volume(region, 50_000, seed=42)
        b, _ = union_volume(region, 50_000, seed=42)
        assert a == b

    def test_sample_floor(self):
        region = UnionRegion(members=(Ellipsoid(P=np.eye(2)),))
        with pytest.raises(ValueError):
            union_volume(region, 100, seed=0)

    def test_union_constraints(self):
        with pytest.raises(DimensionError):
            UnionRegion(members=())
        with pytest.raises(DimensionError):
            UnionRegion(members=(Ellipsoid(P=np.eye(2)), Ellipsoid(P=np.eye(3))))

    @pytest.mark.parametrize("c, n", [(1e-3, 120), (100.0, 200), (1.0, 400)])
    def test_high_dimension_ball(self, c, n):
        # every direction of a ball has rho^n = c^(n/2), formed in log space
        e = Ellipsoid(P=c * np.eye(n))
        est, err = union_volume(UnionRegion(members=(e,)), 10_000, seed=0)
        assert est == pytest.approx(ellipsoid_volume(e), rel=1e-12)
        assert abs(est - ellipsoid_volume(e)) <= 3 * err

    def test_ball_holds_a_nested_member(self):
        ball = Ellipsoid(P=2.0 * np.eye(20))
        inner = Ellipsoid(P=np.diag(np.linspace(0.5, 1.9, 20)))
        est, err = union_volume(UnionRegion(members=(inner, ball)), 10_000, seed=3)
        assert est == pytest.approx(ellipsoid_volume(ball), rel=1e-12)
        assert abs(est - ellipsoid_volume(ball)) <= 3 * err

    @pytest.mark.parametrize("P", [
        [[4.0, 1.5], [1.5, 1.0]],
        [[3.0, 0.4, -0.9], [0.4, 0.5, 0.1], [-0.9, 0.1, 1.2]],
    ], ids=["n2", "n3"])
    def test_single_ellipsoid_within_three_errors(self, P):
        e = Ellipsoid(P=np.array(P))
        est, err = union_volume(UnionRegion(members=(e,)), 10_000, seed=0)
        assert abs(est - ellipsoid_volume(e)) <= 3 * err

    @pytest.mark.parametrize("fixture, reference, box_se", [
        # references: midpoint rules on 100,000 angles and on 1.28 million
        # directions; box_se: the standard error of 1e6 uniform points in
        # the members' joint bounding box
        ("two_state_sweep", 15.98016141, 0.0125),
        ("three_state_sweep", 19.932024, 0.031),
    ])
    def test_reproduction_union_within_three_errors(self, request, fixture, reference, box_se):
        sweep = request.getfixturevalue(fixture)
        region = UnionRegion(members=tuple(Ellipsoid(P=e.certificate.P)
                                           for e in sweep.feasible_entries()))
        est, err = union_volume(region, 1_000_000, seed=0)
        assert abs(est - reference) <= 3 * err
        assert err <= box_se


def _random_region(n: int, members: int, seed: int) -> UnionRegion:
    """Overlapping SPD ellipsoids of varied size and shape around the origin."""
    rng = np.random.default_rng(seed)
    Ps = []
    for _ in range(members):
        A = rng.standard_normal((n, n))
        Ps.append(rng.uniform(0.2, 5.0) * (A @ A.T / n + 0.1 * np.eye(n)))
    return UnionRegion(members=tuple(Ellipsoid(P=P) for P in Ps))


class TestUnionVolumeKernel:
    @pytest.mark.parametrize("n, samples", [(3, 1 << 20), (40, 1 << 17)])
    def test_working_set_stays_chunked(self, n, samples):
        # an unchunked draw (n = 40) or an unchunked (samples x members)
        # product (n = 3) would each need more than the budget on its own
        budget = 8 << 20
        region = _random_region(n, 20, 3)
        tracemalloc.start()
        try:
            union_volume(region, samples, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, f"peak {peak / 2**20:.1f} MiB at n = {n}"


class TestSerialization:
    def test_round_trip_scalar(self):
        cert = max_trace(SCALAR, 1.0, 0.01, "analysis")
        doc = serialize_certificate(cert)
        again = deserialize_certificate(json.loads(json.dumps(doc)))
        assert again.mode == cert.mode
        assert again.epsilon == cert.epsilon
        assert again.alpha == cert.alpha
        np.testing.assert_array_equal(again.P, cert.P)
        assert again.trace_P == cert.trace_P

    def test_round_trip_synthesis_file(self, tmp_path):
        cert = max_trace(three_state_qb(), 1.0, None, "synthesis")
        path = tmp_path / "cert.json"
        save_certificate(cert, path)
        again = load_certificate(path)
        np.testing.assert_array_equal(again.P, cert.P)
        np.testing.assert_array_equal(again.Y, cert.Y)
        np.testing.assert_array_equal(again.K, cert.K)

    def test_loads_floor_era_synthesis_certificate(self):
        # written at eps = 9.58 on the three-state grid before the gain bound:
        # lambda_min(P) sits at the assembly floor (cond(P) = 1.3e9) and its
        # stored K P misses Y by more than 1e-8 |Y|, so only the rounding-floor
        # slack of the K P = Y check lets ``verify`` load it
        cert = load_certificate(DATA / "floor_era_synthesis_certificate.json")
        resid = np.linalg.norm(cert.K @ cert.P - cert.Y)
        assert resid > 1e-8 * np.linalg.norm(cert.Y)
        assert np.linalg.cond(cert.P) > 1e9

    def test_indefinite_p_rejected_with_eigenvalue(self):
        cert = max_trace(SCALAR, 1.0, 0.01, "analysis")
        doc = serialize_certificate(cert)
        doc["P"] = [[-1.0]]
        with pytest.raises(SchemaError, match="eigenvalue"):
            deserialize_certificate(doc)

    def test_reloaded_certificate_passes_block_check(self, tmp_path):
        cert = max_trace(two_state(), 0.3, None, "analysis")
        path = tmp_path / "c.json"
        save_certificate(cert, path)
        again = load_certificate(path)
        prob = assemble(two_state(), again.epsilon, again.alpha, "analysis")
        rep = check_block_feasibility(prob, prob.layout.pack(again.P), 1e-7)
        assert rep.feasible

    def test_certificate_takes_p_by_the_ellipsoid_rule(self):
        P = np.array([[1.0, 0.5], [0.25, 1.0]])
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            Certificate(mode="analysis", P=P, epsilon=0.3, alpha=0.0)
        with pytest.raises(DimensionError, match="square"):
            Certificate(mode="analysis", P=np.ones((2, 3)), epsilon=0.3, alpha=0.0)
        doc = serialize_certificate(max_trace(two_state(), 0.3, None, "analysis"))
        doc["P"][0][1] /= 2.0
        with pytest.raises(SchemaError, match="symmetric"):
            deserialize_certificate(doc)

    def test_analysis_certificate_takes_no_gain(self):
        # K P != Y here, and an analysis audit would never apply K
        P = 0.1 * np.eye(2)
        with pytest.raises(DimensionError, match="analysis certificate takes no Y or K"):
            Certificate(mode="analysis", P=P, epsilon=0.4, alpha=0.0,
                        Y=np.array([[1e6, 0.0]]), K=np.array([[3.0, 4.0]]))
        doc = serialize_certificate(Certificate(mode="analysis", P=P, epsilon=0.4, alpha=0.0))
        doc.update(m=1, Y=[[1e6, 0.0]], K=[[3.0, 4.0]])
        with pytest.raises(SchemaError, match="takes no Y or K"):
            deserialize_certificate(doc)

    def test_schema_guard(self):
        with pytest.raises(SchemaError):
            deserialize_certificate({"schema": "something-else"})


def _cert_doc(**fields):
    """The document of a two-state analysis certificate with ``fields`` replaced."""
    doc = serialize_certificate(Certificate(mode="analysis", P=np.eye(2), epsilon=0.4, alpha=0.0))
    doc.update(fields)
    return doc


@pytest.mark.parametrize("call, exc, message", [
    (lambda: Certificate(mode="synthesis", P=np.eye(2), epsilon=0.4, alpha=0.0), DimensionError,
     "synthesis certificate requires Y and K"),
    (lambda: certify.resolve_alpha(two_state(), -1.0), ValueError,
     "alpha must be non-negative, got -1.0"),
    (lambda: deserialize_certificate(_cert_doc(mode="bogus")), SchemaError, "unknown mode 'bogus'"),
    (lambda: deserialize_certificate(_cert_doc(n=3)), SchemaError, "P must be 3x3, got (2, 2)"),
], ids=["synthesis-no-gain", "negative-alpha", "unknown-mode", "P-shape"])
def test_input_rejections(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_certificate_ellipsoid():
    P = np.array([[2.0, 0.5], [0.5, 1.0]])
    e = Certificate(mode="analysis", P=P, epsilon=0.4, alpha=0.0).ellipsoid()
    assert isinstance(e, Ellipsoid)
    assert np.array_equal(e.P, P)
    assert e.n == 2
