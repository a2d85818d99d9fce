import tracemalloc

import numpy as np
import pytest

from qbstab.lmi import (
    LmiBlock,
    SdpProblem,
    assemble,
    default_alpha,
    default_delta,
    layout,
    svec_basis,
)
from qbstab import sdp
from qbstab.models import scalar_family, three_state_qb, two_state
from qbstab.sdp import (
    SolverConfig,
    check_block_feasibility,
    kkt_residuals,
    solve,
)
from qbstab.systems import QBSystem, stack, symmetrize_quadratic


def scalar_problem(c=1.0, bound=1.0):
    """maximize c*x subject to x <= bound and x >= 0."""
    lay = layout(1, 0, "analysis")
    return SdpProblem(
        layout=lay,
        c=np.array([c]),
        blocks=(
            LmiBlock.from_dense(F0=np.array([[-bound]]), F=np.array([[[1.0]]])),
            LmiBlock.from_dense(F0=np.array([[0.0]]), F=np.array([[[-1.0]]])),
        ),
    )


def infeasible_problem():
    """x <= -1 and x >= 1 simultaneously."""
    lay = layout(1, 0, "analysis")
    return SdpProblem(
        layout=lay,
        c=np.array([1.0]),
        blocks=(
            LmiBlock.from_dense(F0=np.array([[1.0]]), F=np.array([[[1.0]]])),
            LmiBlock.from_dense(F0=np.array([[1.0]]), F=np.array([[[-1.0]]])),
        ),
    )


SCALAR_SYS = scalar_family(-1.0, 1.0)


def scalar_expected(eps, alpha=0.01, a=-1.0, h=1.0):
    return -eps * (2 * a + eps * h * h + alpha)


class TestSolve:
    def test_trivial_bound(self):
        sol = solve(scalar_problem())
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(1.0, abs=1e-6)

    def test_lyapunov_feasibility(self):
        s = QBSystem(A=-np.eye(2), H=np.zeros((2, 4)))
        prob = assemble(s, eps=1.0, alpha=0.0, mode="analysis")
        prob = SdpProblem(layout=prob.layout, c=np.zeros(prob.d), blocks=prob.blocks)
        sol = solve(prob)
        assert sol.status == "Optimal"
        rep = check_block_feasibility(prob, sol.x, 1e-7)
        assert rep.feasible

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5])
    def test_scalar_closed_form(self, eps):
        prob = assemble(SCALAR_SYS, eps=eps, alpha=0.01, mode="analysis")
        sol = solve(prob)
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(scalar_expected(eps), abs=1e-6)

    def test_reports_within_tolerances(self):
        prob = assemble(SCALAR_SYS, eps=1.0, alpha=0.01, mode="analysis")
        config = SolverConfig()
        sol = solve(prob, config)
        assert sol.primal_residual <= config.feas_tol
        assert sol.dual_residual <= config.feas_tol
        assert sol.duality_gap <= config.gap_tol

    def test_determinism(self):
        prob = assemble(two_state(), eps=0.4, alpha=1e-5, mode="analysis")
        s1 = solve(prob)
        s2 = solve(prob)
        assert s1.status == s2.status == "Optimal"
        assert s1.objective == s2.objective  # bitwise
        assert s1.iters == s2.iters

    def test_scaling_robustness(self):
        prob = assemble(two_state(), eps=0.4, alpha=1e-5, mode="analysis")
        scaled = SdpProblem(
            layout=prob.layout,
            c=prob.c,
            blocks=tuple(LmiBlock(F0=1e3 * b.F0, rows=b.rows, vals=1e3 * b.vals)
                         for b in prob.blocks),
        )
        s1, s2 = solve(prob), solve(scaled)
        assert s1.status == s2.status == "Optimal"
        assert s2.objective == pytest.approx(s1.objective, rel=1e-6)

    def test_objective_box_flags_unbounded(self):
        # feasible direction with unbounded objective: x >= 0, maximize x.
        # The internal cap keeps the run finite and the failure message names it.
        lay = layout(1, 0, "analysis")
        prob = SdpProblem(layout=lay, c=np.array([1.0]),
                          blocks=(LmiBlock.from_dense(F0=np.array([[0.0]]), F=np.array([[[-1.0]]])),))
        sol = solve(prob, SolverConfig(objective_box=1e4, max_iters=60))
        assert sol.status in ("NumericalFailure", "IterLimit")
        assert "objective_box" in sol.message


def closed_loop_rate_problem(eps, nu):
    """Three-state synthesis with the floor block P >= delta I and the
    closed-loop rate block [[nu^2 P, B Y], [Y' B', P]] >= 0."""
    s = three_state_qb()
    n = s.n
    prob = assemble(s, eps, default_alpha(s), "synthesis")
    lay = prob.layout
    E = svec_basis(n)
    n_p = E.shape[0]
    Ff = np.zeros((lay.d, n, n))
    Ff[:n_p] = -E
    floor = LmiBlock.from_dense(F0=default_delta(s) * np.eye(n), F=Ff)
    Fr = np.zeros((lay.d, 2 * n, 2 * n))
    Fr[:n_p, :n, :n] = -nu ** 2 * E
    Fr[:n_p, n:, n:] = -E
    for r in range(s.m):
        for c in range(n):
            # Y[r, c] is decision entry n_p + r n + c
            BY = np.outer(s.B[:, r], np.eye(n)[c])
            Fr[n_p + r * n + c, :n, n:] = -BY
            Fr[n_p + r * n + c, n:, :n] = -BY.T
    rate = LmiBlock.from_dense(F0=np.zeros((2 * n, 2 * n)), F=Fr)
    return SdpProblem(layout=lay, c=prob.c, blocks=(prob.blocks[0], floor, rate))


class TestNumericalFailure:
    def test_non_finite_schur_complement(self):
        # near its infeasibility edge this problem drives the NT scaling to
        # overflow; the solver must report that, not raise from the factorization
        nu = 3.0 * np.linalg.norm(three_state_qb().A, 2)
        sol = solve(closed_loop_rate_problem(8.109473684210526, nu))
        assert sol.status == "NumericalFailure"
        assert "not finite" in sol.message


class TestInfeasibility:
    def test_detects_and_certifies(self):
        prob = infeasible_problem()
        sol = solve(prob)
        assert sol.status == "Infeasible"
        _assert_ray_valid(prob, sol.Z)

    def test_two_state_above_window(self):
        s = two_state()
        prob = assemble(s, eps=1.0, alpha=1e-5, mode="analysis")
        sol = solve(prob)
        assert sol.status == "Infeasible"
        _assert_ray_valid(prob, sol.Z)


class TestRelaxed:
    @pytest.mark.parametrize("prob, config, kind", [
        # one iteration short of the strict optimum
        (assemble(SCALAR_SYS, eps=1.0, alpha=0.01, mode="analysis"),
         SolverConfig(max_iters=7), "Optimal"),
        # one iteration short of a strict ray at a tight feas_tol
        (assemble(two_state(), eps=3.0, alpha=1e-6, mode="analysis"),
         SolverConfig(feas_tol=1e-14, max_iters=13), "Infeasible"),
    ], ids=["optimal", "infeasible"])
    def test_equals_relaxed_re_solve(self, prob, config, kind):
        sol = solve(prob, config)
        assert sol.status == "IterLimit"
        # the re-solve with 10x looser tolerances that the relaxed solution replaces
        replay = solve(prob, SolverConfig(feas_tol=10.0 * config.feas_tol,
                                          gap_tol=10.0 * config.gap_tol,
                                          max_iters=config.max_iters))
        kept = sol.relaxed
        assert kept is not None and kept.status == replay.status == kind
        assert kept.iters == replay.iters <= sol.iters
        assert kept.message == replay.message
        assert np.array_equal(kept.objective, replay.objective, equal_nan=True)
        assert ((kept.primal_residual, kept.dual_residual, kept.duality_gap)
                == (replay.primal_residual, replay.dual_residual, replay.duality_gap))
        assert kept.x.tobytes() == replay.x.tobytes()
        assert [Z.tobytes() for Z in kept.Z] == [Z.tobytes() for Z in replay.Z]
        assert kept.history == replay.history == sol.history[:len(kept.history)]
        assert replay.relaxed is None

    def test_absent_when_strict_tests_pass_first(self):
        sol = solve(infeasible_problem())
        assert sol.status == "Infeasible" and sol.relaxed is None


def _assert_ray_valid(prob, Z):
    # Z >= 0 blockwise, sum <F_k, Z> = 0 per variable, sum <F0, Z> > 0
    for Zb in Z:
        assert np.linalg.eigvalsh((Zb + Zb.T) / 2.0)[0] >= -1e-10
    dense = [blk.dense() for blk in prob.blocks]
    for k in range(prob.d):
        tot = sum(float(np.sum(F[k] * Zb)) for F, Zb in zip(dense, Z))
        assert abs(tot) <= 1e-8
    phi = sum(float(np.sum(blk.F0 * Zb)) for blk, Zb in zip(prob.blocks, Z))
    assert phi >= 1e-10


class TestKktResiduals:
    def test_trivial_problem(self):
        prob = scalar_problem()
        sol = solve(prob)
        primal, dual, gap = kkt_residuals(prob, sol)
        assert primal <= 1e-10
        assert dual <= 1e-8
        assert gap <= 1e-8

    def test_scalar_analysis_gap(self):
        prob = assemble(SCALAR_SYS, eps=1.0, alpha=0.01, mode="analysis")
        sol = solve(prob)
        primal, dual, gap = kkt_residuals(prob, sol)
        assert gap <= 1e-8

    def test_matches_reported_within_10x(self):
        config = SolverConfig()
        prob = assemble(two_state(), eps=0.4, alpha=1e-5, mode="analysis")
        sol = solve(prob, config)
        primal, dual, gap = kkt_residuals(prob, sol)
        assert abs(primal - sol.primal_residual) <= 10 * config.feas_tol
        assert abs(dual - sol.dual_residual) <= 10 * config.feas_tol
        assert abs(gap - sol.duality_gap) <= 10 * config.gap_tol

    def test_perturbed_solution_flagged(self):
        prob = assemble(SCALAR_SYS, eps=1.0, alpha=0.01, mode="analysis")
        sol = solve(prob)
        sol.x = sol.x + 1e-3
        primal, _dual, _gap = kkt_residuals(prob, sol)
        assert primal > 1e-8


class TestCheckBlockFeasibility:
    def test_scalar_at_optimum(self):
        prob = assemble(SCALAR_SYS, eps=1.0, alpha=0.01, mode="analysis")
        rep = check_block_feasibility(prob, np.array([0.99]), 1e-9)
        assert rep.lambda_max[0] <= 1e-9

    def test_scalar_beyond_optimum(self):
        prob = assemble(SCALAR_SYS, eps=1.0, alpha=0.01, mode="analysis")
        rep = check_block_feasibility(prob, np.array([2.0]), 0.0)
        assert rep.lambda_max[0] > 0
        assert not rep.feasible

    def test_constant_block(self):
        lay = layout(1, 0, "analysis")
        prob = SdpProblem(layout=lay, c=np.zeros(1),
                          blocks=(LmiBlock.from_dense(F0=-np.eye(2), F=np.zeros((1, 2, 2))),))
        rep = check_block_feasibility(prob, np.zeros(1), 0.0)
        assert rep.lambda_max[0] == pytest.approx(-1.0)


class TestWeakDuality:
    def test_objective_below_dual_bound(self):
        prob = assemble(two_state(), eps=0.3, alpha=1e-5, mode="analysis")
        sol = solve(prob)
        assert sol.status == "Optimal"
        dual_obj = sum(float(np.sum(-blk.F0 * Zb)) for blk, Zb in zip(prob.blocks, sol.Z))
        assert sol.objective <= dual_obj + 1e-8 * (1 + abs(dual_obj))


class TestConfigValidation:
    def test_rejects_bad_tolerances(self):
        for tol in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                SolverConfig(feas_tol=tol)
            with pytest.raises(ValueError):
                SolverConfig(gap_tol=tol)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)

    def test_iteration_log(self):
        prob = assemble(SCALAR_SYS, eps=1.0, alpha=0.01, mode="analysis")
        sol = solve(prob)
        assert sol.status == "Optimal"
        # the last iteration stops on the residual test before taking a step
        assert len(sol.history) == sol.iters - 1 > 2
        for mu, primal, dual, step in sol.history:
            assert np.all(np.isfinite([mu, primal, dual, step]))
            assert 0.0 < step <= 1.0


def dense_system(n, seed=0):
    """A stable system with every entry of A and H nonzero."""
    rng = np.random.default_rng(seed)
    A = -2.0 * np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    return QBSystem(A=A, H=symmetrize_quadratic(0.2 * rng.standard_normal((n, n * n)) / n, n))


class TestSchurForms:
    def test_form_follows_size_and_sparsity(self):
        def gram(sys_obj):
            prob = assemble(sys_obj, 0.3, 1e-6, "analysis")
            return [sdp._Block(blk).U is not None for blk in prob.blocks]

        assert gram(two_state()) == [True, True]  # small: Gram form
        # main block above GRAM_MAX but a quarter full: Gram; sparse floor block: W
        assert gram(dense_system(15)) == [True, False]
        assert gram(stack(two_state(), 10)) == [False, False]  # large and sparse: W

    def test_gram_block_keeps_no_dense_stack(self):
        # U has d s(s+1)/2 entries; a dense copy of F would add d s^2 more
        lmi = assemble(dense_system(15), 0.3, 1e-6, "analysis").blocks[0]
        d, s = lmi.d, lmi.size
        G = np.linalg.qr(np.random.default_rng(5).standard_normal((s, s)))[0]
        tracemalloc.start()
        try:
            blk = sdp._Block(lmi)
            blk.set_scaling(G, np.ones(s))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert blk.U is not None
        assert retained < d * s * s * 8

    @pytest.mark.parametrize("sys_obj", [stack(two_state(), 5), dense_system(6)],
                             ids=["stacked", "dense"])
    def test_forms_agree(self, sys_obj, monkeypatch):
        rng = np.random.default_rng(3)
        for lmi in assemble(sys_obj, 0.3, 1e-6, "analysis").blocks:
            s = lmi.size
            G = np.linalg.qr(rng.standard_normal((s, s)))[0] * rng.uniform(0.5, 2.0, s)
            R = rng.standard_normal((s, s))
            R = R + R.T
            out, forms = [], []
            monkeypatch.setattr(sdp, "W_MIN_SPARSITY", 0)
            for gram_max in (np.inf, 0):
                monkeypatch.setattr(sdp, "GRAM_MAX", gram_max)
                blk = sdp._Block(lmi)
                blk.set_scaling(G, np.ones(s))
                out.append((*blk.schur(), *blk.pull_back(R)))
                forms.append("gram" if blk.U is not None else "W")
            assert forms == ["gram", "W"]
            for gram_side, w_side in zip(*out):
                np.testing.assert_allclose(w_side, gram_side, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(gram_side)))
