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
from qbstab.models import scalar_family, three_state_qb, two_state
from qbstab.sdp import (
    SolverConfig,
    check_block_feasibility,
    kkt_residuals,
    solve,
)
from qbstab.systems import QBSystem


def scalar_problem(c=1.0, bound=1.0):
    """maximize c*x subject to x <= bound and x >= 0."""
    lay = layout(1, 0, "analysis")
    return SdpProblem(
        layout=lay,
        c=np.array([c]),
        blocks=(
            LmiBlock(F0=np.array([[-bound]]), F=np.array([[[1.0]]])),
            LmiBlock(F0=np.array([[0.0]]), F=np.array([[[-1.0]]])),
        ),
    )


def infeasible_problem():
    """x <= -1 and x >= 1 simultaneously."""
    lay = layout(1, 0, "analysis")
    return SdpProblem(
        layout=lay,
        c=np.array([1.0]),
        blocks=(
            LmiBlock(F0=np.array([[1.0]]), F=np.array([[[1.0]]])),
            LmiBlock(F0=np.array([[1.0]]), F=np.array([[[-1.0]]])),
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
            blocks=tuple(LmiBlock(F0=1e3 * b.F0, F=1e3 * b.F) for b in prob.blocks),
        )
        s1, s2 = solve(prob), solve(scaled)
        assert s1.status == s2.status == "Optimal"
        assert s2.objective == pytest.approx(s1.objective, rel=1e-6)

    def test_objective_box_flags_unbounded(self):
        # feasible direction with unbounded objective: x >= 0, maximize x.
        # The internal cap keeps the run finite and the failure message names it.
        lay = layout(1, 0, "analysis")
        prob = SdpProblem(layout=lay, c=np.array([1.0]),
                          blocks=(LmiBlock(F0=np.array([[0.0]]), F=np.array([[[-1.0]]])),))
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
    floor = LmiBlock(F0=default_delta(s) * np.eye(n), F=Ff)
    Fr = np.zeros((lay.d, 2 * n, 2 * n))
    Fr[:n_p, :n, :n] = -nu ** 2 * E
    Fr[:n_p, n:, n:] = -E
    for (r, c), k in lay.y_indices.items():
        BY = np.outer(s.B[:, r], np.eye(n)[c])
        Fr[k, :n, n:] = -BY
        Fr[k, n:, :n] = -BY.T
    rate = LmiBlock(F0=np.zeros((2 * n, 2 * n)), F=Fr)
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


def _assert_ray_valid(prob, Z):
    # Z >= 0 blockwise, sum <F_k, Z> = 0 per variable, sum <F0, Z> > 0
    for Zb in Z:
        assert np.linalg.eigvalsh((Zb + Zb.T) / 2.0)[0] >= -1e-10
    for k in range(prob.d):
        tot = sum(float(np.sum(blk.F[k] * Zb)) for blk, Zb in zip(prob.blocks, Z))
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
                          blocks=(LmiBlock(F0=-np.eye(2), F=np.zeros((1, 2, 2))),))
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
        with pytest.raises(ValueError):
            SolverConfig(feas_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(step_fraction=1.0)
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
