import tracemalloc

import numpy as np
import pytest

from qbstab.lmi import (
    LmiBlock,
    SdpProblem,
    _gram_words as lmi_words,
    _Stack,
    _w_words,
    assemble,
    default_alpha,
    default_delta,
    layout,
)
from qbstab import lmi, sdp
from qbstab.certify import SolverFailure, max_trace
from qbstab.models import (
    scalar_family,
    shear_flow_9,
    three_state_qb,
    two_state,
)
from qbstab.sdp import (
    check_block_feasibility,
    kkt_residuals,
    solve,
)
from qbstab.systems import QBSystem, stack, symmetrize_quadratic

from conftest import asymmetric_shear_flow
from dense_lmi import block_from_dense, dense_stack, svec_basis


def scalar_problem(c=1.0, bound=1.0):
    """maximize c*x subject to x <= bound and x >= 0."""
    lay = layout(1, 0, "analysis")
    return SdpProblem(
        layout=lay,
        c=np.array([c]),
        blocks=(
            block_from_dense(F0=np.array([[-bound]]), F=np.array([[[1.0]]])),
            block_from_dense(F0=np.array([[0.0]]), F=np.array([[[-1.0]]])),
        ),
    )


def infeasible_problem():
    """x <= -1 and x >= 1 simultaneously."""
    lay = layout(1, 0, "analysis")
    return SdpProblem(
        layout=lay,
        c=np.array([1.0]),
        blocks=(
            block_from_dense(F0=np.array([[1.0]]), F=np.array([[[1.0]]])),
            block_from_dense(F0=np.array([[1.0]]), F=np.array([[[-1.0]]])),
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
        sol = solve(prob)
        assert sol.primal_residual <= sdp.FEAS_TOL
        assert sol.dual_residual <= sdp.FEAS_TOL
        assert sol.duality_gap <= sdp.GAP_TOL

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
        # The internal cap sdp.OBJECTIVE_BOX keeps the run finite and the
        # failure message names it.
        lay = layout(1, 0, "analysis")
        prob = SdpProblem(layout=lay, c=np.array([1.0]),
                          blocks=(block_from_dense(F0=np.array([[0.0]]), F=np.array([[[-1.0]]])),))
        sol = solve(prob)
        assert sol.status in ("NumericalFailure", "IterLimit")
        assert "OBJECTIVE_BOX" in sol.message


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
    floor = block_from_dense(F0=default_delta(s) * np.eye(n), F=Ff)
    Fr = np.zeros((lay.d, 2 * n, 2 * n))
    Fr[:n_p, :n, :n] = -nu ** 2 * E
    Fr[:n_p, n:, n:] = -E
    for r in range(s.m):
        for c in range(n):
            # Y[r, c] is decision entry n_p + r n + c
            BY = np.outer(s.B[:, r], np.eye(n)[c])
            Fr[n_p + r * n + c, :n, n:] = -BY
            Fr[n_p + r * n + c, n:, :n] = -BY.T
    rate = block_from_dense(F0=np.zeros((2 * n, 2 * n)), F=Fr)
    return SdpProblem(layout=lay, c=prob.c, blocks=(prob.blocks[0], floor, rate))


class TestNumericalFailure:
    def test_non_finite_schur_complement(self, monkeypatch):
        # an NT scaling that overflows leaves a non-finite Schur share; the
        # solver must report that, not raise from the factorization
        schur = sdp._Block.schur

        def overflowed(blk, M, add):
            schur(blk, M, add)
            M[:, 0, 0] = np.inf

        monkeypatch.setattr(sdp._Block, "schur", overflowed)
        sol = solve(scalar_problem())
        assert sol.status == "NumericalFailure"
        assert sol.message == "Schur complement not finite"
        assert sol.iters == 1 and sol.history == []

    def test_failed_factorization_ends_the_problem(self, monkeypatch):
        # no retry: the one call that fails ends the solve
        calls = []

        def never(*args, **kwargs):
            calls.append(None)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(sdp, "cho_factor", never)
        sol = solve(assemble(two_state(), 0.3, default_alpha(two_state()), "analysis"))
        assert sol.status == "NumericalFailure"
        assert sol.message == "Schur complement not positive definite"
        assert sol.iters == 1 and len(calls) == 1


# the log-spaced pre-scan of optimize_epsilon over (1e-3, 1)
SHEAR_SCAN = np.geomspace(1e-3, 1.0, 16)


def shear_problem(eps, Re=120.0):
    s = shear_flow_9(Re)
    return assemble(s, eps, default_alpha(s), "analysis")


class TestStall:
    @pytest.mark.parametrize("eps", SHEAR_SCAN[6:8], ids=["0.01585", "0.02512"])
    def test_no_interior_and_no_ray(self, eps):
        # tau collapses at iteration 37 or 34 and no candidate ray appears;
        # without the stall rule the residuals stay frozen until IterLimit
        sol = solve(shear_problem(eps))
        assert sol.status == "NumericalFailure"
        assert sol.message.startswith("stalled: no interior (tau -> 0) and no improving ray")
        assert sol.iters <= 45

    def test_iterates_match_a_solve_without_the_rule(self, monkeypatch):
        prob = shear_problem(SHEAR_SCAN[7])
        sol = solve(prob)
        monkeypatch.setattr(sdp, "STALL_ITERS", sdp.MAX_ITERS + 1)
        full = solve(prob)
        assert full.status == "IterLimit"
        assert sol.history == full.history[:len(sol.history)]
        assert sol.x.tobytes() == full.x.tobytes()

    def test_collapsing_ray_still_certifies(self, monkeypatch):
        # tau collapses at iteration 32 here, and the ray is accepted in the
        # same iteration (a report of None: tau has collapsed)
        prob = shear_problem(SHEAR_SCAN[8])
        collapsed, check = [], sdp._Run.check

        def recording(run, it, ray_q, ray_Z, report):
            collapsed.append(report is None)
            return check(run, it, ray_q, ray_Z, report)

        monkeypatch.setattr(sdp._Run, "check", recording)
        sol = solve(prob)
        assert sol.status == "Infeasible"
        assert sol.iters == 32 and collapsed[-1] and not any(collapsed[:-1])
        _assert_ray_valid(prob, sol.Z)

    def test_stagnant_ray(self):
        # near its infeasibility edge tau collapses at iteration 26, and the
        # candidate ray then hovers at 2e-14 to 2e-13 without being accepted;
        # without the rule the NT scaling overflows, and the Schur complement
        # is not finite at iteration 193
        nu = 3.0 * np.linalg.norm(three_state_qb().A, 2)
        sol = solve(closed_loop_rate_problem(8.109473684210526, nu))
        assert sol.status == "NumericalFailure"
        assert "stalled" in sol.message
        assert sol.iters <= 35


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
        # the ray is normalized to unit total trace, not to <F0, Z> = 1
        assert abs(sum(np.trace(Zb) for Zb in sol.Z) - 1.0) <= 1e-12
        assert sum(float(np.sum(blk.F0 * Zb)) for blk, Zb in zip(prob.blocks, sol.Z)) > 0

    def test_one_acceptance_rule(self):
        # ray_test, the rule the solver applies, accepts the returned ray at
        # any scale and normalizes it back; moving the floor block's Z off
        # the ray breaks <F_k, Z> = 0, and the ray is refused
        prob = assemble(two_state(), eps=1.0, alpha=1e-5, mode="analysis")
        sol = solve(prob)
        user = [_Stack.of([blk]) for blk in prob.blocks]
        Zs, eta, ok = sdp.ray_test(user, [3.0 * Zb[None] for Zb in sol.Z], prob.c[None])
        assert ok[0] and eta[0] <= sdp.FEAS_TOL
        for Z, Zb in zip(Zs, sol.Z):
            np.testing.assert_allclose(Z[0], Zb, rtol=0, atol=1e-15)
        moved = [sol.Z[0][None], (sol.Z[1] + 1e-3 * np.eye(2))[None]]
        _, eta, ok = sdp.ray_test(user, moved, prob.c[None])
        assert not ok[0] and eta[0] > 1e-4


def assert_proven(prob, x):
    """Every block of ``prob`` at x has lambda_max below -tau_b, the rounding
    bound (d + 2 s_b) eps_mach (|F0_b|_F + sum_k |x_k| |F_k,b|_F), with the
    F_k taken dense."""
    for blk, lam in zip(prob.blocks, check_block_feasibility(prob, x, 0.0).lambda_max):
        f_norms = np.linalg.norm(dense_stack(blk), axis=(1, 2))
        tau = ((prob.d + 2 * blk.size) * np.finfo(float).eps
               * (np.linalg.norm(blk.F0) + np.abs(x) @ f_norms))
        assert lam < -tau, (lam, tau)


class TestProof:
    @pytest.mark.parametrize("sys_obj, eps, alpha, mode, limits, shrink", [
        # one iteration short of the strict optimum
        (SCALAR_SYS, 1.0, 0.01, "analysis", {"MAX_ITERS": 7}, 1e-6),
        # two iterations short
        (SCALAR_SYS, 1.0, 0.01, "analysis", {"MAX_ITERS": 6}, 1e-6),
        # the step length collapses at iteration 20; at t = 1 the main block's
        # lambda_max is +1.3e-11 and the floor block's +4.2e-11
        (three_state_qb(), np.linspace(0.01, 14.0, 20)[2], None, "synthesis", {}, 1e-10),
        # stalled, with a duality gap of 3.2e-6: just above eps*, where the
        # spectral ray is too weak to decide the point without a solve
        (shear_flow_9(120.0), SHEAR_SCAN[6], None, "analysis", {}, None),
    ], ids=["cut-at-7", "cut-at-6", "three-state", "stalled"])
    def test_certifies_on_proof(self, monkeypatch, sys_obj, eps, alpha, mode, limits, shrink):
        # max_trace certifies a failed solve exactly when its best iterate,
        # shrunk by one of certify._SHRINKS, makes every block negative
        # beyond its rounding bound; the certificate is that shrunk iterate
        for name, value in limits.items():
            monkeypatch.setattr(sdp, name, value)
        prob = assemble(sys_obj, eps, default_alpha(sys_obj) if alpha is None else alpha, mode)
        sol = solve(prob)
        assert sol.status in ("NumericalFailure", "IterLimit")
        if shrink is None:
            with pytest.raises(SolverFailure, match="stalled"):
                max_trace(sys_obj, eps, alpha, mode)
            return
        cert = max_trace(sys_obj, eps, alpha, mode)
        report = cert.solver_report
        assert (report["status"], report["proof_shrink"]) == (sol.status, shrink)
        assert ((report["primal_residual"], report["dual_residual"], report["duality_gap"],
                 report["iters"])
                == (sol.primal_residual, sol.dual_residual, sol.duality_gap, sol.iters))
        P, Y = prob.layout.unpack(sol.x)
        assert cert.P.tobytes() == ((1.0 - shrink) * P).tobytes()
        if Y is not None:
            assert cert.Y.tobytes() == ((1.0 - shrink) * Y).tobytes()
        assert_proven(prob, prob.layout.pack(cert.P, cert.Y))

    def test_absent_when_strict_tests_pass_first(self):
        # cut at iteration 7 the solve certifies on proof (above); run to its
        # end, it passes the strict tests at iteration 8 and carries no shrink
        sol = solve(assemble(SCALAR_SYS, 1.0, 0.01, "analysis"))
        assert (sol.status, sol.iters) == ("Optimal", 8)
        report = max_trace(SCALAR_SYS, 1.0, 0.01, "analysis").solver_report
        assert (report["status"], report["iters"], report["dual_residual"]) == (
            "Optimal", 8, sol.dual_residual)
        assert "proof_shrink" not in report


class TestBestIterate:
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_residual_is_never_best(self, where):
        # Python's max((1e-9, nan, 1e-9)) is 1e-9: compared by its largest
        # residual, an iterate with a NaN that is not first would become best
        prob = scalar_problem()
        run = sdp._Run(prob)
        Z = [np.zeros_like(blk.F0) for blk in prob.blocks]
        nan_resid = [1e-9, 1e-9, 1e-9]
        nan_resid[where] = np.nan
        reports = [(0.1, (1e-3, 1e-3, 1e-3)), (0.2, tuple(nan_resid)),
                   (0.3, (1e-5, 1e-5, 1e-5)), (0.4, (1e-4, 1e-4, 1e-4))]
        for it, (x, resid) in enumerate(reports):
            assert not run.check(it, np.inf, None, (np.array([x]), Z, resid, x))
        sol = run.solution()
        assert (sol.status, sol.iters) == ("IterLimit", 4)
        assert (sol.x.tolist(), sol.objective) == ([0.3], 0.3)
        assert (sol.primal_residual, sol.dual_residual, sol.duality_gap) == (1e-5, 1e-5, 1e-5)


def _assert_ray_valid(prob, Z):
    # Z >= 0 blockwise, sum <F_k, Z> = 0 per variable, sum <F0, Z> > 0
    for Zb in Z:
        assert np.linalg.eigvalsh((Zb + Zb.T) / 2.0)[0] >= -1e-10
    dense = [dense_stack(blk) for blk in prob.blocks]
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
        prob = assemble(two_state(), eps=0.4, alpha=1e-5, mode="analysis")
        sol = solve(prob)
        primal, dual, gap = kkt_residuals(prob, sol)
        assert abs(primal - sol.primal_residual) <= 10 * sdp.FEAS_TOL
        assert abs(dual - sol.dual_residual) <= 10 * sdp.FEAS_TOL
        assert abs(gap - sol.duality_gap) <= 10 * sdp.GAP_TOL

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
                          blocks=(block_from_dense(F0=-np.eye(2), F=np.zeros((1, 2, 2))),))
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


def stacked_block(blk, gram=None):
    """The solver's block for a lockstep group of one problem with block ``blk``,
    in the Schur form ``gram``, by default the one ``solve_many`` picks, with
    a work array of its own."""
    if gram is None:
        gram = sdp._gram_form(blk.d, blk.size, blk.nnz)
    words = (lmi_words if gram else _w_words)(blk.d, blk.rows.shape[1], blk.size)
    return sdp._Block(_Stack.of([blk]), gram, np.empty(words))


class TestSchurForms:
    def test_form_follows_size_and_sparsity(self):
        def gram(sys_obj):
            prob = assemble(sys_obj, 0.3, 1e-6, "analysis")
            return [sdp._gram_form(prob.d, blk.size, blk.nnz) for blk in prob.blocks]

        assert gram(two_state()) == [True, True]  # small: Gram form
        # main block above GRAM_MAX but a quarter full: Gram; sparse floor block: W
        assert gram(dense_system(15)) == [True, False]
        assert gram(stack(two_state(), 10)) == [False, False]  # large and sparse: W

    def test_gram_block_keeps_no_dense_stack(self):
        # U has d s(s+1)/2 entries and the work array of the Gram rows one
        # congruence chunk; a dense copy of F would add d s^2 more.  The
        # block's data, row-compressed, and the index of its nonzeros (three
        # words per nonzero) belong to its ``_Stack``, built apart
        lmi = assemble(dense_system(15), 0.3, 1e-6, "analysis").blocks[0]
        d, s = lmi.d, lmi.size
        G = np.linalg.qr(np.random.default_rng(5).standard_normal((s, s)))[0]
        stack = _Stack.of([lmi])
        tracemalloc.start()
        try:
            work = np.empty(lmi_words(d, lmi.rows.shape[1], s))
            blk = sdp._Block(stack, sdp._gram_form(d, s, lmi.nnz), work)
            blk.set_scaling(G[None], np.ones((1, s)))
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert blk.U is not None and blk.work is work
        assert retained - work.nbytes < d * s * s * 8

    @pytest.mark.parametrize("sys_obj", [stack(two_state(), 5), dense_system(6)],
                             ids=["stacked", "dense"])
    def test_forms_agree(self, sys_obj):
        rng = np.random.default_rng(3)
        for lmi in assemble(sys_obj, 0.3, 1e-6, "analysis").blocks:
            s = lmi.size
            G = np.linalg.qr(rng.standard_normal((s, s)))[0] * rng.uniform(0.5, 2.0, s)
            R = rng.standard_normal((s, s))
            R = R + R.T
            out, forms = [], []
            # the entries both forms write: the W form writes the lower triangle
            lower = np.tri(lmi.d, dtype=bool)
            for gram in (True, False):
                blk = stacked_block(lmi, gram)
                blk.set_scaling(G[None], np.ones((1, s)))
                M = np.full((1, lmi.d, lmi.d), np.nan)
                blk.schur(M, False)
                out.append([M[0][lower]] + [a[0] for a in (*blk.pull_back(blk.Chat),
                                                           *blk.pull_back(R[None]))])
                forms.append("gram" if blk.U is not None else "W")
            assert forms == ["gram", "W"]
            for gram_side, w_side in zip(*out):
                np.testing.assert_allclose(w_side, gram_side, rtol=1e-12,
                                           atol=1e-12 * np.max(np.abs(gram_side)))


def assert_same_solution(a, b):
    """Bitwise equality of two SdpSolutions."""
    assert (a.status, a.iters, a.message, a.history) == (b.status, b.iters, b.message, b.history)
    assert np.float64(a.objective).tobytes() == np.float64(b.objective).tobytes()
    assert ((a.primal_residual, a.dual_residual, a.duality_gap)
            == (b.primal_residual, b.dual_residual, b.duality_gap))
    assert np.asarray(a.x).tobytes() == np.asarray(b.x).tobytes()
    assert [np.asarray(Z).tobytes() for Z in a.Z] == [np.asarray(Z).tobytes() for Z in b.Z]


def two_state_problems(eps=(0.1, 0.3, 0.5, 1.0)):
    s = two_state()
    return [assemble(s, e, default_alpha(s), "analysis") for e in eps]


def lockstep_sets():
    # two-state: Optimal points and one Infeasible (eps = 1), also stacked ten
    # times, where both blocks take the W form; three-state synthesis: Optimal
    # points and eps = 1.483, which ends NumericalFailure; shear flow: Optimal
    # points, the two stalled points and Infeasible points
    s3, s10 = three_state_qb(), stack(two_state(), 10)
    return [("two-state", two_state_problems()),
            ("stacked", [assemble(s10, e, default_alpha(s10), "analysis") for e in (0.3, 1.0)]),
            ("three-state", [assemble(s3, e, default_alpha(s3), "synthesis")
                             for e in np.linspace(0.01, 14.0, 20)[:4]]),
            ("shear", [shear_problem(e) for e in SHEAR_SCAN[[2, 5, 6, 7, 8, 12]]])]


class TestSolveMany:
    @pytest.mark.parametrize("name, problems", lockstep_sets(),
                             ids=[name for name, _ in lockstep_sets()])
    def test_each_solution_is_its_own_solve(self, name, problems):
        alone = [sdp.solve_many([p])[0] for p in problems]
        statuses = {sol.status for sol in alone}
        assert len(statuses) >= 2
        for order in (range(len(problems)), range(len(problems))[::-1]):
            for sol, i in zip(sdp.solve_many([problems[i] for i in order]), order):
                assert_same_solution(sol, alone[i])
        if name == "three-state":
            assert alone[2].status == "NumericalFailure"
        if name == "shear":
            assert [sol.message.startswith("stalled") for sol in alone[2:4]] == [True, True]
            assert {sol.status for sol in alone[4:]} == {"Infeasible"}

    def test_solve_is_the_single_problem_case(self):
        p = two_state_problems()[1]
        assert_same_solution(solve(p), sdp.solve_many([p])[0])
        assert sdp.solve_many([]) == []

    def test_shapes_must_agree(self):
        two, three = two_state(), three_state_qb()
        with pytest.raises(ValueError, match="one shape"):
            sdp.solve_many([assemble(two, 0.3, 0.0, "analysis"),
                            assemble(three, 0.3, 0.0, "analysis")])
        # same d and block sizes, another sparsity pattern: x_a x_p in row a
        # only for (a, p) = (0, 1), (1, 2), (2, 0) fixes every sign, so all
        # six svec slots stay, and no F_k reaches past rows i, j, n + i, n + j
        H = np.zeros((3, 9))
        H[[0, 1, 2], [3, 7, 2]] = 1.0
        diagonal = QBSystem(A=-np.eye(3), H=H)
        a, b = assemble(three, 0.3, 0.0, "analysis"), assemble(diagonal, 0.3, 0.0, "analysis")
        assert [x.size for x in a.blocks] == [x.size for x in b.blocks] and a.d == b.d
        assert not all(np.array_equal(x.rows, y.rows) for x, y in zip(a.blocks, b.blocks))
        with pytest.raises(ValueError, match="one shape"):
            sdp.solve_many([a, b])

    def test_groups_follow_the_byte_budget(self, monkeypatch):
        problems = two_state_problems()
        alone = [solve(p) for p in problems]
        sizes = []
        group = sdp._Group

        def recording(members, forms):
            sizes.append(len(members))
            return group(members, forms)

        monkeypatch.setattr(sdp, "_Group", recording)
        monkeypatch.setattr(sdp, "GROUP_BYTES", 1)
        for sol, ref in zip(sdp.solve_many(problems), alone):
            assert_same_solution(sol, ref)
        assert sizes == [1, 1, 1, 1]
        sizes.clear()
        monkeypatch.setattr(sdp, "GROUP_BYTES", 1 << 26)
        sdp.solve_many(problems)
        assert sizes == [4]

    def test_w_form_group_with_early_leavers(self, monkeypatch):
        # stacked ten times, both blocks take the W form and each problem
        # runs alone within GROUP_BYTES; with a larger budget the three run
        # as one group, which the Optimal points leave at iterations 11 and
        # 12 and the Infeasible one at 16
        s10 = stack(two_state(), 10)
        problems = [assemble(s10, e, default_alpha(s10), "analysis") for e in (0.3, 0.6, 1.0)]
        assert [stacked_block(blk).U for blk in problems[0].blocks] == [None, None]
        alone = [solve(p) for p in problems]
        assert [(sol.status, sol.iters) for sol in alone] == [
            ("Optimal", 11), ("Optimal", 12), ("Infeasible", 16)]
        sizes = []
        group = sdp._Group

        def recording(members, forms):
            sizes.append(len(members))
            return group(members, forms)

        monkeypatch.setattr(sdp, "_Group", recording)
        monkeypatch.setattr(sdp, "GROUP_BYTES", 1 << 30)
        for sol, ref in zip(sdp.solve_many(problems), alone):
            assert_same_solution(sol, ref)
        assert sizes == [3]

    def test_mixed_form_group(self, monkeypatch):
        # stacked six times (d = 78), the main block (s = 24) takes the W form
        # and the floor block (s = 12) the Gram form, so the one work array
        # of their group serves a Gram block's rows, a W block's share and
        # the cap's chunks; the Infeasible point leaves the group at
        # iteration 16.  Each solution is its own solve's, and the traced
        # peak stays within what ``_group_words`` counts for the three
        s6 = stack(two_state(), 6)
        problems = [assemble(s6, e, default_alpha(s6), "analysis") for e in (0.3, 0.6, 1.0)]
        first = problems[0]
        forms = tuple(sdp._gram_form(first.d, blk.size, blk.nnz) for blk in first.blocks)
        assert first.d == 78 and [blk.size for blk in first.blocks] == [24, 12]
        assert forms == (False, True)
        alone = [solve(p) for p in problems]
        assert (alone[2].status, alone[2].iters) == ("Infeasible", 16)
        assert all(sol.iters < 16 for sol in alone[:2])
        sizes, group = [], sdp._Group

        def recording(members, forms):
            sizes.append(len(members))
            return group(members, forms)

        monkeypatch.setattr(sdp, "_Group", recording)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            together = sdp.solve_many(problems)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sizes == [3]
        for sol, ref in zip(together, alone):
            assert_same_solution(sol, ref)
        assert peak <= 8 * 3 * sdp._group_words(first, forms)

    def test_group_keeps_to_its_byte_budget(self, monkeypatch):
        # the 16 problems of the pre-scan grid of the shear flow with its sign
        # symmetry broken (d = 45; the symmetric flow's d = 15 problems fit in
        # one group), solved directly, run as two groups of 8.  Their traced
        # peak stays within what ``_group_words`` counts for 8 problems, and
        # forming the NT quantities and the Gram rows allocates far less than
        # one B d s^2 array (0.93 MB here for the main block) per iteration
        s = asymmetric_shear_flow(120.0)
        problems = [assemble(s, e, default_alpha(s), "analysis") for e in SHEAR_SCAN]
        sizes, peak, transient = [], [0], [0]
        group, set_scaling = sdp._Group, sdp._Block.set_scaling

        def recording(members, forms):
            sizes.append(len(members))
            return group(members, forms)

        def traced(blk, G, lam):
            # the peak so far; then the peak of this call alone
            peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            set_scaling(blk, G, lam)
            transient[0] = max(transient[0], tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(sdp, "_Group", recording)
        monkeypatch.setattr(sdp._Block, "set_scaling", traced)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sdp.solve_many(problems)
            peak[0] = max(peak[0], tracemalloc.get_traced_memory()[1]) - base
        finally:
            tracemalloc.stop()
        assert sizes == [8, 8]
        first = problems[0]
        forms = tuple(sdp._gram_form(first.d, blk.size, blk.nnz) for blk in first.blocks)
        assert forms == (True, True)
        assert peak[0] <= 8 * 8 * sdp._group_words(first, forms) <= sdp.GROUP_BYTES
        d, s = first.d, first.blocks[0].size
        assert transient[0] < 8 * d * s * s * 8 / 2


class TestObjectiveCap:
    def test_cap_rounds_as_a_one_by_one_block(self):
        # the scalar arithmetic of ``_Cap`` against the same 1-by-1 block
        # through ``_Block``, ``_Stack`` and numpy.linalg, bit for bit
        rng = np.random.default_rng(11)
        B, d = 5, 45
        f = rng.standard_normal((B, d)) * (rng.random((B, d)) < 0.3)
        c = rng.uniform(0.5, 2.0, B)
        cap = sdp._Cap(f, c, np.empty(B * sdp._cap_words(d)))
        cap.x, cap.s = 10.0 ** rng.uniform(-4, 4, B), 10.0 ** rng.uniform(-4, 4, B)
        assert cap.set_scaling() == {}
        blk = sdp._Block(_Stack(-c[:, None, None], np.zeros((d, 1), dtype=np.intp),
                                f.reshape(B, d, 1, 1)), True, np.empty(B * lmi_words(d, 1, 1)))
        blk.X, blk.S = cap.x[:, None, None].copy(), cap.s[:, None, None].copy()
        Lx, Ls = np.linalg.cholesky(blk.X), np.linalg.cholesky(blk.S)
        _, sv, Vt = np.linalg.svd(Ls.mT @ Lx)
        blk.set_scaling(Lx @ (Vt.mT / np.sqrt(sv)[:, None, :]), sv)

        def same(a, b):
            return np.asarray(a).tobytes() == np.asarray(b).tobytes()

        assert same(sv[:, 0], cap.lam) and same(blk.lam_avg[:, 0, 0], cap.lam)
        assert same(blk.G[:, 0, 0], cap.g) and same(blk.lam_isqrt[:, 0, 0], cap.lam_isqrt)
        assert same(blk.neg_lam2[:, 0, 0], cap.neg_lam2) and same(blk.Chat[:, 0, 0], cap.chat)
        assert same(blk.U[..., 0], cap.u)
        # BLAS sums start from 0.0, so a product -0.0 comes out +0.0 there;
        # the solver adds the cap's products to sums that are never -0.0.  At
        # this d the cap's share is one chunk, all of u u'
        M = np.empty((B, d, d))
        blk.schur(M, False)
        M_cap = np.zeros((B, d, d))
        cap.schur(M_cap)
        assert same(M, cap.u[:, :, None] * cap.u[:, None, :] + 0.0) and same(M, M_cap)
        g, q = blk.pull_back(blk.Chat)
        assert same(g, cap.u * cap.chat[:, None] + 0.0) and same(q, cap.chat * cap.chat)
        R = rng.standard_normal(B)
        a, r = blk.pull_back(R[:, None, None])
        assert same(a, cap.u * R[:, None] + 0.0) and same(r, cap.chat * R)
        y = rng.standard_normal((B, d))
        assert same(blk.lmi.linear(y)[:, 0, 0], cap.linear(y))
        assert same(blk.lmi.adjoint(blk.X), cap.f * cap.x[:, None])


def stacked_problems(eps=(0.3, 0.6, 1.0)):
    """Stacked two-state problems at n = 20 (d = 210), both blocks in the W form."""
    s = stack(two_state(), 10)
    return [assemble(s, e, default_alpha(s), "analysis") for e in eps]


class TestSchurInPlace:
    """Each lockstep group forms its Schur complements in one array, reads
    only their lower triangles and factors them in place."""

    @pytest.mark.parametrize("make", [
        lambda: two_state_problems(np.linspace(0.01, 0.8, 20)), stacked_problems,
    ], ids=["gram", "W"])
    def test_strict_upper_triangle_is_never_read(self, make, monkeypatch):
        problems = make()
        reference = sdp.solve_many(problems)
        real, seen = sdp.cho_factor, []

        def nan_above(a):
            seen.append(a.flags.f_contiguous)
            a[np.triu_indices(len(a), 1)] = np.nan
            return real(a)

        monkeypatch.setattr(sdp, "cho_factor", nan_above)
        for sol, ref in zip(sdp.solve_many(problems), reference):
            assert_same_solution(sol, ref)
        # every argument is factored in place
        assert seen and all(seen)

    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "upper"])
    def test_non_finite_entry_in_a_later_chunk(self, lower, monkeypatch):
        # with chunks of 5 columns, an inf below the diagonal in a chunk past
        # the first ends the solve, and one above it, in the chunk's rows, is
        # never read
        prob = stacked_problems((0.3,))[0]
        d = prob.d
        reference = solve(prob)
        monkeypatch.setattr(lmi, "_CHUNK", 5 * d)
        assert_same_solution(solve(prob), reference)
        k, l = (d - 1, 97) if lower else (96, 97)
        schur = sdp._Block.schur

        def overflowed(blk, M, add):
            schur(blk, M, add)
            if add:
                M[:, k, l] = np.inf

        monkeypatch.setattr(sdp._Block, "schur", overflowed)
        sol = solve(prob)
        if lower:
            assert sol.status == "NumericalFailure" and sol.iters == 1
            assert sol.message == "Schur complement not finite"
        else:
            assert_same_solution(sol, reference)

    @pytest.mark.parametrize("chunk", [None, 7 * 50], ids=["one-chunk", "chunks-of-7"])
    def test_cap_share_matches_the_row_major_chunks(self, chunk, monkeypatch):
        # the cap forms each chunk of u u' as a column-major M holds it, (B,
        # step, d - lo); its sum with M is bitwise that of the (B, d - lo,
        # step) chunks, since u_l u_k is u_k u_l exactly
        if chunk is not None:
            monkeypatch.setattr(lmi, "_CHUNK", chunk)
        rng = np.random.default_rng(31)
        B, d = 3, 50
        cap = sdp._Cap(rng.standard_normal((B, d)), rng.uniform(0.5, 2.0, B),
                       np.empty(B * sdp._cap_words(d)))
        cap.x, cap.s = 10.0 ** rng.uniform(-4, 4, B), 10.0 ** rng.uniform(-4, 4, B)
        assert cap.set_scaling() == {}
        assert cap.step == (d if chunk is None else 7)
        A = rng.standard_normal((B, d, d))
        M = A.transpose(0, 2, 1).copy().transpose(0, 2, 1)
        cap.schur(M)
        ref, u = A.copy(), cap.u
        for lo in range(0, d, cap.step):
            ref[:, lo:, lo:lo + cap.step] += u[:, lo:, None] * u[:, None, lo:lo + cap.step]
        assert np.ascontiguousarray(M).tobytes() == ref.tobytes()

    def test_w_form_step_allocates_less_than_a_schur_complement(self):
        # the Schur complement, the work array of the W-form shares and the
        # cap's chunks belong to the group; a step allocates none of them
        prob = stacked_problems((0.3,))[0]
        forms = tuple(sdp._gram_form(prob.d, blk.size, blk.nnz) for blk in prob.blocks)
        assert forms == (False, False)
        group = sdp._Group([prob], forms)
        # after a first step, so that nothing made once per solve is counted
        group.check(0)
        assert group.step() == {}
        group.check(1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert group.step() == {}
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < prob.d * prob.d * 8

    def test_w_form_group_keeps_to_its_byte_budget(self, monkeypatch):
        # three stacked n = 20 problems under a budget of two: groups of 2 and
        # 1, whose traced peak stays within what ``_group_words`` counts
        problems = stacked_problems()
        first = problems[0]
        forms = tuple(sdp._gram_form(first.d, blk.size, blk.nnz) for blk in first.blocks)
        words = sdp._group_words(first, forms)
        sizes, group = [], sdp._Group

        def recording(members, forms):
            sizes.append(len(members))
            return group(members, forms)

        monkeypatch.setattr(sdp, "_Group", recording)
        monkeypatch.setattr(sdp, "GROUP_BYTES", 2 * 8 * words)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sdp.solve_many(problems)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert sizes == [2, 1]
        assert peak <= 2 * 8 * words


class TestFailureIsolation:
    """A breakdown in one problem of a lockstep group ends that problem alone."""

    def recorded_input(self, fn_name, owner, problem, call):
        """The argument of the ``call``-th call of owner.fn_name in a solve of ``problem``."""
        seen = []
        real = getattr(owner, fn_name)

        def recording(a, *args, **kwargs):
            seen.append(np.array(a, copy=True))
            return real(a, *args, **kwargs)

        setattr(owner, fn_name, recording)
        try:
            solve(problem)
        finally:
            setattr(owner, fn_name, real)
        return seen[call - 1]

    def test_schur_factorization_fails_for_one_problem(self, monkeypatch):
        problems = two_state_problems((0.1, 0.2, 0.3, 0.4))
        reference = [solve(p) for p in problems]
        # the Schur complement of problem 1 at iteration 3
        target = self.recorded_input("cho_factor", sdp, problems[1], 3)
        real = sdp.cho_factor

        def failing(a, *args, **kwargs):
            if np.allclose(a, target, rtol=1e-9, atol=0.0):
                raise np.linalg.LinAlgError("not positive definite")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(sdp, "cho_factor", failing)
        alone = solve(problems[1])
        assert alone.status == "NumericalFailure" and alone.iters == 3
        assert alone.message == "Schur complement not positive definite"
        sols = sdp.solve_many(problems)
        assert_same_solution(sols[1], alone)
        for i in (0, 2, 3):
            assert_same_solution(sols[i], reference[i])

    def test_nt_cholesky_fails_for_one_slice(self, monkeypatch):
        self.cholesky_fails(monkeypatch, 0)

    def test_nt_cholesky_of_s_fails_for_one_slice(self, monkeypatch):
        # X and S are factored in one call, whose slices are X then S
        self.cholesky_fails(monkeypatch, 1)

    def cholesky_fails(self, monkeypatch, factor):
        problems = two_state_problems((0.1, 0.2, 0.3, 0.4))
        reference = [solve(p) for p in problems]
        # X (factor 0) or S of the main block of problem 2 at iteration 4: one
        # call for X and S per block and two blocks per iteration (the
        # objective cap takes none)
        target = self.recorded_input("cholesky", np.linalg, problems[2], 3 * 2 + 1)[factor]
        real = np.linalg.cholesky

        def failing(A):
            if any(np.array_equal(Ai, target) for Ai in A.reshape(-1, *A.shape[-2:])):
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real(A)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        alone = solve(problems[2])
        assert alone.status == "NumericalFailure" and alone.iters == 4
        assert alone.message == "NT scaling failed: Matrix is not positive definite"
        sols = sdp.solve_many(problems)
        assert_same_solution(sols[2], alone)
        for i in (0, 1, 3):
            assert_same_solution(sols[i], reference[i])

    def test_degenerate_nt_scaling_for_one_slice(self, monkeypatch):
        problems = two_state_problems((0.1, 0.2, 0.3, 0.4))
        reference = [solve(p) for p in problems]
        # Ls'Lx of the main block of problem 2 at iteration 4: two blocks per
        # iteration (the objective cap takes none)
        target = self.recorded_input("svd", np.linalg, problems[2], 3 * 2 + 1)[0]
        real = np.linalg.svd

        def degenerate(A, *args, **kwargs):
            U, sv, Vt = real(A, *args, **kwargs)
            sv = sv.copy()
            sv[[np.array_equal(Ai, target) for Ai in A], -1] = 0.0
            return U, sv, Vt

        monkeypatch.setattr(np.linalg, "svd", degenerate)
        alone = solve(problems[2])
        assert alone.status == "NumericalFailure" and alone.iters == 4
        assert alone.message == "NT scaling failed: degenerate NT scaling"
        sols = sdp.solve_many(problems)
        assert_same_solution(sols[2], alone)
        for i in (0, 1, 3):
            assert_same_solution(sols[i], reference[i])

    def test_singular_reduced_system_for_one_problem(self, monkeypatch):
        problems = two_state_problems((0.1, 0.2, 0.3, 0.4))
        reference = [solve(p) for p in problems]
        # the Schur complement of problem 1 at iteration 3, given a NaN factor
        target = self.recorded_input("cho_factor", sdp, problems[1], 3)
        real = sdp.cho_factor

        def nan_factor(a, *args, **kwargs):
            # compared before the factorization overwrites a
            hit = np.array_equal(a, target)
            c, lower = real(a, *args, **kwargs)
            return (np.full_like(c, np.nan), lower) if hit else (c, lower)

        monkeypatch.setattr(sdp, "cho_factor", nan_factor)
        alone = solve(problems[1])
        assert alone.status == "NumericalFailure" and alone.iters == 3
        assert alone.message == "singular reduced system (predictor)"
        sols = sdp.solve_many(problems)
        assert_same_solution(sols[1], alone)
        for i in (0, 2, 3):
            assert_same_solution(sols[i], reference[i])

    def test_batched_failure_that_no_slice_repeats_propagates(self, monkeypatch):
        problems = two_state_problems((0.1, 0.2, 0.3, 0.4))
        target = self.recorded_input("cholesky", np.linalg, problems[2], 3 * 2 + 1)[0]
        real = np.linalg.cholesky

        def failing_batched(A):
            if A.ndim == 3 and any(np.array_equal(Ai, target) for Ai in A):
                raise np.linalg.LinAlgError("batched call failed")
            return real(A)

        monkeypatch.setattr(np.linalg, "cholesky", failing_batched)
        for group in ([problems[2]], problems):
            with pytest.raises(np.linalg.LinAlgError, match="batched call failed"):
                sdp.solve_many(group)

    def test_tau_kappa_leave_the_cone_for_one_problem(self, monkeypatch):
        # with STEP_FRACTION < 1 the step length keeps tau and kappa inside the
        # cone; past the boundary the infeasible point eps = 1 leaves it at
        # once, and the others take indefinite steps
        monkeypatch.setattr(sdp, "STEP_FRACTION", 1.2)
        problems = two_state_problems()
        reference = [solve(p) for p in problems]
        assert reference[3].status == "NumericalFailure" and reference[3].iters == 1
        assert reference[3].message == "tau/kappa left the cone"
        for i in (0, 1, 2):
            assert reference[i].message.startswith("NT scaling failed")
        for sol, ref in zip(sdp.solve_many(problems), reference):
            assert_same_solution(sol, ref)


def ruiz_reference(user):
    """``sdp._ruiz_scale`` as it was, taking max |F0| and max |V| of the
    scaled data again in every sweep."""
    gamma = np.ones(user[0].vals.shape[:2])
    beta = np.ones((len(gamma), len(user)))
    F0s = [blk.F0.copy() for blk in user]
    vals = [blk.vals.copy() for blk in user]
    for _ in range(sdp.RUIZ_SWEEPS):
        r = np.zeros(gamma.shape)
        for V in vals:
            r = np.maximum(r, np.abs(V).max(axis=(2, 3)))
        g = 1.0 / np.sqrt(np.where(r > 0, r, 1.0))
        for V in vals:
            V *= g[:, :, None, None]
        gamma *= g
        for b, (F0, V) in enumerate(zip(F0s, vals)):
            s = np.maximum(np.abs(F0).max(axis=(1, 2)), np.abs(V).max(axis=(1, 2, 3)))
            sb = np.where(s > 0, 1.0 / np.sqrt(np.where(s > 0, s, 1.0)), 1.0)
            F0 *= sb[:, None, None]
            V *= sb[:, None, None, None]
            beta[:, b] *= sb
    return F0s, vals, gamma, beta


class TestRuizScale:
    """Ruiz scaling reads max |F0| and max |V| once and scales them with the
    data, bitwise what reading them again in every sweep gives."""

    @staticmethod
    def assert_matches_reference(user):
        scaled, gamma, beta = sdp._ruiz_scale(user)
        F0s, vals, gamma_ref, beta_ref = ruiz_reference(user)
        assert gamma.tobytes() == gamma_ref.tobytes() and beta.tobytes() == beta_ref.tobytes()
        for stk, F0, V in zip(scaled, F0s, vals):
            assert stk.F0.tobytes() == F0.tobytes() and stk.vals.tobytes() == V.tobytes()

    @pytest.mark.parametrize("prob", [
        assemble(two_state(), 0.3, default_alpha(two_state()), "analysis"),
        assemble(three_state_qb(), 1.0, default_alpha(three_state_qb()), "synthesis"),
        shear_problem(0.0035),
        assemble(stack(two_state(), 10), 0.3, default_alpha(stack(two_state(), 10)), "analysis"),
        assemble(dense_system(15), 0.3, 1e-6, "analysis"),
    ], ids=["two-state", "three-state", "shear", "stacked", "dense"])
    def test_problems(self, prob):
        # three problems whose blocks differ by factors of 1e-3 to 1e5
        self.assert_matches_reference([
            _Stack(np.stack([f * blk.F0 for f in (1.0, 1e-3, 1e5)]), blk.rows,
                   np.stack([f * blk.vals for f in (1.0, 1e-3, 1e5)]))
            for blk in prob.blocks])

    def test_extreme_magnitudes(self):
        # entries from 1e-300 to 1e300, zero rows and a zero block
        rng = np.random.default_rng(17)
        B, d, r = 4, 30, 3
        user = []
        for s in (5, 2, 1):
            vals = rng.standard_normal((B, d, r, s)) * 10.0 ** rng.integers(-300, 300, (B, d, r, s))
            vals[:, rng.random(d) < 0.2] = 0.0
            F0 = rng.standard_normal((B, s, s)) * 10.0 ** rng.integers(-300, 300, (B, 1, 1))
            user.append(_Stack(F0, np.tile(np.arange(r) % s, (d, 1)), vals))
        user[2] = _Stack(np.zeros((B, 1, 1)), user[2].rows, np.zeros_like(user[2].vals))
        self.assert_matches_reference(user)


class TestExactSymmetry:
    """The iterates are exactly symmetric (module docstring), so the solver
    does not symmetrize them."""

    @pytest.mark.parametrize("prob", [
        assemble(two_state(), 0.3, default_alpha(two_state()), "analysis"),
        assemble(three_state_qb(), 1.0, default_alpha(three_state_qb()), "synthesis"),
        shear_problem(0.0035),
        assemble(stack(two_state(), 10), 0.3, default_alpha(stack(two_state(), 10)), "analysis"),
        assemble(dense_system(15), 0.3, 1e-6, "analysis"),
    ], ids=["two-state", "three-state", "shear", "stacked", "dense"])
    def test_linear_is_exactly_symmetric(self, prob):
        rng = np.random.default_rng(7)
        user = [_Stack.of([blk] * 3) for blk in prob.blocks]
        scaled = sdp._ruiz_scale(user)[0]
        for stk in user + scaled:
            x = rng.standard_normal((3, prob.d)) * 10.0 ** rng.integers(-8, 8, (3, prob.d))
            M = stk.linear(x)
            assert np.array_equal(M, M.mT)
            assert np.array_equal(stk.F0, stk.F0.mT)

    @pytest.mark.parametrize("name, problems", lockstep_sets(),
                             ids=[name for name, _ in lockstep_sets()])
    def test_returned_duals_are_exactly_symmetric(self, name, problems):
        sols = sdp.solve_many(problems)
        for sol in sols:
            for Zb in sol.Z:
                assert np.array_equal(Zb, Zb.T)
        expected = {"two-state": {"Optimal", "Infeasible"}, "stacked": {"Optimal", "Infeasible"},
                    "three-state": {"Optimal", "NumericalFailure"},
                    "shear": {"Optimal", "NumericalFailure", "Infeasible"}}
        assert {sol.status for sol in sols} == expected[name]
