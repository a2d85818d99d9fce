import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbstab.errors import DimensionError, NotPositiveDefiniteError
from qbstab import lmi
from qbstab.lmi import (
    LmiBlock,
    SdpProblem,
    assemble,
    default_delta,
    default_mu,
    delta_norm,
    layout,
    petersen_parts,
    svec,
    svec_basis,
    unsvec,
)
from qbstab.models import (
    scalar_family,
    shear_flow_9,
    shear_flow_data_available,
    three_state_qb,
    two_state,
)
from qbstab.systems import QBSystem, stack, symmetrize_quadratic


def rand_spd(rng, n):
    M = rng.normal(size=(n, n))
    return M @ M.T + n * np.eye(n)


def rand_system(rng, n, m=0):
    A = rng.normal(size=(n, n))
    H = symmetrize_quadratic(rng.normal(size=(n, n * n)), n)
    if m == 0:
        return QBSystem(A=A, H=H)
    B = rng.normal(size=(n, m))
    D = tuple(rng.normal(size=(n, n)) for _ in range(m))
    return QBSystem(A=A, H=H, B=B, D=D)


class TestLayout:
    @pytest.mark.parametrize("n,m,mode,d", [
        (2, 0, "analysis", 3),
        (3, 2, "synthesis", 12),
        (9, 0, "analysis", 45),
    ])
    def test_sizes(self, n, m, mode, d):
        lay = layout(n, m, mode)
        assert lay.d == d

    def test_layout_rule(self):
        # trace(P) sits at the svec diagonal slots, Y[r, c] at n_p + r n + c
        n, m = 3, 2
        lay = layout(n, m, "synthesis")
        n_p = n * (n + 1) // 2
        c = lay.trace_objective()
        assert set(np.flatnonzero(c)) == set(np.flatnonzero(svec(np.eye(n))))
        assert np.all(c[np.flatnonzero(c)] == 1.0)
        x = lay.pack(np.zeros((n, n)), np.arange(1.0, m * n + 1).reshape(m, n))
        for r in range(m):
            for col in range(n):
                assert x[n_p + r * n + col] == r * n + col + 1
        assert not np.any(x[:n_p])

    def test_synthesis_needs_input(self):
        with pytest.raises(DimensionError):
            layout(3, 0, "synthesis")

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(0)
        lay = layout(4, 2, "synthesis")
        P = rand_spd(rng, 4)
        Y = rng.normal(size=(2, 4))
        x = lay.pack(P, Y)
        P2, Y2 = lay.unpack(x)
        np.testing.assert_allclose(P2, P, rtol=1e-15)
        np.testing.assert_allclose(Y2, Y, rtol=1e-15)


class TestSvec:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2 ** 31 - 1))
    @example(n=7, seed=430)  # the sides differ by 1.28e-14 through cancellation
    def test_isometry(self, n, seed):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(n, n))
        S = S + S.T
        T = rng.normal(size=(n, n))
        T = T + T.T
        # Each side is a sum of terms whose absolute values add up to
        # sum |svec(S)_i svec(T)_i|, so each is within gamma_m times that sum
        # of the exact value, for its m terms (Higham, Accuracy and Stability
        # of Numerical Algorithms, 2002, eq. 3.5): m = n(n+1)/2 plus three
        # roundings of the sqrt(2) scalings on the left, m = n^2 on the right.
        terms = svec(S) * svec(T)
        bound = (terms.size + 3 + n * n) * (np.finfo(float).eps / 2) * np.sum(np.abs(terms))
        assert svec(S) @ svec(T) == pytest.approx(np.sum(S * T), rel=0, abs=bound)

    def test_unsvec_inverse(self):
        rng = np.random.default_rng(1)
        S = rng.normal(size=(5, 5))
        S = S + S.T
        np.testing.assert_allclose(unsvec(svec(S), 5), S, rtol=1e-15)

    def test_basis_reconstructs(self):
        rng = np.random.default_rng(2)
        S = rng.normal(size=(3, 3))
        S = S + S.T
        E = svec_basis(3)
        np.testing.assert_allclose(np.einsum("k,kij->ij", svec(S), E), S, rtol=1e-15)


class TestAssemble:
    def test_scalar_block_at_unit_p(self):
        s = scalar_family(-1.0, 1.0)
        prob = assemble(s, eps=1.0, alpha=0.0, mode="analysis")
        main = prob.blocks[0].evaluate(np.array([1.0]))
        np.testing.assert_allclose(main, [[-1.0, 1.0], [1.0, -1.0]], atol=1e-15)
        np.testing.assert_allclose(np.linalg.eigvalsh(main), [-2.0, 0.0], atol=1e-12)

    def test_zero_h_reduces_to_lyapunov(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(2, 2))
        s = QBSystem(A=A, H=np.zeros((2, 4)))
        alpha = 0.37
        prob = assemble(s, eps=0.9, alpha=alpha, mode="analysis")
        P = rand_spd(rng, 2)
        x = prob.layout.pack(P)
        main = prob.blocks[0].evaluate(x)
        np.testing.assert_allclose(main[:2, :2], A @ P + P @ A.T + alpha * P, rtol=1e-13)
        np.testing.assert_allclose(main[:2, 2:], P, rtol=1e-13)
        np.testing.assert_allclose(main[2:, 2:], -0.9 * np.eye(2), rtol=1e-15)

    def test_rejects_nonpositive_eps(self):
        # and a non-finite eps or alpha
        for eps, alpha in ((0.0, 0.0), (np.nan, 0.0), (np.inf, 0.0), (0.4, np.nan), (0.4, np.inf)):
            with pytest.raises(ValueError):
                assemble(two_state(), eps=eps, alpha=alpha, mode="analysis")

    def test_floor_block(self):
        prob = assemble(two_state(), eps=0.4, alpha=0.0, mode="analysis")
        assert len(prob.blocks) == 2
        rng = np.random.default_rng(0)
        P = rand_spd(rng, 2)
        floor = prob.blocks[1].evaluate(prob.layout.pack(P))
        delta = floor[0, 0] + P[0, 0]
        np.testing.assert_allclose(floor, delta * np.eye(2) - P, atol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.floats(min_value=0.0, max_value=1.0))
    def test_affinity(self, seed, theta):
        rng = np.random.default_rng(seed)
        s = rand_system(rng, 3, m=1)
        prob = assemble(s, eps=0.5, alpha=0.1, mode="synthesis")
        x1 = rng.normal(size=prob.d)
        x2 = rng.normal(size=prob.d)
        for blk in prob.blocks:
            lhs = blk.evaluate(theta * x1 + (1 - theta) * x2)
            rhs = theta * blk.evaluate(x1) + (1 - theta) * blk.evaluate(x2)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_synthesis_degenerates_to_analysis(self):
        # B = 0, D = 0, Y = 0: main block equals the analysis block padded by -eps I
        rng = np.random.default_rng(9)
        n, m = 3, 1
        A = rng.normal(size=(n, n))
        H = symmetrize_quadratic(rng.normal(size=(n, n * n)), n)
        sz = QBSystem(A=A, H=H, B=np.zeros((n, m)), D=(np.zeros((n, n)),))
        sa = QBSystem(A=A, H=H)
        eps, alpha = 0.7, 0.05
        prob_s = assemble(sz, eps, alpha, "synthesis")
        prob_a = assemble(sa, eps, alpha, "analysis")
        P = rand_spd(rng, n)
        ms = prob_s.blocks[0].evaluate(prob_s.layout.pack(P, np.zeros((m, n))))
        ma = prob_a.blocks[0].evaluate(prob_a.layout.pack(P))
        np.testing.assert_allclose(ms[: 2 * n, : 2 * n], ma, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(ms[2 * n:, 2 * n:], -eps * np.eye(n), atol=1e-15)
        np.testing.assert_allclose(ms[: 2 * n, 2 * n:], 0.0, atol=1e-15)

    @pytest.mark.parametrize("make", [three_state_qb, lambda: stack(three_state_qb(), 2)])
    def test_y_slots_match_loop_reference(self, make):
        # per-entry loop: B Y + Y' B' in TL, Y' in the Ypad' slot, -Y in the floor block
        s = make()
        n, m = s.n, s.m
        n_p = n * (n + 1) // 2
        prob = assemble(s, 0.5, 1e-6, "synthesis")
        F_main, F_floor = (blk.dense() for blk in prob.blocks)
        for r in range(m):
            for c in range(n):
                k = n_p + r * n + c
                eBc = np.outer(s.B[:, r], np.eye(n)[c])
                main = np.zeros((3 * n, 3 * n))
                main[:n, :n] = eBc + eBc.T
                main[c, 2 * n + r] = main[2 * n + r, c] = 1.0
                floor = np.zeros((m + n, m + n))
                floor[r, m + c] = floor[m + c, r] = -1.0
                np.testing.assert_array_equal(F_main[k], main)
                np.testing.assert_array_equal(F_floor[k], floor)


def dense_reference(sys, eps, alpha, mode):
    """The F stacks of both blocks, built densely from the svec basis and the
    Gram tensor S[a, i, b, j] = sum_p M_p[a, i] M_p[b, j] (the assembly that
    row-compressed blocks replaced)."""
    n, m = sys.n, (sys.m if mode == "synthesis" else 0)
    E = svec_basis(n)
    n_p = E.shape[0]
    d = n_p + m * n
    i, j, _ = lmi._svec_index(n)

    def gram(Ms):
        V = Ms.reshape(Ms.shape[0], n * n)
        S = (V.T @ V).reshape(n, n, n, n)
        out = S[:, i, :, j]
        off = i != j
        out[off] += S[:, j[off], :, i[off]]
        out[off] /= np.sqrt(2.0)
        return out

    AE = np.einsum("ab,kbc->kac", sys.A, E)
    TL = AE + AE.transpose(0, 2, 1)
    TL += eps * gram(np.stack([sys.h_block(p) for p in range(n)]))
    if m:
        TL += eps * gram(np.stack(sys.D))
    if alpha:
        TL += alpha * E
    s = 2 * n if mode == "analysis" else 3 * n
    F = np.zeros((d, s, s))
    F[:n_p, :n, :n] = TL
    F[:n_p, :n, n:2 * n] += E
    F[:n_p, n:2 * n, :n] += E
    r, c = np.divmod(np.arange(m * n), n)
    k = n_p + r * n + c
    Ff = np.zeros((d, m + n, m + n))
    Ff[:n_p, m:, m:] = -E
    if m:
        F[k, :n, c] += sys.B[:, r].T
        F[k, c, :n] += sys.B[:, r].T
        F[k, c, 2 * n + r] = F[k, 2 * n + r, c] = 1.0
        Ff[k, r, m + c] = Ff[k, m + c, r] = -1.0
    return F, Ff


class TestDenseReference:
    """Row-compressed assembly equals the dense stacks: the same nonzero
    pattern, and values equal up to the summation order of the Gram sums
    (the dense tensor comes from one BLAS product, the rows from several)."""

    @pytest.mark.parametrize("make,mode", [
        (two_state, "analysis"),
        (three_state_qb, "analysis"),
        (three_state_qb, "synthesis"),
        (lambda: stack(two_state(), 4), "analysis"),
        (lambda: stack(three_state_qb(), 2), "synthesis"),
        (lambda: rand_system(np.random.default_rng(40), 4), "analysis"),
        (lambda: rand_system(np.random.default_rng(41), 4, m=1), "synthesis"),
        (lambda: rand_system(np.random.default_rng(42), 5, m=2), "synthesis"),
    ])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_blocks_equal_dense_stacks(self, make, mode, alpha, monkeypatch):
        s = make()
        prob = assemble(s, 0.7, alpha, mode)
        F, Ff = dense_reference(s, 0.7, alpha, mode)
        for blk, ref in zip(prob.blocks, (F, Ff)):
            dense = blk.dense()
            np.testing.assert_array_equal(dense != 0, ref != 0)
            np.testing.assert_allclose(dense, ref, rtol=0, atol=4e-16 * np.abs(ref).max())
        # assembly in chunks of one P slot gives the same blocks
        monkeypatch.setattr(lmi, "_CHUNK", 1)
        again = assemble(s, 0.7, alpha, mode)
        for blk, ref in zip(again.blocks, prob.blocks):
            assert np.array_equal(blk.rows, ref.rows) and np.array_equal(blk.vals, ref.vals)


class TestFloorBlock:
    @pytest.mark.parametrize("make", [two_state, three_state_qb])
    def test_analysis_block_is_the_plain_floor(self, make):
        # m = 0: exactly delta I - P <= 0, as before the input bound existed
        s = make()
        prob = assemble(s, eps=0.4, alpha=0.0, mode="analysis")
        floor = prob.blocks[1]
        n = s.n
        F = np.zeros((prob.d, n, n))
        F[: n * (n + 1) // 2] = -svec_basis(n)
        np.testing.assert_array_equal(floor.F0, default_delta(s) * np.eye(n))
        np.testing.assert_array_equal(floor.dense(), F)

    def test_synthesis_block_size_and_default_mu(self):
        s = three_state_qb()
        prob = assemble(s, eps=1.0, alpha=0.0, mode="synthesis")
        floor = prob.blocks[1]
        assert floor.size == s.m + s.n
        np.testing.assert_array_equal(floor.F0[: s.m, : s.m], -default_mu(s) * np.eye(s.m))

    def test_psd_exactly_when_floor_and_input_bound_hold(self):
        # -(block) = [[mu I, Y], [Y', P - delta I]] >= 0  iff  P >= delta I and
        # Y (P - delta I)^-1 Y' <= mu I; samples within rounding of the boundary
        # are skipped
        rng = np.random.default_rng(5)
        s = three_state_qb()
        n, m, delta, mu = s.n, s.m, 0.1, default_mu(s)
        prob = assemble(s, 1.0, 0.0, "synthesis", delta=delta)
        seen = {True: 0, False: 0}
        for _ in range(400):
            G = rng.normal(size=(n, n))
            P = rng.uniform(0.0, 1.0) * G @ G.T + rng.uniform(-0.2, 0.6) * np.eye(n)
            Y = rng.uniform(0.0, 3.0) * rng.normal(size=(m, n))
            lam_blk = np.linalg.eigvalsh(-prob.blocks[1].evaluate(prob.layout.pack(P, Y)))[0]
            Q = P - delta * np.eye(n)
            lam_q = np.linalg.eigvalsh(Q)[0]
            margins = [lam_blk, lam_q]
            holds = lam_q > 0
            if holds:
                gain_margin = mu - np.linalg.eigvalsh(Y @ np.linalg.solve(Q, Y.T))[-1]
                margins.append(gain_margin)
                holds = gain_margin >= 0
            if min(abs(v) for v in margins) < 1e-9:
                continue
            assert (lam_blk >= 0) == holds
            seen[holds] += 1
        assert seen[True] >= 20 and seen[False] >= 20

    def test_default_mu_scale_invariance(self):
        # x = s z, u = r v, t = tau T leave the physical input bound unchanged:
        # mu picks up only the 1/r^2 of the input rescaling
        base = three_state_qb()
        sc, r, tau = 3.0, 0.5, 2.0
        scaled = QBSystem(A=tau * base.A, H=tau * sc * base.H, B=tau * r * base.B / sc,
                          D=tuple(tau * r * D for D in base.D))
        assert default_mu(scaled) == pytest.approx(default_mu(base) / r ** 2, rel=1e-12)


class TestPetersenParts:
    def test_scalar_instantiation(self):
        s = scalar_family(-1.0, 1.0)
        parts = petersen_parts(s, np.array([[1.0]]))
        assert parts.G[0, 0] == pytest.approx(-2.0)
        assert parts.M[0, 0] == pytest.approx(1.0)
        assert parts.N[0, 0] == pytest.approx(1.0)

    def test_zero_h_gives_zero_m(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(3, 3))
        s = QBSystem(A=A, H=np.zeros((3, 9)))
        P = rand_spd(rng, 3)
        parts = petersen_parts(s, P)
        np.testing.assert_array_equal(parts.M, np.zeros((3, 9)))
        np.testing.assert_allclose(parts.G, A @ P + P @ A.T, rtol=1e-13)

    def test_rejects_indefinite_p(self):
        with pytest.raises(NotPositiveDefiniteError):
            petersen_parts(two_state(), np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_schur_complement_identity(self, m):
        # G + eps M M' + (1/eps) N'N + alpha P equals the Schur complement of
        # the assembled main block at the same (P, Y = K P)
        rng = np.random.default_rng(21 + m)
        for _ in range(10):
            n = int(rng.integers(max(2, m + 1), 7))
            s = rand_system(rng, n, m)
            P = rand_spd(rng, n)
            eps = float(rng.uniform(0.2, 2.0))
            alpha = float(rng.uniform(0.0, 0.5))
            mode = "analysis" if m == 0 else "synthesis"
            K = rng.normal(size=(m, n)) if m else None
            parts = petersen_parts(s, P, K)
            lhs = parts.G + eps * parts.M @ parts.M.T + parts.N.T @ parts.N / eps + alpha * P
            prob = assemble(s, eps, alpha, mode)
            x = prob.layout.pack(P, K @ P if m else None)
            blk = prob.blocks[0].evaluate(x)
            C = blk[:n, n:]
            schur = blk[:n, :n] + C @ C.T / eps
            scale = max(1.0, np.abs(lhs).max())
            np.testing.assert_allclose(schur, lhs, rtol=0, atol=1e-10 * scale)


class TestDeltaNorm:
    def test_zero_state(self):
        assert delta_norm(two_state(), np.eye(2), np.zeros(2), "analysis") == 0.0

    def test_unit_sphere_boundary(self):
        e1 = np.array([1.0, 0.0])
        assert delta_norm(two_state(), np.eye(2), e1, "analysis") == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", ["analysis", "synthesis"])
    def test_matches_quadratic_form(self, mode):
        rng = np.random.default_rng(31)
        s = three_state_qb()
        for _ in range(10):
            P = rand_spd(rng, 3)
            x = rng.normal(size=3)
            # rescale x so x' P^-1 x = 4, expecting norm exactly 2
            q = x @ np.linalg.solve(P, x)
            x = x * np.sqrt(4.0 / q)
            val = delta_norm(s, P, x, mode)
            assert val == pytest.approx(2.0, abs=1e-12)

    def test_rejects_indefinite_p(self):
        with pytest.raises(NotPositiveDefiniteError):
            delta_norm(two_state(), -np.eye(2), np.ones(2), "analysis")


def objective_cap_problem():
    """The solver's hidden 1x1 cap block c'x <= 1 on the two-state layout."""
    lay = layout(2, 0, "analysis")
    c = lay.trace_objective()
    cap = LmiBlock(F0=np.array([[-1.0]]), rows=np.zeros((lay.d, 1), dtype=int),
                   vals=c.reshape(lay.d, 1, 1))
    return SdpProblem(layout=lay, c=c, blocks=(cap,))


OPERATOR_PROBLEMS = {
    "two-state analysis": lambda: assemble(two_state(), 0.4, 1e-6, "analysis"),
    "three-state synthesis": lambda: assemble(three_state_qb(), 0.746, 1e-6, "synthesis"),
    "stacked two-state": lambda: assemble(stack(two_state(), 5), 0.4, 1e-6, "analysis"),
    "objective cap": objective_cap_problem,
}
if shear_flow_data_available():
    OPERATOR_PROBLEMS["shear flow Re=120"] = lambda: assemble(shear_flow_9(120.0), 0.4, 1e-6,
                                                              "analysis")


class TestBlockOperators:
    """The contract the solver relies on: F(x), F*(Z) and the Schur complement."""

    @pytest.fixture(params=sorted(OPERATOR_PROBLEMS), scope="class")
    def problem(self, request):
        return OPERATOR_PROBLEMS[request.param]()

    @staticmethod
    def rand_sym(rng, s):
        M = rng.normal(size=(s, s))
        return M + M.T

    def test_adjoint_of_linear(self, problem):
        rng = np.random.default_rng(11)
        x = rng.normal(size=problem.d)
        Zs = [self.rand_sym(rng, blk.size) for blk in problem.blocks]
        lhs = sum(float(np.sum(blk.linear(x) * Z)) for blk, Z in zip(problem.blocks, Zs))
        rhs = float(x @ sum(blk.adjoint(Z) for blk, Z in zip(problem.blocks, Zs)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_operators_match_dense_stack(self, problem):
        rng = np.random.default_rng(14)
        x = rng.normal(size=problem.d)
        for blk in problem.blocks:
            F = blk.dense()
            Z = self.rand_sym(rng, blk.size)
            np.testing.assert_allclose(blk.linear(x), np.einsum("k,kst->st", x, F),
                                       rtol=1e-13, atol=1e-13 * np.abs(F).max())
            np.testing.assert_allclose(blk.adjoint(Z), F.reshape(problem.d, -1) @ Z.reshape(-1),
                                       rtol=1e-13, atol=1e-13 * np.abs(F).max())

    def test_evaluate_is_affine_part_plus_linear(self, problem):
        x = np.random.default_rng(12).normal(size=problem.d)
        for blk in problem.blocks:
            assert np.array_equal(blk.evaluate(x), blk.F0 + blk.linear(x))

    @pytest.mark.parametrize("chunk", [None, 1], ids=["chunked", "by-column"])
    def test_schur_matches_dense_reference(self, problem, chunk, monkeypatch):
        # sum_b <F_k, W F_l W> with W = G G' equals the Gram matrix of the
        # rows svec(G' F_k G); chunk=1 forces one column of M per pass
        if chunk is not None:
            monkeypatch.setattr(lmi, "_CHUNK", chunk)
        rng = np.random.default_rng(13)
        M = np.zeros((problem.d, problem.d))
        ref = np.zeros((problem.d, problem.d))
        for blk in problem.blocks:
            G = rng.normal(size=(blk.size, blk.size))
            M += blk.schur(G @ G.T)
            U = svec(np.matmul(G.T, np.matmul(blk.dense(), G)))
            ref += U @ U.T
        np.testing.assert_allclose(M, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("chunk", [None, 1], ids=["chunked", "by-slot"])
    def test_congruence_matches_dense_reference(self, problem, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(lmi, "_CHUNK", chunk)
        rng = np.random.default_rng(15)
        for blk in problem.blocks:
            s = blk.size
            L, R = rng.normal(size=(s + 1, s)), rng.normal(size=(s, s + 2))
            ref = L @ blk.dense() @ R
            out = np.full_like(ref, np.nan)
            for ks, LFR in blk.congruence(L, R):
                out[ks] = LFR
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_dense_round_trip(self, problem):
        for blk in problem.blocks:
            again = LmiBlock.from_dense(blk.F0, blk.dense())
            assert np.array_equal(again.dense(), blk.dense())
            assert np.array_equal(again.F0, blk.F0)
            assert again.rows.shape[1] <= blk.rows.shape[1]


class TestBlockValidation:
    """Malformed blocks are rejected where they are built."""

    F0 = np.zeros((3, 3))

    @staticmethod
    def sym_stack():
        F = np.zeros((2, 3, 3))
        F[0, 0, 1] = F[0, 1, 0] = 1.0
        F[1, 2, 2] = -2.0
        return F

    def test_accepts_symmetric_stack(self):
        blk = LmiBlock.from_dense(self.F0, self.sym_stack())
        assert (blk.d, blk.size) == (2, 3)
        assert np.array_equal(blk.dense(), self.sym_stack())

    @pytest.mark.parametrize("kwargs", [
        {"F0": np.zeros((3, 2))},
        {"vals": np.zeros((2, 2, 2))},
        {"rows": np.array([[0, 1], [2, 3]])},
        {"rows": np.array([[0, 0], [1, 2]])},
        {"rows": np.zeros((2, 0), dtype=int), "vals": np.zeros((2, 0, 3))},
    ])
    def test_rejects_shape_mismatch(self, kwargs):
        args = {"F0": self.F0, "rows": np.array([[0, 1], [1, 2]]), "vals": np.zeros((2, 2, 3))}
        args.update(kwargs)
        with pytest.raises(ValueError, match="malformed problem: F stack shape mismatch"):
            LmiBlock(**args)

    def test_rejects_dense_shape_mismatch(self):
        with pytest.raises(ValueError, match="malformed problem: F stack shape mismatch"):
            LmiBlock.from_dense(self.F0, np.zeros((2, 3, 2)))

    def test_rejects_nonsymmetric_f0(self):
        F0 = np.zeros((3, 3))
        F0[0, 2] = 1.0
        with pytest.raises(ValueError, match="malformed problem: F0 not symmetric"):
            LmiBlock.from_dense(F0, self.sym_stack())

    @pytest.mark.parametrize("entry", [(0, 1, 0), (1, 0, 2)])
    def test_rejects_nonsymmetric_fk(self, entry):
        # (0, 1, 0) breaks a mirrored pair; (1, 0, 2) sits in a row whose
        # mirror entry F_1[2, 0] is zero
        F = self.sym_stack()
        F[entry] = 3.0
        with pytest.raises(ValueError, match="malformed problem: F_k not symmetric"):
            LmiBlock.from_dense(self.F0, F)

    def test_rejects_nonzero_outside_rows(self):
        vals = np.zeros((2, 1, 3))
        vals[0, 0, 2] = 1.0  # row 0 of F_0 has an entry in column 2, row 2 is not stored
        with pytest.raises(ValueError, match="malformed problem: F_k not symmetric"):
            LmiBlock(F0=self.F0, rows=np.zeros((2, 1), dtype=int), vals=vals)

    def test_problem_rejects_block_of_other_dimension(self):
        blk = LmiBlock.from_dense(self.F0, self.sym_stack())
        with pytest.raises(ValueError, match="malformed problem: F stack shape mismatch"):
            SdpProblem(layout=layout(2, 0, "analysis"), c=np.zeros(3), blocks=(blk,))


class TestDebugDump:
    def test_round_trippable_triplets(self):
        prob = assemble(scalar_family(-1.0, 1.0), 1.0, 0.01, "analysis")
        dump = prob.to_debug_dict()
        assert dump["d"] == 1
        assert len(dump["blocks"]) == 2
        # main block F0 is diag(0, -eps); only the (1,1) entry is listed
        assert dump["blocks"][0]["F0"] == [[1, 1, -1.0]]
