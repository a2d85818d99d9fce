import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbstab.errors import DimensionError, NotPositiveDefiniteError
from qbstab.lmi import (
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
from qbstab.models import scalar_family, three_state_qb, two_state
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

    def test_index_maps_partition(self):
        lay = layout(3, 2, "synthesis")
        seen = sorted(lay.p_indices.values()) + sorted(lay.y_indices.values())
        assert sorted(seen) == list(range(lay.d))

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
    def test_isometry(self, n, seed):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(n, n))
        S = S + S.T
        T = rng.normal(size=(n, n))
        T = T + T.T
        assert svec(S) @ svec(T) == pytest.approx(np.sum(S * T), rel=1e-14, abs=1e-14)

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
        with pytest.raises(ValueError):
            assemble(two_state(), eps=0.0, alpha=0.0, mode="analysis")

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
        np.testing.assert_array_equal(floor.F, F)

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


OPERATOR_PROBLEMS = {
    "two-state analysis": lambda: assemble(two_state(), 0.4, 1e-6, "analysis"),
    "three-state synthesis": lambda: assemble(three_state_qb(), 0.746, 1e-6, "synthesis"),
    "stacked two-state": lambda: assemble(stack(two_state(), 5), 0.4, 1e-6, "analysis"),
}


class TestBlockOperators:
    """The contract the solver relies on: F(x), F*(Z) and the NT congruence."""

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

    def test_evaluate_is_affine_part_plus_linear(self, problem):
        x = np.random.default_rng(12).normal(size=problem.d)
        for blk in problem.blocks:
            assert np.array_equal(blk.evaluate(x), blk.F0 + blk.linear(x))

    def test_congruence_svec_rows(self, problem):
        rng = np.random.default_rng(13)
        for blk in problem.blocks:
            G = rng.normal(size=(blk.size, blk.size))
            rows = blk.congruence_svec(G)
            assert rows.shape == (problem.d, blk.size * (blk.size + 1) // 2)
            for k in range(problem.d):
                np.testing.assert_allclose(rows[k], svec(G.T @ blk.F[k] @ G),
                                           rtol=1e-12, atol=1e-12)


class TestDebugDump:
    def test_round_trippable_triplets(self):
        prob = assemble(scalar_family(-1.0, 1.0), 1.0, 0.01, "analysis")
        dump = prob.to_debug_dict()
        assert dump["d"] == 1
        assert len(dump["blocks"]) == 2
        # main block F0 is diag(0, -eps); only the (1,1) entry is listed
        assert dump["blocks"][0]["F0"] == [[1, 1, -1.0]]
