import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbstab.errors import DimensionError, NotPositiveDefiniteError
from qbstab import lmi, sdp
from qbstab.lmi import (
    LmiBlock,
    SdpProblem,
    assemble,
    default_alpha,
    default_delta,
    default_mu,
    delta_norm,
    layout,
    petersen_parts,
    svec,
    unsvec,
)
from qbstab.models import (
    scalar_family,
    shear_flow_9,
    three_state_qb,
    two_state,
)
from qbstab.systems import QBSystem, stack, symmetrize_quadratic

from conftest import asymmetric_shear_flow, two_input_shear_flow

from dense_lmi import block_from_dense, csr_reference, dense_stack, svec_basis


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

    @pytest.mark.parametrize("make", [three_state_qb, lambda: stack(three_state_qb(), 2),
                                      two_input_shear_flow])
    def test_y_slots_match_loop_reference(self, make):
        # per-entry loop: B Y + Y' B' in TL, Y' in the Ypad' slot, -Y in the
        # floor block, at the Y slots that the layout keeps
        s = make()
        n, m = s.n, s.m
        prob = assemble(s, 0.5, 1e-6, "synthesis")
        lay = prob.layout
        r_kept, c_kept = lay.y_slots
        # the shear flow keeps Y[0, c] for c in {1, 9} and Y[1, c] for c in {2, 3}
        assert len(r_kept) == (4 if n == 9 else m * n)
        F_main, F_floor = (dense_stack(blk) for blk in prob.blocks)
        for k, r, c in zip(range(lay.n_p, lay.d), r_kept, c_kept, strict=True):
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
        (lambda: shear_flow_9(120.0), "analysis"),
        (two_input_shear_flow, "synthesis"),
    ])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_blocks_equal_dense_stacks(self, make, mode, alpha, monkeypatch):
        # a sign-symmetric system against the dense stacks at its kept slots
        s = make()
        prob = assemble(s, 0.7, alpha, mode)
        F, Ff = dense_reference(s, 0.7, alpha, mode)
        for blk, full in zip(prob.blocks, (F, Ff)):
            ref = full[list(prob.layout.slots)]
            dense = dense_stack(blk)
            np.testing.assert_array_equal(dense != 0, ref != 0)
            np.testing.assert_allclose(dense, ref, rtol=0, atol=4e-16 * np.abs(ref).max())
        # assembly in chunks of one P slot gives the same blocks
        monkeypatch.setattr(lmi, "_CHUNK", 1)
        again = assemble(s, 0.7, alpha, mode)
        for blk, ref in zip(again.blocks, prob.blocks):
            assert np.array_equal(blk.rows, ref.rows) and np.array_equal(blk.vals, ref.vals)


FAMILY_SYSTEMS = {
    "two-state analysis": (two_state, "analysis", None),
    "three-state synthesis": (three_state_qb, "synthesis", None),
    "three-state synthesis, delta 0.05": (three_state_qb, "synthesis", 0.05),
    "shear flow Re=120": (lambda: shear_flow_9(120.0), "analysis", None),
    "stacked two-state": (lambda: stack(two_state(), 10), "analysis", None),
    "dense random analysis": (lambda: rand_system(np.random.default_rng(50), 4), "analysis", None),
    "dense random synthesis": (lambda: rand_system(np.random.default_rng(51), 4, m=2),
                               "synthesis", None),
}


def same_problem(a: SdpProblem, b: SdpProblem) -> bool:
    """c and every block's F0, rows and vals equal byte for byte."""
    return a.c.tobytes() == b.c.tobytes() and len(a.blocks) == len(b.blocks) and all(
        x.F0.tobytes() == y.F0.tobytes() and x.rows.shape == y.rows.shape
        and x.rows.tobytes() == y.rows.tobytes() and x.vals.tobytes() == y.vals.tobytes()
        for x, y in zip(a.blocks, b.blocks))


class TestEpsFamily:
    """An eps grid's problems come from one ``lmi._EpsFamily``; each must be
    the problem a one-point ``assemble`` gives."""

    EPS = (1e-3, 0.3, 20.0)

    @pytest.mark.parametrize("name", sorted(FAMILY_SYSTEMS))
    @pytest.mark.parametrize("strict", [False, True], ids=["alpha 0", "default alpha"])
    def test_problems_equal_one_point_assembly(self, name, strict, monkeypatch):
        make, mode, delta = FAMILY_SYSTEMS[name]
        if delta is not None:
            monkeypatch.setattr(lmi, "default_delta", lambda sys_obj: delta)
        s = make()
        alpha = default_alpha(s) if strict else 0.0
        family = lmi._EpsFamily(s, alpha, mode)
        # every point first, so a point that changed the family shows in the next
        problems = [family.problem(eps) for eps in self.EPS]
        for eps, prob in zip(self.EPS, problems):
            assert same_problem(prob, assemble(s, eps, alpha, mode))
        assert same_problem(family.problem(self.EPS[0]), problems[0])

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_eps(self, eps):
        family = lmi._EpsFamily(two_state(), 0.0, "analysis")
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            family.problem(eps)

    def test_shares_read_only_data(self):
        family = lmi._EpsFamily(three_state_qb(), 1e-6, "synthesis")
        problems = [family.problem(eps) for eps in self.EPS]
        first = problems[0]
        shared = [first.c, first.blocks[0].rows, *(getattr(first.blocks[1], name)
                                                   for name in ("F0", "rows", "vals"))]
        for prob in problems[1:]:
            assert prob.blocks[1] is first.blocks[1] and prob.blocks[0].rows is first.blocks[0].rows
            assert prob.c is first.c
        for arr in shared:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr.reshape(-1)[0] = 1.0
        # each problem owns its main F0 and vals
        assert all(prob.blocks[0].vals.flags.writeable for prob in problems)
        assert not np.shares_memory(problems[0].blocks[0].vals, problems[1].blocks[0].vals)

    def test_checks_each_point_but_the_shared_rows(self, monkeypatch):
        # the rows every point shares are checked once, when the family is
        # built; each point's F0 and vals are checked as a direct build's
        family = lmi._EpsFamily(shear_flow_9(120.0), 1e-6, "analysis")
        main = family.problem(0.3).blocks[0]
        rows = family._rows
        k = next(k for k in range(len(rows)) if len(rows[k]) < main.size)
        vals = family._vals.copy()
        vals[k, 0, np.setdiff1d(np.arange(main.size), rows[k])[0]] = 1.0
        monkeypatch.setattr(family, "_vals", vals)
        with pytest.raises(ValueError, match="malformed problem: F_k not symmetric"):
            family.problem(0.3)
        # a block built directly on the same rows, one index repeated
        repeated = rows.copy()
        repeated[k, 1] = repeated[k, 0]
        with pytest.raises(ValueError, match="malformed problem: F stack shape mismatch"):
            LmiBlock(F0=main.F0, rows=repeated, vals=main.vals)

    def test_solve_many_leaves_shared_data_unchanged(self):
        family = lmi._EpsFamily(two_state(), 1e-6, "analysis")
        problems = [family.problem(eps) for eps in (0.1, 0.3, 0.6)]
        first = problems[0]
        shared = [first.c, first.blocks[0].rows, first.blocks[1].F0, first.blocks[1].rows,
                  first.blocks[1].vals]
        before = [arr.copy() for arr in shared]
        # one shape, so solve_many takes them together, each as its own solve does
        solutions = sdp.solve_many(problems)
        assert [sol.status for sol in solutions] == ["Optimal"] * 3
        for prob, sol in zip(problems, solutions):
            assert sol.x.tobytes() == sdp.solve(prob).x.tobytes()
        for arr, ref in zip(shared, before):
            assert arr.tobytes() == ref.tobytes()


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
        np.testing.assert_array_equal(dense_stack(floor), F)

    def test_synthesis_block_size_and_default_mu(self):
        s = three_state_qb()
        prob = assemble(s, eps=1.0, alpha=0.0, mode="synthesis")
        floor = prob.blocks[1]
        assert floor.size == s.m + s.n
        np.testing.assert_array_equal(floor.F0[: s.m, : s.m], -default_mu(s) * np.eye(s.m))

    def test_psd_exactly_when_floor_and_input_bound_hold(self, monkeypatch):
        # -(block) = [[mu I, Y], [Y', P - delta I]] >= 0  iff  P >= delta I and
        # Y (P - delta I)^-1 Y' <= mu I; samples within rounding of the boundary
        # are skipped
        rng = np.random.default_rng(5)
        s = three_state_qb()
        n, m, delta, mu = s.n, s.m, 0.1, default_mu(s)
        monkeypatch.setattr(lmi, "default_delta", lambda sys_obj: delta)
        prob = assemble(s, 1.0, 0.0, "synthesis")
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


class TestSpectralWindow:
    """T_eps* and its bound eps* = 1/rho(-L^-1 Pi) (``lmi._TStar``)."""

    @pytest.mark.parametrize("a, h, alpha", [(-1.0, 1.0, 1e-6), (-1.0, 1.0, 0.3),
                                             (-2.5, 0.5, 0.0), (-0.2, 3.0, 0.1)])
    def test_scalar_closed_form(self, a, h, alpha):
        # T_eps*(z) = (2 (a + alpha/2) + eps h^2) z vanishes at eps* = 2|a + alpha/2|/h^2
        window = lmi._TStar(scalar_family(a, h), alpha)
        assert window.eps_star == pytest.approx(2.0 * abs(a + alpha / 2.0) / h ** 2, rel=1e-13)
        eps = 3.0 * window.eps_star
        lam, Z = window.perron(eps)
        assert lam == pytest.approx(2.0 * (a + alpha / 2.0) + eps * h * h, rel=1e-13)
        assert Z.tolist() == [[1.0]]

    def test_two_state(self):
        # Pi(P) = tr(P) g g' with g = (6.9, 2.75), so rho(-L^-1 Pi) = tr X for
        # Ah X + X Ah' + g g' = 0
        sys_obj = two_state()
        alpha = default_alpha(sys_obj)
        A_hat = sys_obj.A + alpha / 2.0 * np.eye(2)
        g = np.array([6.9, 2.75])
        X = scipy.linalg.solve_continuous_lyapunov(A_hat, -np.outer(g, g))
        eps_star = lmi._EpsFamily(sys_obj, alpha, "analysis").window.eps_star
        assert eps_star == pytest.approx(1.0 / np.trace(X), rel=1e-12)
        assert eps_star == pytest.approx(0.879807, abs=5e-7)

    @staticmethod
    def assert_adjoint(sys_obj, d):
        # <T_eps(P), Z> from the assembled main block's TL corner = <P, T_eps*(Z)>,
        # at P zero outside the slots that the layout keeps
        eps, alpha = 0.02, 1e-3
        rng = np.random.default_rng(5)
        prob = assemble(sys_obj, eps, alpha, "analysis")
        assert prob.d == d
        window = lmi._TStar(sys_obj, alpha)
        for _ in range(3):
            P, Z = (rand_spd(rng, 9) for _ in range(2))
            # P with its entries outside the slots zeroed is still > 0
            P = prob.layout.unpack(svec(P)[list(prob.layout.slots)])[0]
            TL = (prob.blocks[0].evaluate(prob.layout.pack(P)) - prob.blocks[0].F0)[:9, :9]
            lhs, rhs = np.sum(TL * Z), np.sum(P * window(Z, eps))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_is_the_adjoint_of_the_main_block(self):
        # every svec slot: the shear flow with its sign symmetry broken
        self.assert_adjoint(asymmetric_shear_flow(120.0), 45)

    def test_is_the_adjoint_on_the_fixed_slots(self):
        # the 15 slots that the shear flow's sign group fixes
        self.assert_adjoint(shear_flow_9(120.0), 15)

    def test_resolvent_inverts_the_lyapunov_part(self):
        sys_obj = shear_flow_9(160.0)
        window = lmi._TStar(sys_obj, 0.0)
        R = rand_spd(np.random.default_rng(8), 9)
        for sigma in (0.0, 0.05, 2.0):
            Z = window.resolvent(R, sigma)
            assert np.array_equal(Z, Z.T)
            back = sigma * Z - (window(Z, 0.0))
            np.testing.assert_allclose(back, R, rtol=0, atol=1e-11 * np.abs(R).max())

    def test_perron_pair(self):
        sys_obj = shear_flow_9(120.0)
        window = lmi._EpsFamily(sys_obj, default_alpha(sys_obj), "analysis").window
        assert window.eps_star == pytest.approx(0.0152184, rel=1e-5)
        assert window.perron(window.eps_star) is None
        lam, Z = window.perron(0.5)
        assert lam > 0 and np.array_equal(Z, Z.T) and np.linalg.eigvalsh(Z)[0] > 0
        np.testing.assert_allclose(window(Z, 0.5), lam * Z, rtol=0, atol=1e-14)

    def test_without_bound(self):
        # H = 0 excludes no eps; an unstable A excludes every eps, and then
        # no Perron pair is formed
        assert lmi._TStar(scalar_family(-1.0, 0.0), 0.0).eps_star == math.inf
        unstable = lmi._TStar(scalar_family(0.5, 1.0), 0.0)
        assert unstable.eps_star == 0.0 and unstable.perron(1.0) is None
        assert lmi._EpsFamily(three_state_qb(), 0.0, "synthesis").window is None


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


class TestSpdHelpers:
    """The positive-definiteness tests of P reject a non-finite P."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_eigh_rejects_non_finite(self, bad):
        with pytest.raises(NotPositiveDefiniteError):
            lmi._spd_eigh(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_factor_rejects_non_finite(self, bad):
        with pytest.raises(NotPositiveDefiniteError):
            lmi._spd_factor(np.array([[bad, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("where", [(0, 0), (2, 2), (1, 0)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_factor_rejects_non_finite_before_lapack(self, monkeypatch, where, bad):
        # the LAPACK factorization does not check for non-finite entries (an inf
        # on the diagonal can factor), so the test comes first
        monkeypatch.setattr(lmi, "dpotrf", None)
        P = np.eye(3)
        P[where] = bad
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            lmi._spd_factor(P)


def random_spd(d, seed):
    A = np.random.default_rng(seed).normal(size=(d, d))
    return A @ A.T + d * np.eye(d)


class TestCholeskyPair:
    """``_cho_factor`` and ``_cho_solve`` are scipy's ``cho_factor(lower=True)``
    and ``cho_solve`` without the wrappers, bit for bit."""

    @pytest.mark.parametrize("d", [5, 45, 820])
    def test_bitwise_scipy(self, d):
        M = random_spd(d, d)
        c, lower = lmi._cho_factor(M)
        c_ref, lower_ref = scipy.linalg.cho_factor(M, lower=True)
        assert lower is lower_ref is True
        assert c.tobytes() == c_ref.tobytes() and c.flags.f_contiguous == c_ref.flags.f_contiguous
        rng = np.random.default_rng(d + 1)
        # a vector, a matrix and a transposed view, as the callers pass them
        for b in (rng.normal(size=d), rng.normal(size=(d, 3)), rng.normal(size=(4, d)).T):
            x = lmi._cho_solve((c, lower), b)
            assert x.tobytes() == scipy.linalg.cho_solve((c_ref, lower_ref), b).tobytes()

    def test_indefinite_raises_linalg_error(self):
        M = random_spd(5, 0)
        M[3, 3] = -100.0
        with pytest.raises(np.linalg.LinAlgError, match="4-th leading minor"):
            lmi._cho_factor(M)
        with pytest.raises(np.linalg.LinAlgError, match="4-th leading minor"):
            scipy.linalg.cho_factor(M, lower=True)


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
    "shear flow Re=120": lambda: assemble(shear_flow_9(120.0), 0.4, 1e-6, "analysis"),
}


def rand_sym(rng, s):
    M = rng.normal(size=(s, s))
    return M + M.T


def linear(blk, x):
    """sum_k x_k F_k of one block, through its stack."""
    return lmi._Stack.of([blk]).linear(x[None])[0]


def adjoint(blk, Z):
    """(<F_k, Z>)_k of one block, through its stack."""
    return lmi._Stack.of([blk]).adjoint(Z[None])[0]


class TestBlockOperators:
    """The contract the solver relies on: F(x), F*(Z) and the Schur complement."""

    @pytest.fixture(params=sorted(OPERATOR_PROBLEMS), scope="class")
    def problem(self, request):
        return OPERATOR_PROBLEMS[request.param]()

    def test_adjoint_of_linear(self, problem):
        rng = np.random.default_rng(11)
        x = rng.normal(size=problem.d)
        Zs = [rand_sym(rng, blk.size) for blk in problem.blocks]
        lhs = sum(float(np.sum(linear(blk, x) * Z)) for blk, Z in zip(problem.blocks, Zs))
        rhs = float(x @ sum(adjoint(blk, Z) for blk, Z in zip(problem.blocks, Zs)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_operators_match_dense_stack(self, problem):
        rng = np.random.default_rng(14)
        x = rng.normal(size=problem.d)
        for blk in problem.blocks:
            F = dense_stack(blk)
            Z = rand_sym(rng, blk.size)
            np.testing.assert_allclose(linear(blk, x), np.einsum("k,kst->st", x, F),
                                       rtol=1e-13, atol=1e-13 * np.abs(F).max())
            np.testing.assert_allclose(adjoint(blk, Z), F.reshape(problem.d, -1) @ Z.reshape(-1),
                                       rtol=1e-13, atol=1e-13 * np.abs(F).max())
            np.testing.assert_allclose(lmi._Stack.of([blk]).f_norm[0],
                                       np.linalg.norm(F, axis=(1, 2)), rtol=1e-14)

    def test_evaluate_is_affine_part_plus_linear(self, problem):
        x = np.random.default_rng(12).normal(size=problem.d)
        for blk in problem.blocks:
            assert np.array_equal(blk.evaluate(x), blk.F0 + linear(blk, x))

    @pytest.mark.parametrize("chunk", [None, 1], ids=["chunked", "by-column"])
    def test_schur_matches_dense_reference(self, problem, chunk, monkeypatch):
        # the solver's W form, sum_b <F_k, W F_l W> with W = G G', equals the
        # Gram matrix of the rows svec(G' F_k G) on the lower triangle, the
        # first block's share written and the next added; the write leaves
        # the strict upper triangle as it is, and the add puts zeros there,
        # so it stays NaN.  chunk=1 forces one column of M per congruence
        if chunk is not None:
            monkeypatch.setattr(lmi, "_CHUNK", chunk)
        rng = np.random.default_rng(13)
        d = problem.d
        M = np.full((d, d), np.nan)
        ref = np.zeros((d, d))
        for bi, blk in enumerate(problem.blocks):
            G = rng.normal(size=(blk.size, blk.size))
            work = np.full(lmi._w_words(d, blk.rows.shape[1], blk.size), np.nan)
            block = sdp._Block(lmi._Stack.of([blk]), gram=False, work=work)
            block.set_scaling(G[None])
            assert block.U is None
            block.schur(M[None], bi > 0)
            U = svec(np.matmul(G.T, np.matmul(dense_stack(blk), G)))
            ref += U @ U.T
        lower = np.tri(d, dtype=bool)
        np.testing.assert_allclose(M[lower], ref[lower], rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert np.isnan(M[~lower]).all()

    @pytest.mark.parametrize("chunk", [None, 1], ids=["chunked", "by-slot"])
    def test_congruence_matches_dense_reference(self, problem, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(lmi, "_CHUNK", chunk)
        rng = np.random.default_rng(15)
        for blk in problem.blocks:
            s, r = blk.size, blk.rows.shape[1]
            L, R = rng.normal(size=(s + 1, s)), rng.normal(size=(s, s + 2))
            ref = L @ dense_stack(blk) @ R
            out = np.full_like(ref, np.nan)
            # one chunk's product and both its factors
            words = lmi._chunk_rows(blk.d, s + 1, s + 2) * ((s + 1) * (s + 2) + r * (2 * s + 3))
            work = np.full(words, np.nan)
            for ks, LFR in lmi._congruence(blk.rows, blk.vals, L, R, work):
                out[ks] = LFR
            np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_dense_round_trip(self, problem):
        for blk in problem.blocks:
            again = block_from_dense(blk.F0, dense_stack(blk))
            assert np.array_equal(dense_stack(again), dense_stack(blk))
            assert np.array_equal(again.F0, blk.F0)
            assert again.rows.shape[1] <= blk.rows.shape[1]


class TestStack:
    """One stack of three problems of one shape, each problem's part checked
    against its dense F: the per-problem offsets of the nonzero index."""

    EPS = (0.3, 0.6, 1.0)

    @pytest.fixture(scope="class")
    def problems(self):
        sys_obj = stack(two_state(), 10)
        return [assemble(sys_obj, e, 1e-6, "analysis") for e in self.EPS]

    @pytest.fixture(params=["main", "floor"], scope="class")
    def blocks(self, request, problems):
        if request.param == "main":
            return [p.blocks[0] for p in problems]
        # the floor block does not depend on eps: scale it per problem
        return [LmiBlock(F0=(i + 1) * p.blocks[1].F0, rows=p.blocks[1].rows,
                         vals=(i + 1) * p.blocks[1].vals) for i, p in enumerate(problems)]

    def test_problems_differ(self, blocks):
        for a, b in ((0, 1), (0, 2), (1, 2)):
            assert not np.array_equal(blocks[a].vals, blocks[b].vals)

    def test_operators_per_problem(self, blocks):
        rng = np.random.default_rng(21)
        B, d, s = len(blocks), blocks[0].d, blocks[0].size
        stk = lmi._Stack.of(blocks)
        x = rng.normal(size=(B, d))
        Z = np.stack([rand_sym(rng, s) for _ in blocks])
        Fx, FZ = stk.linear(x), stk.adjoint(Z)
        assert Fx.shape == (B, s, s) and FZ.shape == (B, d)
        for p, blk in enumerate(blocks):
            F = dense_stack(blk)
            np.testing.assert_allclose(Fx[p], np.einsum("k,kst->st", x[p], F),
                                       rtol=1e-13, atol=1e-13 * np.abs(F).max())
            np.testing.assert_allclose(FZ[p], F.reshape(d, -1) @ Z[p].reshape(-1),
                                       rtol=1e-13, atol=1e-13 * np.abs(F).max())
            # and bitwise what the problem's own stack gives
            alone = lmi._Stack.of([blk])
            assert Fx[p].tobytes() == alone.linear(x[p:p + 1])[0].tobytes()
            assert FZ[p].tobytes() == alone.adjoint(Z[p:p + 1])[0].tobytes()

    def test_csr_is_vec_of_each_f(self, blocks):
        # the index as ``w_share`` reads it, each problem's row starts into
        # it and each nonzero's column flat mod s^2, is the reference CSR
        stk = lmi._Stack.of(blocks)
        B, d, s = len(blocks), blocks[0].d, blocks[0].size
        starts = np.searchsorted(stk._k, np.arange(B * d + 1))
        for p, blk in enumerate(blocks):
            ref = csr_reference(blk)
            assert ref.shape == (d, s * s)
            assert np.array_equal(ref.toarray(), dense_stack(blk).reshape(d, -1))
            ptr = starts[p * d:(p + 1) * d + 1]
            lo, hi = ptr[0], ptr[-1]
            assert np.array_equal(ptr - lo, ref.indptr)
            assert np.array_equal(stk._flat[lo:hi] % (s * s), ref.indices)
            assert stk._v[lo:hi].tobytes() == ref.data.tobytes()

    def test_schur_passes_per_problem(self, blocks):
        rng = np.random.default_rng(22)
        B, d, s = len(blocks), blocks[0].d, blocks[0].size
        stk = lmi._Stack.of(blocks)
        G = rng.normal(size=(B, s, s))
        W = G @ G.mT
        r = blocks[0].rows.shape[1]
        U = np.full((B, d, s * (s + 1) // 2), np.nan)
        stk.gram_rows(G, U, np.full(B * lmi._gram_words(d, r, s), np.nan))
        share = np.full((B, d, d), np.nan)
        stk.w_share(W, share, np.full(lmi._w_words(d, r, s), np.nan))
        # the lower triangle only
        lower = np.tri(d, dtype=bool)
        for p, blk in enumerate(blocks):
            F = dense_stack(blk)
            ref = svec(G[p].T @ F @ G[p])
            np.testing.assert_allclose(U[p], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
            WFW = W[p] @ F @ W[p]
            ref = F.reshape(d, -1) @ WFW.reshape(d, -1).T
            np.testing.assert_allclose(share[p][lower], ref[lower], rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())
            assert np.isnan(share[p][~lower]).all()

    @pytest.mark.parametrize("chunk", [None, 1], ids=["chunked", "by-column"])
    @pytest.mark.parametrize("B", [1, 3])
    def test_w_share_is_bitwise_the_csr_product(self, blocks, B, chunk, monkeypatch):
        # on the lower triangle, the write pass gives scipy's product R @ X of
        # the reference CSR R, X's column l being vec(W F_l W) as the
        # congruence forms it, and the add pass M + R @ X, bit for bit; the
        # write pass leaves the strict upper triangle of M as it is.  M is
        # column-major per problem, as the solver holds it, and the work
        # array stale
        if chunk is not None:
            monkeypatch.setattr(lmi, "_CHUNK", chunk)
        rng = np.random.default_rng(23)
        stk = lmi._Stack.of(blocks[:B])
        _, d, r, s = stk.vals.shape
        G = rng.normal(size=(B, s, s))
        W = G @ G.mT
        ref = w_share_reference(blocks[:B], stk, W)
        work = np.full(lmi._w_words(d, r, s), np.nan)
        lower = np.tri(d, dtype=bool)
        M = np.full((B, d, d), np.nan).transpose(0, 2, 1)
        stk.w_share(W, M, work)
        A = rng.normal(size=(B, d, d))
        M_add = A.transpose(0, 2, 1).copy().transpose(0, 2, 1)
        stk.w_share(W, M_add, work, add=True)
        for p in range(B):
            assert M[p][lower].tobytes() == ref[p][lower].tobytes()
            assert np.isnan(M[p][~lower]).all()
            assert M_add[p][lower].tobytes() == (A[p] + ref[p])[lower].tobytes()

    def test_zero_f_k_gives_exact_zeros(self, blocks):
        # an all-zero F_k is an empty row of each problem's index: its row and
        # column of the share are exact zeros in the write pass, whatever M
        # and the work array held, and the add pass adds zeros there
        rng = np.random.default_rng(24)
        B, d, r, s = len(blocks), blocks[0].d, blocks[0].rows.shape[1], blocks[0].size
        ks = [0, d // 2, d - 1]
        zeroed = []
        for blk in blocks:
            vals = blk.vals.copy()
            vals[ks] = 0.0
            zeroed.append(LmiBlock(F0=blk.F0, rows=blk.rows, vals=vals))
        stk = lmi._Stack.of(zeroed)
        for blk in zeroed:
            assert not np.diff(csr_reference(blk).indptr)[ks].any()
        G = rng.normal(size=(B, s, s))
        W = G @ G.mT
        work = np.full(lmi._w_words(d, r, s), np.nan)
        M = np.full((B, d, d), np.nan).transpose(0, 2, 1)
        stk.w_share(W, M, work)
        A = rng.normal(size=(B, d, d))
        M_add = A.transpose(0, 2, 1).copy().transpose(0, 2, 1)
        stk.w_share(W, M_add, work, add=True)
        for k in ks:
            # row k left of the diagonal and column k below it
            for part, before in ((M[:, k, :k + 1], None), (M[:, k:, k], None),
                                 (M_add[:, k, :k + 1], A[:, k, :k + 1]),
                                 (M_add[:, k:, k], A[:, k:, k])):
                expected = np.zeros(part.shape) if before is None else before
                assert part.tobytes() == np.ascontiguousarray(expected).tobytes()


def w_share_reference(blocks, stk, W):
    """Per problem, scipy's ``csr_reference @ X`` with column l of X vec(W F_l W)
    as ``_congruence`` forms it at the current ``_CHUNK``, from the stack of
    ``blocks``."""
    _, d, r, s = stk.vals.shape
    work = np.empty(lmi._w_words(d, r, s))
    refs = []
    for csr, vals, Wp in zip(map(csr_reference, blocks), stk.vals, W):
        X = np.empty((d, s * s))
        for ls, WFW in lmi._congruence(stk.rows, vals, Wp, Wp, work):
            X[ls] = WFW.reshape(-1, s * s)
        refs.append(csr @ X.T)
    return refs


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
        blk = block_from_dense(self.F0, self.sym_stack())
        assert (blk.d, blk.size) == (2, 3)
        assert np.array_equal(dense_stack(blk), self.sym_stack())

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
            block_from_dense(self.F0, np.zeros((2, 3, 2)))

    def test_rejects_nonsymmetric_f0(self):
        F0 = np.zeros((3, 3))
        F0[0, 2] = 1.0
        with pytest.raises(ValueError, match="malformed problem: F0 not symmetric"):
            block_from_dense(F0, self.sym_stack())

    @pytest.mark.parametrize("entry", [(0, 1, 0), (1, 0, 2)])
    def test_rejects_nonsymmetric_fk(self, entry):
        # (0, 1, 0) breaks a mirrored pair; (1, 0, 2) sits in a row whose
        # mirror entry F_1[2, 0] is zero
        F = self.sym_stack()
        F[entry] = 3.0
        with pytest.raises(ValueError, match="malformed problem: F_k not symmetric"):
            block_from_dense(self.F0, F)

    def test_rejects_nonzero_outside_rows(self):
        vals = np.zeros((2, 1, 3))
        vals[0, 0, 2] = 1.0  # row 0 of F_0 has an entry in column 2, row 2 is not stored
        with pytest.raises(ValueError, match="malformed problem: F_k not symmetric"):
            LmiBlock(F0=self.F0, rows=np.zeros((2, 1), dtype=int), vals=vals)

    def test_problem_rejects_block_of_other_dimension(self):
        blk = block_from_dense(self.F0, self.sym_stack())
        with pytest.raises(ValueError, match="malformed problem: F stack shape mismatch"):
            SdpProblem(layout=layout(2, 0, "analysis"), c=np.zeros(3), blocks=(blk,))



@pytest.mark.parametrize("call, exc, message", [
    (lambda: unsvec(np.zeros(4), 2), DimensionError, "svec vector must have length 3"),
    (lambda: layout(2, 1, "synthesis").pack(np.eye(2)), DimensionError,
     "synthesis layout requires Y"),
    (lambda: layout(2, 0, "analysis").pack(np.eye(2), np.ones((1, 2))), DimensionError,
     "analysis layout takes no Y"),
    (lambda: layout(2, 1, "synthesis").pack(np.eye(2), np.ones((2, 2))), DimensionError,
     "decision vector must have length 5"),
    (lambda: layout(2, 0, "analysis").unpack(np.zeros(4)), DimensionError,
     "decision vector must have length 3"),
    (lambda: layout(2, 0, "bogus"), ValueError,
     "mode must be 'analysis' or 'synthesis', got 'bogus'"),
    (lambda: layout(0, 0, "analysis"), DimensionError, "need n >= 1, got 0"),
    (lambda: petersen_parts(two_state(), np.eye(3)), DimensionError, "P must be 2x2"),
    (lambda: petersen_parts(three_state_qb(), np.eye(3), np.ones((3, 3))), DimensionError,
     "K must be 2x3"),
    (lambda: delta_norm(two_state(), np.eye(2), np.zeros(2), "bogus"), ValueError,
     "mode must be 'analysis' or 'synthesis', got 'bogus'"),
    (lambda: delta_norm(two_state(), np.eye(2), np.zeros(3), "analysis"), DimensionError,
     "x must have length 2"),
], ids=["unsvec-length", "pack-no-Y", "pack-extra-Y", "pack-length", "unpack-length",
        "layout-mode", "layout-n", "petersen-P", "petersen-K", "delta-mode", "delta-x"])
def test_input_rejections(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_block_sizes():
    prob = assemble(three_state_qb(), 1.0, 0.0, "synthesis")
    assert prob.block_sizes() == [blk.size for blk in prob.blocks] == [9, 5]
