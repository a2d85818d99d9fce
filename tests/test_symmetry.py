"""The exact diagonal sign symmetries of a system and the reduced layout.

``lmi._sign_group`` finds the group by elimination over GF(2); every
problem of ``lmi._EpsFamily`` keeps only the svec slots of P (and slots of
Y) that the group fixes (``lmi._symmetric_layout``).
"""

import itertools
import time

import numpy as np
import pytest

from qbstab import certify, lmi
from qbstab.certify import max_trace, optimize_epsilon
from qbstab.lmi import SdpProblem, assemble, layout, svec
from qbstab.models import shear_flow_9, three_state_qb, two_state
from qbstab.systems import QBSystem, stack

from conftest import two_input_shear_flow


def is_symmetry(sys_obj: QBSystem, signs: np.ndarray) -> bool:
    """Whether x -> S x, u -> T u maps the dynamics onto themselves, bit for
    bit: S A S = A, S H (S kron S) = H, S B T = B and t_r S D_r S = D_r.  With
    the signs of the states alone, only the autonomous part A, H is checked."""
    n = sys_obj.n
    s, t = signs[:n], signs[n:]
    pairs = [(s[:, None] * sys_obj.A * s[None, :], sys_obj.A),
             (s[:, None] * sys_obj.H * np.kron(s, s)[None, :], sys_obj.H)]
    if len(t):
        pairs.append((s[:, None] * sys_obj.B * t[None, :], sys_obj.B))
        pairs += [(t[r] * s[:, None] * D * s[None, :], D) for r, D in enumerate(sys_obj.D)]
    return all(np.array_equal(a, b) for a, b in pairs)


def group_elements(G: np.ndarray) -> set:
    """The 2^k sign vectors, as tuples of +-1, that the generators span."""
    out = set()
    for pick in itertools.product((0, 1), repeat=len(G)):
        bits = np.zeros(G.shape[1], dtype=bool)
        for g, on in zip(G, pick):
            bits ^= g & bool(on)
        out.add(tuple(np.where(bits, -1, 1)))
    return out


def planted_system(rng, n: int, m: int) -> QBSystem:
    """A random sparse system that one to three random sign vectors map onto
    itself: every coefficient one of them would flip is dropped, so a larger
    group can arise too."""
    density = rng.uniform(0.02, 0.4)
    keep = [rng.random(shape) < density for shape in ((n, n), (n, n * n), (n, m), (m, n, n))]
    for _ in range(rng.integers(1, 4)):
        s, t = rng.choice((-1.0, 1.0), n), rng.choice((-1.0, 1.0), m)
        for K, flip in zip(keep, (np.outer(s, s), np.outer(s, np.kron(s, s)), np.outer(s, t),
                                  t[:, None, None] * np.outer(s, s))):
            K &= flip > 0
    A, H, B, D = (np.where(K, rng.standard_normal(K.shape), 0.0) for K in keep)
    return QBSystem(A=A - 3.0 * np.eye(n), H=H, B=B, D=list(D))


class TestGroup:
    @pytest.mark.parametrize("seed", range(16))
    def test_matches_brute_force(self, seed):
        # every sign vector of the state (and input) against the span of the
        # generators, analysis and synthesis
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 9)), int(rng.integers(0, 3))
        m = min(m, n)
        sys_obj = planted_system(rng, n, m)
        for mode in ("analysis", "synthesis") if m else ("analysis",):
            w = n + (m if mode == "synthesis" else 0)
            G = lmi._sign_group(sys_obj, mode)
            assert G.shape[1] == w and G.dtype == bool
            # the generators are independent
            assert len(group_elements(G)) == 2 ** len(G)
            brute = {signs for signs in itertools.product((-1, 1), repeat=w)
                     if is_symmetry(sys_obj, np.array(signs, dtype=float))}
            assert group_elements(G) == brute

    @pytest.mark.parametrize("sys_obj", [shear_flow_9(120.0), shear_flow_9(160.0),
                                         shear_flow_9(1e4), stack(shear_flow_9(120.0), 2)],
                             ids=["Re120", "Re160", "Re1e4", "stacked"])
    def test_shear_flow_generators_are_exact(self, sys_obj):
        G = lmi._sign_group(sys_obj, "analysis")
        assert 2 ** len(G) == (16 if sys_obj.n == 18 else 4)
        for g in G:
            s = np.where(g, -1.0, 1.0)
            S = np.diag(s)
            assert np.array_equal(S @ sys_obj.A @ S, sys_obj.A)
            assert np.array_equal(S @ sys_obj.H @ np.kron(S, S), sys_obj.H)

    def test_shear_flow_classes(self):
        lay = assemble(shear_flow_9(120.0), 0.01, 0.0, "analysis").layout
        assert (lay.group_order, lay.d) == (4, 15)
        # P is block-diagonal over {1, 9}, {2, 3}, {4, 5} and {6, 7, 8}
        P = lay.unpack(np.arange(1.0, 16.0))[0]
        blocks = [[0, 8], [1, 2], [3, 4], [5, 6, 7]]
        mask = np.zeros((9, 9), dtype=bool)
        for b in blocks:
            mask[np.ix_(b, b)] = True
        assert np.all(P[mask] != 0) and not P[~mask].any()

    def test_trivial_groups(self):
        # a trivial group keeps every slot, in ``_svec_index`` order
        rng = np.random.default_rng(3)
        dense = QBSystem(A=rng.standard_normal((30, 30)) - 10 * np.eye(30),
                         H=rng.standard_normal((30, 900)))
        cases = [(sys_obj, "analysis") for sys_obj in
                 (two_state(), three_state_qb(), stack(two_state(), 20), dense)]
        for sys_obj, mode in cases + [(three_state_qb(), "synthesis")]:
            assert len(lmi._sign_group(sys_obj, mode)) == 0
            lay = lmi._symmetric_layout(sys_obj, mode)
            assert lay.slots == tuple(range(lay.d)) and lay.group_order == 1
            assert lay == layout(sys_obj.n, sys_obj.m, mode)
            for got, want in zip(lay.p_slots, lmi._svec_index(sys_obj.n)):
                assert np.array_equal(got, want)

    def test_detection_time(self):
        # n = 80 stacked and a dense n = 30 system: 1.7 ms each on a 2-core
        # machine; the bound leaves room for a loaded host
        rng = np.random.default_rng(3)
        dense = QBSystem(A=rng.standard_normal((30, 30)) - 10 * np.eye(30),
                         H=rng.standard_normal((30, 900)))
        for sys_obj in (stack(two_state(), 40), dense):
            best = np.inf
            for _ in range(5):
                t = time.perf_counter()
                lmi._sign_group(sys_obj, "analysis")
                best = min(best, time.perf_counter() - t)
            assert best < 0.05


class TestLayout:
    def test_pack_rejects_an_entry_outside_the_slots(self):
        lay = assemble(shear_flow_9(120.0), 0.01, 0.0, "analysis").layout
        P = np.eye(9)
        assert np.array_equal(lay.unpack(lay.pack(P))[0], P)
        P[0, 1] = P[1, 0] = 1e-3
        with pytest.raises(ValueError, match="outside the layout's slots"):
            lay.pack(P)

    def test_synthesis_slots(self):
        # the input flips with the states it drives: Y[r, c] stays where t_r = s_c
        A = -np.eye(3)
        A[0, 1] = A[1, 0] = 0.5
        H = np.zeros((3, 9))
        H[2, 0] = 1.0  # x_1^2 drives x_3, so s_3 = +1
        sys_obj = QBSystem(A=A, H=H, B=np.array([[1.0], [0.0], [0.0]]), D=[np.zeros((3, 3))])
        lay = lmi._symmetric_layout(sys_obj, "synthesis")
        assert lay.group_order == 2
        P, Y = lay.unpack(np.arange(1.0, lay.d + 1))
        assert np.count_nonzero(P) == 5 and P[0, 2] == P[1, 2] == 0
        assert np.array_equal(Y != 0, [[True, True, False]])

    def test_default_layout_keeps_every_slot(self):
        lay = layout(3, 1, "synthesis")
        assert (lay.slots, lay.group_order, lay.d) == (tuple(range(9)), 1, 9)
        P = np.arange(9.0).reshape(3, 3)
        P = P + P.T
        x = lay.pack(P, np.ones((1, 3)))
        assert np.array_equal(x[:6], svec(P))


class TestMalformedObjective:
    # a length-5 c ended in a numpy broadcast error inside ``solve``, and a NaN
    # in c in NumericalFailure "Schur complement not finite"
    def test_rejects_a_c_of_another_length(self):
        prob = assemble(two_state(), 0.4, 1e-6, "analysis")
        with pytest.raises(ValueError, match="malformed problem: c has shape"):
            SdpProblem(layout=prob.layout, c=np.ones(5), blocks=prob.blocks)

    def test_rejects_a_c_that_is_not_finite(self):
        prob = assemble(two_state(), 0.4, 1e-6, "analysis")
        c = prob.c.copy()
        c[1] = np.nan
        with pytest.raises(ValueError, match="malformed problem: c not finite"):
            SdpProblem(layout=prob.layout, c=c, blocks=prob.blocks)


def trivial_group(monkeypatch):
    """Make every layout keep every slot."""
    monkeypatch.setattr(lmi, "_sign_group", lambda sys_obj, mode: np.zeros(
        (0, sys_obj.n + (sys_obj.m if mode == "synthesis" else 0)), dtype=bool))


class TestReducedAgreesWithFull:
    def test_shear_flow_search(self, monkeypatch):
        # the Re = 120 search at d = 15 and at d = 45: the same eps points,
        # statuses and iteration counts, traces within 1e-9
        sys_obj = shear_flow_9(120.0)
        reduced = optimize_epsilon(sys_obj, (1e-3, 1.0), 1e-3)
        trivial_group(monkeypatch)
        full = optimize_epsilon(sys_obj, (1e-3, 1.0), 1e-3)
        assert (reduced.symmetry_order, full.symmetry_order) == (4, 1)
        assert reduced.solves == full.solves
        for r, f in zip(reduced.history, full.history, strict=True):
            assert (r.epsilon, r.status, r.solved) == (f.epsilon, f.status, f.solved)
            if r.feasible:
                assert r.certificate.solver_report["iters"] == f.certificate.solver_report["iters"]
                assert r.trace_P == pytest.approx(f.trace_P, rel=1e-9)
                assert r.certificate.solver_report["decision_dim"] == 15
                assert f.certificate.solver_report["decision_dim"] == 45
        assert reduced.best.trace_P == pytest.approx(full.best.trace_P, rel=1e-9)

    def test_synthesis(self, monkeypatch):
        sys_obj = two_input_shear_flow(120.0)
        reduced = max_trace(sys_obj, 0.003, None, "synthesis")
        trivial_group(monkeypatch)
        full = max_trace(sys_obj, 0.003, None, "synthesis")
        assert reduced.solver_report["symmetry_order"] == 4
        assert reduced.solver_report["decision_dim"] < full.solver_report["decision_dim"] == 63
        assert reduced.solver_report["status"] == full.solver_report["status"] == "Optimal"
        assert reduced.trace_P == pytest.approx(full.trace_P, rel=1e-9)
        assert not reduced.Y[1, [0, 8]].any()


def test_reports_carry_the_group():
    sweep = certify.sweep_epsilon(two_state(), [0.1, 0.2], None, "analysis")
    assert sweep.symmetry_order == 1
    report = sweep.entries[0].certificate.solver_report
    assert (report["symmetry_order"], report["decision_dim"]) == (1, 3)
