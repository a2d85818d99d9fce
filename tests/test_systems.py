import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbstab.errors import DimensionError, EquilibriumError, SchemaError
from qbstab.models import scalar_family, three_state_qb, two_state
from qbstab.systems import (
    QBSystem,
    close_loop,
    eval_dynamics,
    load_system,
    save_system,
    shift_equilibrium,
    stack,
    symmetrize_quadratic,
    symmetry_defect,
    system_from_dict,
    system_to_dict,
    validate,
)
from qbstab.verify import simulate


def rand_system(rng, n, m=0):
    A = rng.normal(size=(n, n))
    H = symmetrize_quadratic(rng.normal(size=(n, n * n)), n)
    if m == 0:
        return QBSystem(A=A, H=H)
    B = rng.normal(size=(n, m))
    D = tuple(rng.normal(size=(n, n)) for _ in range(m))
    return QBSystem(A=A, H=H, B=B, D=D)


class TestSymmetrize:
    def test_paper_two_state_coefficients(self):
        H_raw = np.array([[0.0, 13.8, 0.0, 0.0], [0.0, 5.5, 0.0, 0.0]])
        H = symmetrize_quadratic(H_raw, 2)
        np.testing.assert_allclose(H, [[0.0, 6.9, 6.9, 0.0], [0.0, 2.75, 2.75, 0.0]])

    def test_already_symmetric_is_fixed_point(self):
        H = two_state().H
        np.testing.assert_array_equal(symmetrize_quadratic(H, 2), H)

    def test_scalar_case(self):
        np.testing.assert_array_equal(symmetrize_quadratic(np.array([[3.5]]), 1), [[3.5]])

    def test_shape_error(self):
        with pytest.raises(DimensionError):
            symmetrize_quadratic(np.zeros((2, 3)), 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_symmetry_and_dynamics_preserved(self, n, seed):
        rng = np.random.default_rng(seed)
        H_raw = rng.normal(size=(n, n * n))
        H = symmetrize_quadratic(H_raw, n)
        assert symmetry_defect(H, n) < 1e-14 * (1 + np.abs(H_raw).max())
        for _ in range(5):
            x = rng.normal(size=n)
            xx = np.kron(x, x)
            np.testing.assert_allclose(H @ xx, H_raw @ xx, rtol=1e-12, atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=2 ** 31 - 1))
    def test_kron_symmetry_on_vector_pairs(self, n, seed):
        rng = np.random.default_rng(seed)
        H = symmetrize_quadratic(rng.normal(size=(n, n * n)), n)
        scale = 1 + np.abs(H).max()
        for _ in range(10):
            x1, x2 = rng.normal(size=n), rng.normal(size=n)
            lhs = H @ np.kron(x1, x2)
            rhs = H @ np.kron(x2, x1)
            np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-10 * scale)


class TestValidate:
    def test_symmetry_holds_on_thousand_pairs(self):
        # any system that validates as h_symmetric satisfies the Kronecker
        # symmetry to 1e-10 relative on 1000 random vector pairs
        rng = np.random.default_rng(99)
        for sys_ in (two_state(), three_state_qb(),
                     rand_system(np.random.default_rng(1), 5)):
            assert validate(sys_).h_symmetric
            n = sys_.n
            scale = 1 + np.abs(sys_.H).max()
            x1 = rng.normal(size=(1000, n))
            x2 = rng.normal(size=(1000, n))
            T = sys_.h_tensor()
            lhs = np.einsum("aij,ki,kj->ka", T, x1, x2)
            rhs = np.einsum("aij,ki,kj->ka", T, x2, x1)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_two_state_flags(self):
        rep = validate(two_state())
        assert rep.dims_ok and rep.h_symmetric and rep.a_hurwitz
        assert rep.max_symmetry_defect == 0.0
        assert rep.spectral_abscissa < 0

    def test_identity_not_hurwitz(self):
        rep = validate(QBSystem(A=np.eye(2), H=np.zeros((2, 4))))
        assert not rep.a_hurwitz
        assert rep.spectral_abscissa == pytest.approx(1.0)

    def test_unsymmetrized_h_flagged(self):
        H_raw = np.array([[0.0, 13.8, 0.0, 0.0], [0.0, 5.5, 0.0, 0.0]])
        rep = validate(QBSystem(A=-np.eye(2), H=H_raw))
        assert not rep.h_symmetric
        assert rep.max_symmetry_defect == pytest.approx(13.8)


class TestEvalDynamics:
    def test_two_state_at_ones(self):
        f = eval_dynamics(two_state(), np.array([1.0, 1.0]))
        np.testing.assert_allclose(f, [-52.2, 9.5], rtol=1e-14)

    def test_origin_is_equilibrium(self):
        s = three_state_qb()
        np.testing.assert_array_equal(eval_dynamics(s, np.zeros(3), np.zeros(2)), np.zeros(3))

    def test_scalar_equilibrium_at_one(self):
        s = scalar_family(-1.0, 1.0)
        assert eval_dynamics(s, np.array([1.0])) == pytest.approx(0.0, abs=1e-15)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            eval_dynamics(two_state(), np.zeros(3))
        with pytest.raises(DimensionError):
            eval_dynamics(three_state_qb(), np.zeros(3), np.zeros(1))

    @pytest.mark.parametrize("make", [two_state, three_state_qb,
                                      lambda: stack(three_state_qb(), 2)],
                             ids=["two-state", "three-state", "stacked"])
    def test_batch_matches_single_states(self, make):
        s = make()
        rng = np.random.default_rng(8)
        X = rng.normal(size=(6, s.n))
        U = rng.normal(size=(6, s.m))
        np.testing.assert_allclose(eval_dynamics(s, X),
                                   [eval_dynamics(s, x) for x in X], rtol=1e-14, atol=0)
        np.testing.assert_allclose(eval_dynamics(s, X, U),
                                   [eval_dynamics(s, x, u) for x, u in zip(X, U)],
                                   rtol=1e-14, atol=0)
        with pytest.raises(DimensionError):
            eval_dynamics(s, np.zeros((6, s.n + 1)))
        with pytest.raises(DimensionError):
            eval_dynamics(s, X, np.zeros((6, s.m + 1)))
        with pytest.raises(DimensionError):
            eval_dynamics(s, X, np.zeros((5, s.m)))


class TestShiftEquilibrium:
    def test_scalar_shift(self):
        s = scalar_family(-1.0, 1.0)
        shifted = shift_equilibrium(s, np.array([1.0]))
        assert shifted.A[0, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(shifted.H, s.H)

    def test_zero_shift_returns_same_dynamics(self):
        s = two_state()
        shifted = shift_equilibrium(s, np.zeros(2))
        np.testing.assert_array_equal(shifted.A, s.A)
        np.testing.assert_array_equal(shifted.H, s.H)

    def test_non_equilibrium_rejected(self):
        s = scalar_family(-1.0, 1.0)
        with pytest.raises(EquilibriumError, match="residual"):
            shift_equilibrium(s, np.array([0.5]))

    def test_flow_translation_property(self):
        rng = np.random.default_rng(3)
        # find an equilibrium of a random stable quadratic system by shifting one in
        s = scalar_family(-2.0, 1.0)
        x_e = np.array([2.0])  # -2*2 + 1*4 = 0
        shifted = shift_equilibrium(s, x_e)
        for _ in range(20):
            z = rng.normal(size=1)
            np.testing.assert_allclose(
                eval_dynamics(shifted, z), eval_dynamics(s, z + x_e), rtol=1e-12, atol=1e-12)


class TestCloseLoop:
    def test_scalar_formula(self):
        s = scalar_family(-1.0, 2.0, b=3.0, d=5.0)
        k = 0.7
        closed = close_loop(s, np.array([[k]]))
        assert closed.A[0, 0] == pytest.approx(-1.0 + 3.0 * k)
        assert closed.H[0, 0] == pytest.approx(2.0 + 5.0 * k)

    def test_zero_gain(self):
        s = three_state_qb()
        closed = close_loop(s, np.zeros((2, 3)))
        np.testing.assert_array_equal(closed.A, s.A)
        np.testing.assert_allclose(closed.H, s.H, atol=1e-15)

    def test_eval_identity_random_gain(self):
        s = three_state_qb()
        rng = np.random.default_rng(11)
        K = rng.normal(size=(2, 3))
        closed = close_loop(s, K)
        for _ in range(100):
            x = rng.normal(size=3)
            lhs = eval_dynamics(closed, x)
            rhs = eval_dynamics(s, x, K @ x)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_requires_input(self):
        with pytest.raises(DimensionError):
            close_loop(two_state(), np.zeros((1, 2)))


class TestStack:
    def test_identity_stack(self):
        s = two_state()
        assert stack(s, 1) is s

    def test_two_copies_decouple(self):
        s = two_state()
        ss = stack(s, 2)
        assert ss.n == 4 and ss.m == 0
        traj = simulate(ss, np.array([0.3, -0.2, 0.0, 0.0]), 1.0, 1e-3)
        assert np.max(np.abs(traj.states[:, 2:])) == 0.0
        base = simulate(s, np.array([0.3, -0.2]), 1.0, 1e-3)
        np.testing.assert_allclose(traj.states[:, :2], base.states, rtol=1e-12, atol=1e-14)

    def test_largest_benchmark_size(self):
        ss = stack(two_state(), 100)
        assert ss.n == 200
        assert ss.H.shape == (200, 200 * 200)

    def test_inputs_stack(self):
        ss = stack(three_state_qb(), 2)
        assert ss.n == 6 and ss.m == 4
        rng = np.random.default_rng(5)
        x, u = rng.normal(size=6), rng.normal(size=4)
        f = eval_dynamics(ss, x, u)
        f0 = eval_dynamics(three_state_qb(), x[:3], u[:2])
        f1 = eval_dynamics(three_state_qb(), x[3:], u[2:])
        np.testing.assert_allclose(f, np.concatenate([f0, f1]), rtol=1e-12)

    def test_zero_count_rejected(self):
        with pytest.raises(DimensionError):
            stack(two_state(), 0)


class TestJsonRoundTrip:
    def test_round_trip(self, tmp_path):
        s = three_state_qb()
        path = tmp_path / "sys.json"
        save_system(s, path)
        loaded, defect = load_system(path)
        assert defect == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_array_equal(loaded.A, s.A)
        np.testing.assert_array_equal(loaded.H, s.H)
        np.testing.assert_array_equal(loaded.B, s.B)
        for D1, D2 in zip(loaded.D, s.D):
            np.testing.assert_array_equal(D1, D2)

    def test_triplet_form_and_defect(self):
        doc = {
            "n": 2, "m": 0,
            "A": [[-50.0, -16.0], [13.0, -9.0]],
            "H": {"triplets": [[0, 0, 1, 13.8], [1, 0, 1, 5.5]]},
        }
        s, defect = system_from_dict(doc)
        assert defect == pytest.approx(13.8)
        np.testing.assert_allclose(s.H, two_state().H)

    def test_schema_violations(self):
        with pytest.raises(SchemaError):
            system_from_dict({"n": 2, "A": [[1, 0], [0, 1]]})
        with pytest.raises(SchemaError):
            system_from_dict({"n": 2, "m": 0, "A": [[1]], "H": [[0] * 4] * 2})
        with pytest.raises(SchemaError):
            system_from_dict({"n": 2, "m": 0, "A": [[1, 0], [0, 1]],
                              "H": {"triplets": [[0, 0, 5, 1.0]]}})
        with pytest.raises(SchemaError):
            system_from_dict({"n": 2, "m": 1, "A": [[1, 0], [0, 1]], "H": [[0] * 4] * 2})

    def test_dict_form_omits_empty_input_fields(self):
        doc = system_to_dict(two_state())
        assert "B" not in doc and "D" not in doc


class TestImmutability:
    def test_arrays_read_only(self):
        s = two_state()
        with pytest.raises(ValueError):
            s.A[0, 0] = 1.0
        with pytest.raises(ValueError):
            s.H[0, 0] = 1.0
