import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import THREE_STATE_GRID
from qbstab.certify import (
    Certificate,
    Ellipsoid,
    Infeasible,
    UnionRegion,
    deserialize_certificate,
    ellipsoid_volume,
    extract_gain,
    load_certificate,
    max_trace,
    optimize_epsilon,
    save_certificate,
    serialize_certificate,
    sweep_epsilon,
    union_volume,
)
from qbstab import sdp
from qbstab.errors import DimensionError, NotPositiveDefiniteError, SchemaError
from qbstab.lmi import assemble, default_delta, default_mu
from qbstab.models import scalar_family, three_state_qb, two_state
from qbstab.sdp import check_block_feasibility

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
        assert rep["gain_norm"] is None and rep["relaxed_retry"] is False
        lam_min = np.linalg.eigvalsh(cert.P)[0]
        assert rep["lambda_min_over_delta"] == pytest.approx(lam_min / default_delta(two_state()))
        assert rep["floor_active"] is False
        syn = max_trace(three_state_qb(), 1.0, None, "synthesis")
        assert syn.solver_report["gain_norm"] == pytest.approx(np.linalg.norm(syn.K, 2))


class TestSynthesisGrid:
    def test_one_solve_per_eps(self, monkeypatch):
        # a strict solve that ends NumericalFailure or IterLimit is not
        # repeated: its certificate comes from the solve's relaxed solution
        statuses = []

        def counting_solve(problem, config=None):
            sol = sdp.solve(problem, config)
            statuses.append(sol.status)
            return sol

        monkeypatch.setattr("qbstab.certify.solve", counting_solve)
        sweep = sweep_epsilon(three_state_qb(), THREE_STATE_GRID, None, "synthesis")
        assert len(statuses) == len(THREE_STATE_GRID)
        for entry, status in zip(sweep.entries, statuses):
            if entry.feasible:
                assert entry.certificate.solver_report["relaxed_retry"] == (
                    status in ("NumericalFailure", "IterLimit"))

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
        sw = sweep_epsilon(SCALAR, [0.5, 1.0], 0.01, "analysis")
        path = tmp_path / "sweep.csv"
        sw.to_csv(path, timestamp="T")
        lines = path.read_text().splitlines()
        assert lines[0] == "# generated: T"
        assert lines[1] == "epsilon,feasible,trace_P"
        assert lines[2].startswith("0.5,1,0.745")


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
        assert res.infeasible is not None
        assert all(not e.feasible for e in res.history)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            optimize_epsilon(SCALAR, (0.0, 1.0))
        with pytest.raises(ValueError):
            optimize_epsilon(SCALAR, (1.0, 0.5))

    @pytest.mark.parametrize("rel_tol", [0.0, -1.0, float("nan"), float("inf")])
    def test_rel_tol_validation(self, monkeypatch, rel_tol):
        # rejected before any solve: rel_tol <= 0 would never end the refinement
        monkeypatch.setattr("qbstab.certify.solve", None)
        with pytest.raises(ValueError, match="rel_tol"):
            optimize_epsilon(SCALAR, (0.1, 2.0), rel_tol=rel_tol)


class TestExtractGain:
    def test_identity(self):
        P = np.eye(3)
        Y = np.array([[1.0, 0.0, 0.0]])
        cert = Certificate(mode="synthesis", P=P, epsilon=1.0, alpha=0.0, Y=Y,
                           K=Y.copy(), trace_P=3.0)
        np.testing.assert_allclose(extract_gain(cert), [[1.0, 0.0, 0.0]])

    def test_diagonal(self):
        P = np.diag([2.0, 1.0])
        Y = np.array([[4.0, 3.0]])
        cert = Certificate(mode="synthesis", P=P, epsilon=1.0, alpha=0.0, Y=Y,
                           K=np.array([[2.0, 3.0]]), trace_P=3.0)
        np.testing.assert_allclose(extract_gain(cert), [[2.0, 3.0]])

    def test_analysis_certificate_rejected(self):
        cert = max_trace(SCALAR, 1.0, 0.01, "analysis")
        with pytest.raises(DimensionError):
            extract_gain(cert)


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

    def test_membership(self):
        e = Ellipsoid(P=np.diag([4.0, 1.0]))
        assert e.contains([1.9, 0.0])
        assert not e.contains([2.1, 0.0])

    def test_bounding_halfwidths(self):
        e = Ellipsoid(P=np.diag([4.0, 9.0]))
        np.testing.assert_allclose(e.bounding_halfwidths(), [2.0, 3.0])


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


def _random_region(n: int, members: int, seed: int) -> UnionRegion:
    """Overlapping SPD ellipsoids of varied size and shape around the origin."""
    rng = np.random.default_rng(seed)
    Ps = []
    for _ in range(members):
        A = rng.standard_normal((n, n))
        Ps.append(rng.uniform(0.2, 5.0) * (A @ A.T / n + 0.1 * np.eye(n)))
    return UnionRegion(members=tuple(Ellipsoid(P=P) for P in Ps))


def _einsum_union_volume(region: UnionRegion, samples: int, seed: int) -> float:
    """Reference estimate: every member tested by its own einsum, 2**19-point draws."""
    hw = np.max([e.bounding_halfwidths() for e in region.members], axis=0)
    invs = [np.linalg.inv(e.P) for e in region.members]
    rng = np.random.default_rng(seed)
    hits = 0
    for start in range(0, samples, 1 << 19):
        pts = rng.uniform(-hw, hw, size=(min(1 << 19, samples - start), region.n))
        inside = np.zeros(pts.shape[0], dtype=bool)
        for Pi in invs:
            inside |= np.einsum("ki,ij,kj->k", pts, Pi, pts) <= 1.0
        hits += int(inside.sum())
    return float(np.prod(2.0 * hw)) * (hits / samples)


class TestUnionVolumeKernel:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_hits_equal_per_member_einsum(self, seed):
        # 2**19 + 17 is a multiple of neither the reference's draw chunk nor
        # union_volume's byte-sized chunks, so the split of the random stream
        # and the ragged last chunks are both exercised
        region = _random_region(3, 20, 11)
        samples = (1 << 19) + 17
        est, _ = union_volume(region, samples, seed)
        assert est == _einsum_union_volume(region, samples, seed)

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

    def test_schema_guard(self):
        with pytest.raises(SchemaError):
            deserialize_certificate({"schema": "something-else"})
