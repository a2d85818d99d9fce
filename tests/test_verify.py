import numpy as np
import pytest

from qbstab.certify import Certificate, max_trace
from qbstab.errors import DimensionError, NotPositiveDefiniteError
from qbstab.models import scalar_family, three_state_qb, two_state
from qbstab.systems import QBSystem
from qbstab.verify import convergence_check, sample_check, simulate, vdot

SCALAR = scalar_family(-1.0, 1.0)
LINEAR = QBSystem(A=np.array([[-1.0]]), H=np.zeros((1, 1)))


@pytest.fixture(scope="module")
def scalar_cert():
    return max_trace(SCALAR, 1.0, 0.01, "analysis")


class TestVdot:
    def test_zero_at_origin(self, scalar_cert):
        assert vdot(SCALAR, scalar_cert.P, np.zeros(1)) == 0.0

    def test_hand_value(self):
        val = vdot(SCALAR, np.array([[0.99]]), np.array([0.9]))
        assert val == pytest.approx(2.0 * (1.0 / 0.99) * 0.9 * (-0.9 + 0.81), rel=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            vdot(SCALAR, np.array([[-1.0]]), np.array([0.5]))

    def test_rejects_driven_system(self, scalar_cert):
        with pytest.raises(DimensionError):
            vdot(three_state_qb(), np.eye(3), np.zeros(3))

    @pytest.mark.parametrize("system,eps,dt", [
        (SCALAR, 1.0, 1e-4),        # unit-rate flow at the reference step
        (two_state(), 0.3, 2e-6),   # fast flow: step scaled by its rate
    ])
    def test_matches_central_difference_along_flow(self, system, eps, dt):
        cert = max_trace(system, eps, None, "analysis")
        x0 = 0.5 * cert.ellipsoid().bounding_halfwidths()
        traj = simulate(system, x0, 200 * dt, dt)
        Pinv = np.linalg.inv(cert.P)
        V = np.einsum("ki,ij,kj->k", traj.states, Pinv, traj.states)
        for k in range(1, len(V) - 1, 10):
            fd = (V[k + 1] - V[k - 1]) / (2 * dt)
            an = vdot(system, cert.P, traj.states[k])
            assert fd == pytest.approx(an, rel=1e-6)


class TestSimulate:
    def test_linear_decay(self):
        traj = simulate(LINEAR, np.array([1.0]), 1.0, 1e-3)
        assert traj.final_state()[0] == pytest.approx(np.exp(-1.0), abs=1e-9)
        assert not traj.terminated_early

    def test_zero_stays_zero(self):
        traj = simulate(SCALAR, np.zeros(1), 1.0, 1e-2)
        assert np.max(np.abs(traj.states)) == 0.0

    def test_divergence_guard(self):
        # above the scalar separatrix x = 1 the flow blows up in finite time
        traj = simulate(SCALAR, np.array([1.5]), 50.0, 1e-3)
        assert traj.terminated_early
        assert traj.times[-1] < 50.0

    def test_fourth_order_convergence(self):
        exact = np.exp(-1.0)
        err = []
        for dt in (0.1, 0.05):
            traj = simulate(LINEAR, np.array([1.0]), 1.0, dt)
            err.append(abs(traj.final_state()[0] - exact))
        assert err[0] / err[1] >= 14.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate(LINEAR, np.array([1.0]), 1.0, 0.0)
        with pytest.raises(DimensionError):
            simulate(LINEAR, np.array([1.0, 2.0]), 1.0, 0.1)

    def test_csv_export(self, tmp_path):
        traj = simulate(LINEAR, np.array([1.0]), 0.01, 1e-3)
        path = tmp_path / "traj.csv"
        traj.to_csv(path, timestamp="T")
        lines = path.read_text().splitlines()
        assert lines[1] == "t,x1"
        assert len(lines) == 2 + len(traj.times)


class TestSampleCheck:
    def test_scalar_certificate_clean(self, scalar_cert):
        rep = sample_check(SCALAR, scalar_cert, 10_000, seed=0)
        assert rep.violations == 0
        assert rep.samples_tested == 10_000
        assert rep.max_vdot_ratio <= -scalar_cert.alpha + 1e-9
        assert rep.passed

    def test_inflated_certificate_fails(self, scalar_cert):
        # doubling P pushes the boundary past the true basin edge x = 1
        fake = Certificate(mode="analysis", P=2.0 * scalar_cert.P,
                           epsilon=scalar_cert.epsilon, alpha=scalar_cert.alpha,
                           trace_P=float(2.0 * scalar_cert.trace_P))
        rep = sample_check(SCALAR, fake, 10_000, seed=0)
        assert rep.violations > 0
        assert not rep.passed

    def test_synthesis_closes_loop(self):
        s = three_state_qb()
        cert = max_trace(s, 1.0, None, "synthesis")
        rep = sample_check(s, cert, 5_000, seed=3)
        assert rep.violations == 0

    def test_deterministic_given_seed(self, scalar_cert):
        a = sample_check(SCALAR, scalar_cert, 2_000, seed=7)
        b = sample_check(SCALAR, scalar_cert, 2_000, seed=7)
        assert a.max_vdot_ratio == b.max_vdot_ratio

    def test_dimension_mismatch(self, scalar_cert):
        with pytest.raises(DimensionError):
            sample_check(two_state(), scalar_cert, 100, seed=0)


class TestConvergenceCheck:
    def test_scalar_certificate_all_converge(self, scalar_cert):
        rep = convergence_check(SCALAR, scalar_cert, 100, t_final=25.0, dt=1e-3, seed=1)
        assert rep.trajectories_converged == rep.trajectories_total == 100
        assert rep.violations == 0
        assert rep.passed

    def test_exponential_envelope(self, scalar_cert):
        # alpha = 0.01 certificate: V(t) <= V(0) exp(-alpha t)(1 + 1e-3)
        rep = convergence_check(SCALAR, scalar_cert, 50, t_final=25.0, dt=1e-3, seed=2,
                                envelope_tol=1e-3)
        assert rep.violations == 0

    def test_two_state_boundary_converges(self):
        s = two_state()
        cert = max_trace(s, 0.3, None, "analysis")
        rep = convergence_check(s, cert, 50, t_final=5.0, dt=1e-3, seed=4)
        assert rep.trajectories_converged == 50
        assert rep.violations == 0

    @pytest.mark.parametrize("n_traj,t_final,dt", [
        (5, 1.0, 0.0), (5, 1.0, -1e-3), (5, 0.0, 1e-3), (5, -5.0, 1e-3), (0, 1.0, 1e-3),
    ])
    def test_rejects_bad_step_inputs(self, scalar_cert, n_traj, t_final, dt):
        with pytest.raises(ValueError, match="need dt > 0"):
            convergence_check(SCALAR, scalar_cert, n_traj, t_final=t_final, dt=dt, seed=1)

    def test_invalid_certificate_flags_divergence(self):
        # a hand-made "certificate" far beyond the true basin: trajectories escape
        fake = Certificate(mode="analysis", P=np.array([[4.0]]), epsilon=1.0,
                           alpha=0.0, trace_P=4.0)
        rep = convergence_check(SCALAR, fake, 20, t_final=10.0, dt=1e-3, seed=5)
        assert rep.violations > 0
        assert rep.trajectories_converged < rep.trajectories_total
