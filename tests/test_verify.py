import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_solve

from qbstab import verify
from qbstab.certify import Certificate, ellipsoid_points, max_trace
from qbstab.cli import main as cli_main
from qbstab.errors import DimensionError, NotPositiveDefiniteError
from qbstab.lmi import _spd_factor
from qbstab.models import scalar_family, shear_flow_9, three_state_qb, two_state
from qbstab.systems import QBSystem, eval_dynamics, save_system, stack
from qbstab.verify import convergence_check, sample_check, simulate, vdot

SCALAR = scalar_family(-1.0, 1.0)
LINEAR = QBSystem(A=np.array([[-1.0]]), H=np.zeros((1, 1)))
# far beyond the true basin x < 1: the trajectories from x0 = 2 escape near t = ln 2
ESCAPING = Certificate(mode="analysis", P=np.array([[4.0]]), epsilon=1.0, alpha=0.0)


def _reference_rk4_step(sys, X, dt):
    k1 = eval_dynamics(sys, X)
    k2 = eval_dynamics(sys, X + 0.5 * dt * k1)
    k3 = eval_dynamics(sys, X + 0.5 * dt * k2)
    k4 = eval_dynamics(sys, X + dt * k3)
    return X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_simulate(sys_cl, x0, t_final, dt):
    """The step-by-step simulate loop: (states, terminated_early)."""
    x0 = np.asarray(x0, dtype=float)
    steps = max(1, int(round(t_final / dt)))
    guard = verify.DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(x0)))
    states = [x0]
    X = x0[None, :].copy()
    for _ in range(steps):
        X = _reference_rk4_step(sys_cl, X, dt)
        if not np.all(np.isfinite(X)) or float(np.linalg.norm(X[0])) > guard:
            return np.array(states), True
        states.append(X[0])
    return np.array(states), False


def reference_convergence_check(sys, cert, n_traj, t_final, dt, seed, envelope_tol=1e-3):
    """The step-by-step audit: one RK4 step and all its checks per pass.

    Returns the report and the first step (1-based) at which a trajectory
    escaped, or None.
    """
    closed = verify._closed_system(sys, cert)
    X = verify.boundary_points(cert.P, n_traj, np.random.default_rng(seed))
    x0_norms = np.linalg.norm(X, axis=1)
    factor = _spd_factor(cert.P)
    steps = max(1, int(round(t_final / dt)))
    guard = verify.DIVERGENCE_FACTOR * (1.0 + float(np.max(x0_norms)))

    def v_of(Xb):
        Z = cho_solve(factor, Xb.T).T
        return np.sum(Xb * Z, axis=1)

    V0 = v_of(X)
    V_prev = V0.copy()
    violations = 0
    min_margin = np.inf
    alive = np.ones(n_traj, dtype=bool)
    t = 0.0
    check_floor = 1e-14 * np.maximum(V0, 1e-300)
    first_escape = None
    for k in range(1, steps + 1):
        X = _reference_rk4_step(closed, X, dt)
        t += dt
        finite = np.all(np.isfinite(X), axis=1)
        size_ok = np.linalg.norm(np.where(finite[:, None], X, 0.0), axis=1) <= guard
        diverged = alive & ~(finite & size_ok)
        if np.any(diverged):
            first_escape = first_escape or k
            violations += int(np.count_nonzero(diverged))
            alive &= ~diverged
            X[~alive] = 0.0
        V = v_of(X)
        live = alive & (V_prev > check_floor)
        bad = live & (V - V_prev > 1e-10 * V_prev)
        violations += int(np.count_nonzero(bad))
        if cert.alpha > 0:
            envelope = V0 * np.exp(-cert.alpha * t) * (1.0 + envelope_tol)
            violations += int(np.count_nonzero(live & (V > envelope)))
        if np.any(live):
            dec = (V_prev[live] - V[live]) / (dt * V_prev[live])
            min_margin = min(min_margin, float(np.min(dec)) - cert.alpha)
        V_prev = V
    final_norms = np.linalg.norm(X, axis=1)
    converged = int(np.count_nonzero(alive & (final_norms <= verify.CONV_RTOL * x0_norms)))
    live_final = alive & (V_prev > check_floor)
    ratios = np.zeros(0)
    if np.any(live_final):
        Z = cho_solve(factor, X[live_final].T).T
        Vd = 2.0 * np.sum(Z * eval_dynamics(closed, X[live_final]), axis=1)
        ratios = Vd / V_prev[live_final]
    report = verify.VerificationReport(
        samples_tested=n_traj * steps,
        max_vdot_ratio=float(np.max(ratios)) if ratios.size else 0.0,
        violations=violations,
        trajectories_converged=converged,
        trajectories_total=n_traj,
        min_decay_margin=float(min_margin) if np.isfinite(min_margin) else 0.0,
    )
    return report, first_escape


def reference_sample_check(sys, cert, n_samples, seed):
    """sample_check with P^-1 X solved once for V and once for dV/dt."""
    closed = verify._closed_system(sys, cert)
    X = ellipsoid_points(cert.P, n_samples, np.random.default_rng(seed))
    factor = _spd_factor(cert.P)
    V = np.sum(X * cho_solve(factor, X.T).T, axis=1)
    Vd = 2.0 * np.sum(cho_solve(factor, X.T).T * eval_dynamics(closed, X), axis=1)
    slack = 1e-9 * (1.0 + np.abs(Vd))
    ratios = Vd[V > 1e-300] / V[V > 1e-300]
    return verify.VerificationReport(
        samples_tested=n_samples,
        max_vdot_ratio=float(np.max(ratios)) if ratios.size else 0.0,
        violations=int(np.count_nonzero(Vd > -cert.alpha * V + slack)),
        trajectories_converged=0,
        trajectories_total=0,
        min_decay_margin=float(np.min(-ratios - cert.alpha)) if ratios.size else 0.0,
    )


def nine_state_cases():
    """Nine-state (system, certificate) pairs: the shear flow with a full P,
    and three stacked three-state copies with a synthesis gain.  At n = 9 the
    (n + n^2)-long field products pass BLAS k-blocking and the n-long sums
    numpy's 8-element pairwise-summation threshold."""
    shear = shear_flow_9(120.0)
    M = np.random.default_rng(1).normal(size=(9, 9))
    P = 1e-2 * (M @ M.T / 9 + np.eye(9))
    stacked = stack(three_state_qb(), 3)
    K = 0.1 * np.random.default_rng(2).normal(size=(stacked.m, 9))
    return [(shear, Certificate(mode="analysis", P=P, epsilon=1.0, alpha=0.0)),
            (stacked, Certificate(mode="synthesis", P=P, epsilon=1.0, alpha=0.0, Y=K @ P, K=K))]


def _block_bytes(steps, n_traj, n):
    """An AUDIT_BLOCK_BYTES that makes blocks of exactly ``steps`` steps."""
    return steps * n_traj * n * 8


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_state(self, bad):
        with pytest.raises(ValueError, match="finite"):
            vdot(two_state(), np.eye(2), np.array([0.1, bad]))

    @pytest.mark.parametrize("P,x,shapes", [
        (np.eye(2), np.zeros(3), r"x of shape \(3,\) and P of shape \(2, 2\)"),
        (np.eye(3), np.zeros(2), r"x of shape \(2,\) and P of shape \(3, 3\)"),
    ], ids=["long-x", "large-P"])
    def test_rejects_mismatched_shapes(self, P, x, shapes):
        with pytest.raises(DimensionError, match=shapes):
            vdot(two_state(), P, x)

    @pytest.mark.parametrize("system,eps,dt", [
        (SCALAR, 1.0, 1e-4),        # unit-rate flow at the reference step
        (two_state(), 0.3, 2e-6),   # fast flow: step scaled by its rate
    ])
    def test_matches_central_difference_along_flow(self, system, eps, dt):
        cert = max_trace(system, eps, None, "analysis")
        x0 = 0.5 * np.sqrt(np.diag(cert.P))
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
        assert traj.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-9)
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
            err.append(abs(traj.states[-1, 0] - exact))
        assert err[0] / err[1] >= 14.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate(LINEAR, np.array([1.0]), 1.0, 0.0)
        with pytest.raises(DimensionError):
            simulate(LINEAR, np.array([1.0, 2.0]), 1.0, 0.1)

    @pytest.mark.parametrize("t_final,dt", [(1.0, np.nan), (np.nan, 1e-3),
                                            (1.0, np.inf), (np.inf, 1e-3)])
    def test_rejects_nan_step_inputs(self, t_final, dt):
        with pytest.raises(ValueError, match="need dt > 0"):
            simulate(LINEAR, np.array([1.0]), t_final, dt)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_x0(self, value):
        # a NaN x0 gave a one-state trajectory flagged terminated_early
        with pytest.raises(ValueError, match="x0 must be finite"):
            simulate(two_state(), np.array([value, 0.0]), 1.0, 0.01)

    def test_csv_export(self, tmp_path):
        # trajectory CSVs are written by the CLI's CSV writer
        traj = simulate(LINEAR, np.array([1.0]), 0.01, 1e-3)
        sys_path = tmp_path / "lin.json"
        save_system(LINEAR, sys_path)
        out = tmp_path / "sim"
        assert cli_main(["simulate", "--system", str(sys_path), "--x0", "1.0",
                         "--t-final", "0.01", "--dt", "0.001", "--out", str(out)]) == 0
        lines = (out / "trajectory_000.csv").read_text().splitlines()
        assert lines[0].startswith("# generated: ")
        assert lines[1] == "t,x1"
        assert len(lines) == 2 + len(traj.times)
        assert [float(v) for v in lines[-1].split(",")] == [traj.times[-1], traj.states[-1, 0]]


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
                           epsilon=scalar_cert.epsilon, alpha=scalar_cert.alpha)
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

    def test_rejects_negative_count(self, scalar_cert):
        with pytest.raises(ValueError, match="n_samples must be non-negative, got -1"):
            sample_check(SCALAR, scalar_cert, -1, seed=0)


class TestConvergenceCheck:
    def test_scalar_certificate_all_converge(self, scalar_cert):
        rep = convergence_check(SCALAR, scalar_cert, 100, t_final=25.0, dt=1e-3, seed=1)
        assert rep.trajectories_converged == rep.trajectories_total == 100
        assert rep.violations == 0
        assert rep.passed

    def test_exponential_envelope(self, scalar_cert):
        # alpha = 0.01 certificate: V(t) <= V(0) exp(-alpha t)(1 + 1e-3)
        rep = convergence_check(SCALAR, scalar_cert, 50, t_final=25.0, dt=1e-3, seed=2)
        assert rep.violations == 0

    def test_two_state_boundary_converges(self):
        s = two_state()
        cert = max_trace(s, 0.3, None, "analysis")
        rep = convergence_check(s, cert, 50, t_final=5.0, dt=1e-3, seed=4)
        assert rep.trajectories_converged == 50
        assert rep.violations == 0

    @pytest.mark.parametrize("n_traj,t_final,dt", [
        (5, 1.0, 0.0), (5, 1.0, -1e-3), (5, 0.0, 1e-3), (5, -5.0, 1e-3), (0, 1.0, 1e-3),
        (5, 1.0, np.nan), (5, np.nan, 1e-3), (5, 1.0, np.inf), (5, np.inf, 1e-3),
    ])
    def test_rejects_bad_step_inputs(self, scalar_cert, n_traj, t_final, dt):
        with pytest.raises(ValueError, match="need dt > 0"):
            convergence_check(SCALAR, scalar_cert, n_traj, t_final=t_final, dt=dt, seed=1)

    def test_invalid_certificate_flags_divergence(self):
        # a hand-made "certificate" far beyond the true basin: trajectories escape
        fake = Certificate(mode="analysis", P=np.array([[4.0]]), epsilon=1.0, alpha=0.0)
        rep = convergence_check(SCALAR, fake, 20, t_final=10.0, dt=1e-3, seed=5)
        assert rep.violations > 0
        assert rep.trajectories_converged < rep.trajectories_total


class TestBlockParity:
    """The block audit and simulate equal the step-by-step loops bit for bit."""

    def test_two_state_certificate(self, two_state_sweep):
        cert = two_state_sweep.feasible_entries()[10].certificate
        args = (two_state(), cert, 60, 5.0, 1e-3, 3)  # 5000 steps: blocks of 273, last 86
        assert convergence_check(*args) == reference_convergence_check(*args)[0]

    def test_three_state_synthesis_certificate(self, three_state_sweep):
        cert = three_state_sweep.feasible_entries()[7].certificate
        args = (three_state_qb(), cert, 100, 25.0, 0.01, 3)  # 2500 steps: blocks of 109, last 102
        assert convergence_check(*args) == reference_convergence_check(*args)[0]

    def test_alpha_envelope_certificate(self):
        s = two_state()
        args = (s, max_trace(s, 0.3, 0.1, "analysis"), 50, 5.0, 1e-3, 2)
        rep = convergence_check(*args)
        assert rep == reference_convergence_check(*args)[0]
        assert rep.min_decay_margin > 0.0  # the envelope checks ran on live steps

    @pytest.mark.parametrize("layout", [
        "below one block", "not a multiple", "escape opens a block", "escape closes a block"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_escaping_certificate(self, monkeypatch, layout, seed):
        args = (SCALAR, ESCAPING, 20, 1.0, 1e-3, seed)
        ref, escape = reference_convergence_check(*args)
        assert ref.violations > 0 and escape > 2
        block = {"below one block": 1500, "not a multiple": 300,
                 "escape opens a block": escape - 1, "escape closes a block": escape}[layout]
        monkeypatch.setattr(verify, "AUDIT_BLOCK_BYTES", _block_bytes(block, 20, 1))
        assert convergence_check(*args) == ref

    def test_escape_by_norm_before_any_entry(self, monkeypatch):
        # x' = x from x0 = (0.69, -0.72) (seed 0): |x| passes the guard 32
        # steps before either entry does, so only the norm test sees it in time
        args = (QBSystem(A=np.eye(2), H=np.zeros((2, 4))), Certificate(mode="analysis", P=np.eye(2),
                epsilon=1.0, alpha=0.0), 1, 20.0, 0.01, 0)
        ref, escape = reference_convergence_check(*args)
        assert ref.violations > 0 and escape is not None
        monkeypatch.setattr(verify, "AUDIT_BLOCK_BYTES", _block_bytes(5, 1, 2))
        assert convergence_check(*args) == ref

    @pytest.mark.parametrize("system,x0,t_final", [
        (SCALAR, [0.9], 5.0),
        (SCALAR, [1.5], 50.0),  # escapes at step 1100 of 50000
        (stack(two_state(), 2), [0.3, -0.2, 0.0, 0.0], 1.0),
    ])
    def test_simulate_states(self, system, x0, t_final):
        traj = simulate(system, np.array(x0), t_final, 1e-3)
        states, terminated = reference_simulate(system, x0, t_final, 1e-3)
        assert traj.terminated_early == terminated
        assert np.array_equal(traj.states, states)

    @pytest.mark.parametrize("case", [0, 1], ids=["shear flow", "stacked synthesis"])
    def test_nine_state_certificate(self, monkeypatch, case):
        sys, cert = nine_state_cases()[case]
        args = (sys, cert, 8, 20.0, 0.05, 4)  # 400 steps: blocks of 150, last 100
        monkeypatch.setattr(verify, "AUDIT_BLOCK_BYTES", _block_bytes(150, 8, 9))
        assert convergence_check(*args) == reference_convergence_check(*args)[0]

    def test_nine_state_escaping_certificate(self):
        # nine copies of x' = -x + x^2 from |x0| = 2: the copies beyond x = 1 escape
        args = (stack(SCALAR, 9), Certificate(mode="analysis", P=4.0 * np.eye(9),
                epsilon=1.0, alpha=0.0), 6, 3.0, 0.01, 0)
        ref, escape = reference_convergence_check(*args)
        assert ref.violations > 0 and escape is not None
        assert convergence_check(*args) == ref

    def test_nine_state_simulate(self):
        sys, cert = nine_state_cases()[0]
        x0 = verify.boundary_points(cert.P, 1, np.random.default_rng(0))[0]
        traj = simulate(sys, x0, 2.0, 0.01)
        states, terminated = reference_simulate(sys, x0, 2.0, 0.01)
        assert traj.terminated_early == terminated
        assert np.array_equal(traj.states, states)

    @pytest.mark.parametrize("case", [0, 1], ids=["shear flow", "stacked synthesis"])
    def test_nine_state_sample_check(self, case):
        sys, cert = nine_state_cases()[case]
        assert sample_check(sys, cert, 2_000, 5) == reference_sample_check(sys, cert, 2_000, 5)

    def test_sample_check(self, two_state_sweep, three_state_sweep):
        for sys, cert in ((two_state(), two_state_sweep.feasible_entries()[10].certificate),
                          (three_state_qb(), three_state_sweep.feasible_entries()[7].certificate)):
            args = (sys, cert, 10_000, 3)
            assert sample_check(*args) == reference_sample_check(*args)


def test_convergence_check_working_set_is_block_sized():
    # 20,000 three-state trajectories: one state is 480 kB, so a block sized
    # in steps rather than bytes would hold hundreds of MB
    cert = Certificate(mode="analysis", P=0.01 * np.eye(3), epsilon=1.0, alpha=0.0)
    tracemalloc.start()
    try:
        rep = convergence_check(three_state_qb(), cert, 20_000, t_final=2.0, dt=0.01, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.samples_tested == 20_000 * 200
    assert peak < 16 * 2**20


@pytest.mark.parametrize("call, exc, message", [
    (lambda: verify.Trajectory(times=np.zeros(3), states=np.zeros((2, 2)), terminated_early=False),
     DimensionError, "times and states must have equal length"),
    (lambda: sample_check(three_state_qb(), Certificate(
        mode="synthesis", P=np.eye(3), epsilon=0.4, alpha=0.0, Y=np.zeros((1, 3)),
        K=np.zeros((1, 3))), 10, 0),
     DimensionError, "certificate has m=1 but system has m=2"),
    (lambda: simulate(three_state_qb(), np.zeros(3), 1.0, 0.01), DimensionError,
     "simulate expects an autonomous (closed-loop) system"),
], ids=["trajectory-lengths", "certificate-inputs", "simulate-driven"])
def test_input_rejections(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message
