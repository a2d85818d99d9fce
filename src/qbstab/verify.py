"""Independent certificate validation: sampled decrease checks and simulation.

A certificate claims V(x) = x' P^-1 x decays (at rate alpha) everywhere in
its ellipsoid.  This module checks that claim against the actual vector
field: pointwise via uniform sampling of the ellipsoid, and along flows via
fixed-step Runge-Kutta integration from boundary points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .certify import Certificate
from .errors import DimensionError, NotPositiveDefiniteError
from .lmi import _spd_sqrt
from .systems import QBSystem, close_loop, eval_dynamics

__all__ = [
    "Trajectory",
    "VerificationReport",
    "vdot",
    "sample_check",
    "simulate",
    "convergence_check",
    "boundary_points",
    "default_dt",
]

DIVERGENCE_FACTOR = 1e6
BOUNDARY_SHRINK = 1.0 - 1e-6


@dataclass(frozen=True)
class Trajectory:
    """A fixed-step solution record; terminated_early marks a divergence guard hit."""

    times: np.ndarray
    states: np.ndarray
    terminated_early: bool

    def __post_init__(self):
        if self.times.shape[0] != self.states.shape[0]:
            raise DimensionError("times and states must have equal length")

    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path, timestamp: str | None = None) -> None:
        n = self.states.shape[1]
        with open(path, "w", encoding="utf-8") as fh:
            if timestamp is not None:
                fh.write(f"# generated: {timestamp}\n")
            fh.write("t," + ",".join(f"x{i + 1}" for i in range(n)) + "\n")
            for t, row in zip(self.times, self.states):
                fh.write(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a sampling or trajectory audit; passing means zero violations."""

    samples_tested: int
    max_vdot_ratio: float
    violations: int
    trajectories_converged: int
    trajectories_total: int
    min_decay_margin: float

    @property
    def passed(self) -> bool:
        ok = self.violations == 0
        if self.trajectories_total:
            ok = ok and self.trajectories_converged == self.trajectories_total
        return ok


def default_dt(sys: QBSystem) -> float:
    """Deterministic step size heuristic: 1e-3 / |A|_F (unit scale fallback)."""
    nrm = float(np.linalg.norm(sys.A, "fro"))
    return 1e-3 / nrm if nrm > 0 else 1e-3


def _spd_factor(P: np.ndarray):
    P = np.asarray(P, dtype=float)
    try:
        return cho_factor((P + P.T) / 2.0, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"P must be positive definite: {exc}") from exc


def vdot(sys_cl: QBSystem, P: np.ndarray, x: np.ndarray) -> float:
    """d/dt of V(x) = x' P^-1 x along the autonomous flow: 2 x' P^-1 f(x)."""
    if not sys_cl.is_autonomous:
        raise DimensionError("vdot expects an autonomous (closed-loop) system")
    factor = _spd_factor(P)
    x = np.asarray(x, dtype=float).reshape(-1)
    z = cho_solve(factor, x)
    return float(2.0 * z @ eval_dynamics(sys_cl, x))


def _batch_dynamics(sys: QBSystem, X: np.ndarray) -> np.ndarray:
    """Vector field for a batch of states, shape (N, n)."""
    T = sys.h_tensor()
    return X @ sys.A.T + np.einsum("aij,ki,kj->ka", T, X, X)


def _closed_system(sys: QBSystem, cert: Certificate) -> QBSystem:
    if cert.n != sys.n:
        raise DimensionError(f"certificate is {cert.n}-state but system is {sys.n}-state")
    if cert.mode == "synthesis":
        if cert.m != sys.m:
            raise DimensionError(f"certificate has m={cert.m} but system has m={sys.m}")
        return close_loop(sys, cert.K)
    if sys.m:
        # analysis certificate on a QB system: audit the autonomous part
        return QBSystem(A=sys.A, H=sys.H)
    return sys


def _sphere_samples(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    u = rng.normal(size=(count, n))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def _ball_samples(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    u = _sphere_samples(rng, count, n)
    return u * (rng.random(count) ** (1.0 / n))[:, None]


def boundary_points(P: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` random points on the boundary of {x : x' P^-1 x <= 1}, shrunk by 1e-6."""
    return BOUNDARY_SHRINK * (_sphere_samples(rng, count, P.shape[0]) @ _spd_sqrt(P).T)


def sample_check(sys: QBSystem, cert: Certificate, n_samples: int, seed: int) -> VerificationReport:
    """Sample the certified ellipsoid uniformly and test dV/dt <= -alpha V.

    The closed loop is formed first for synthesis certificates.  A small
    absolute slack (1e-9 * (1 + |dV/dt|)) absorbs floating-point noise at the
    boundary, where the margin can touch zero.
    """
    closed = _closed_system(sys, cert)
    rng = np.random.default_rng(seed)
    sqrtP = _spd_sqrt(cert.P)
    X = _ball_samples(rng, n_samples, cert.n) @ sqrtP.T
    factor = _spd_factor(cert.P)
    Z = cho_solve(factor, X.T).T
    V = np.sum(X * Z, axis=1)
    Vd = 2.0 * np.sum(Z * _batch_dynamics(closed, X), axis=1)
    slack = 1e-9 * (1.0 + np.abs(Vd))
    bad = Vd > -cert.alpha * V + slack
    live = V > 1e-300
    ratios = Vd[live] / V[live]
    max_ratio = float(np.max(ratios)) if ratios.size else 0.0
    margin = float(np.min(-ratios - cert.alpha)) if ratios.size else 0.0
    return VerificationReport(
        samples_tested=n_samples,
        max_vdot_ratio=max_ratio,
        violations=int(np.count_nonzero(bad)),
        trajectories_converged=0,
        trajectories_total=0,
        min_decay_margin=margin,
    )


def _rk4_step(sys: QBSystem, X: np.ndarray, dt: float) -> np.ndarray:
    k1 = _batch_dynamics(sys, X)
    k2 = _batch_dynamics(sys, X + 0.5 * dt * k1)
    k3 = _batch_dynamics(sys, X + 0.5 * dt * k2)
    k4 = _batch_dynamics(sys, X + dt * k3)
    return X + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate(sys_cl: QBSystem, x0: np.ndarray, t_final: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 from x0 over [0, t_final].

    t_final is rounded to a whole number of steps.  Integration stops early
    (flag set) if the state leaves |x| <= 1e6 * (1 + |x0|) or turns
    non-finite.
    """
    if not sys_cl.is_autonomous:
        raise DimensionError("simulate expects an autonomous (closed-loop) system")
    if dt <= 0 or t_final <= 0:
        raise ValueError("need dt > 0 and t_final > 0")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys_cl.n:
        raise DimensionError(f"x0 must have length {sys_cl.n}")
    steps = max(1, int(round(t_final / dt)))
    guard = DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(x0)))
    states = np.empty((steps + 1, sys_cl.n))
    states[0] = x0
    X = x0[None, :].copy()
    terminated = False
    last = 0
    for k in range(1, steps + 1):
        X = _rk4_step(sys_cl, X, dt)
        if not np.all(np.isfinite(X)) or float(np.linalg.norm(X[0])) > guard:
            terminated = True
            break
        states[k] = X[0]
        last = k
    times = np.arange(last + 1) * dt
    return Trajectory(times=times, states=states[: last + 1], terminated_early=terminated)


def convergence_check(sys: QBSystem, cert: Certificate, n_traj: int, t_final: float,
                      dt: float, seed: int, conv_rtol: float = 1e-3,
                      envelope_tol: float = 1e-3) -> VerificationReport:
    """Integrate boundary trajectories and audit invariance plus attraction.

    Trajectories start on the certified boundary (shrunk by 1e-6).  Checks:
    V non-increasing step to step (invariance), final |x| below
    conv_rtol * |x(0)| (attraction), and for alpha > 0 the exponential
    envelope V(t) <= V(0) exp(-alpha t) (1 + envelope_tol).  Raises
    ValueError unless dt > 0, t_final > 0 and n_traj >= 1.
    """
    if dt <= 0 or t_final <= 0 or n_traj < 1:
        raise ValueError("need dt > 0, t_final > 0 and at least one trajectory")
    closed = _closed_system(sys, cert)
    X = boundary_points(cert.P, n_traj, np.random.default_rng(seed))
    x0_norms = np.linalg.norm(X, axis=1)
    factor = _spd_factor(cert.P)
    steps = max(1, int(round(t_final / dt)))
    guard = DIVERGENCE_FACTOR * (1.0 + float(np.max(x0_norms)))

    def v_of(Xb: np.ndarray) -> np.ndarray:
        Z = cho_solve(factor, Xb.T).T
        return np.sum(Xb * Z, axis=1)

    V0 = v_of(X)
    V_prev = V0.copy()
    violations = 0
    min_margin = np.inf
    alive = np.ones(n_traj, dtype=bool)
    t = 0.0
    check_floor = 1e-14 * np.maximum(V0, 1e-300)
    for _ in range(steps):
        X = _rk4_step(closed, X, dt)
        t += dt
        finite = np.all(np.isfinite(X), axis=1)
        size_ok = np.linalg.norm(np.where(finite[:, None], X, 0.0), axis=1) <= guard
        diverged = alive & ~(finite & size_ok)
        if np.any(diverged):
            violations += int(np.count_nonzero(diverged))
            alive &= ~diverged
            X[~alive] = 0.0
        V = v_of(X)
        live = alive & (V_prev > check_floor)
        # invariance: V must not increase beyond relative rounding noise
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
    converged = int(np.count_nonzero(alive & (final_norms <= conv_rtol * x0_norms)))
    live_final = alive & (V_prev > check_floor)
    ratios = np.zeros(0)
    if np.any(live_final):
        Z = cho_solve(factor, X[live_final].T).T
        Vd = 2.0 * np.sum(Z * _batch_dynamics(closed, X[live_final]), axis=1)
        ratios = Vd / V_prev[live_final]
    return VerificationReport(
        samples_tested=n_traj * steps,
        max_vdot_ratio=float(np.max(ratios)) if ratios.size else 0.0,
        violations=violations,
        trajectories_converged=converged,
        trajectories_total=n_traj,
        min_decay_margin=float(min_margin) if np.isfinite(min_margin) else 0.0,
    )
