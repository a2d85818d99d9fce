"""Independent certificate validation: sampled decrease checks and simulation.

A certificate claims V(x) = x' P^-1 x decays (at rate alpha) everywhere in
its ellipsoid.  This module checks that claim against the actual vector
field: pointwise via uniform sampling of the ellipsoid, and along flows via
fixed-step Runge-Kutta integration from boundary points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from .certify import Certificate
from .errors import DimensionError
from .lmi import _spd_factor, _spd_sqrt
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
CONV_RTOL = 1e-3
# ``convergence_check`` integrates as many steps at a time as fit in about
# this many bytes of states, whatever the trajectory count and n; its block
# checks hold a few temporaries of that size, and larger blocks run no faster
AUDIT_BLOCK_BYTES = 1 << 18


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


def vdot(sys_cl: QBSystem, P: np.ndarray, x: np.ndarray) -> float:
    """d/dt of V(x) = x' P^-1 x along the autonomous flow: 2 x' P^-1 f(x)."""
    if not sys_cl.is_autonomous:
        raise DimensionError("vdot expects an autonomous (closed-loop) system")
    factor = _spd_factor(P)
    x = np.asarray(x, dtype=float).reshape(-1)
    z = cho_solve(factor, x)
    return float(2.0 * z @ eval_dynamics(sys_cl, x))


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
    Vd = 2.0 * np.sum(Z * eval_dynamics(closed, X), axis=1)
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


def _integrate(sys_cl: QBSystem, X: np.ndarray, dt: float, out: np.ndarray) -> None:
    """Fill out[j], shape (N, n), with the classical RK4 state after j + 1 steps from X.

    Each stage is eval_dynamics' arithmetic, term for term, with A' and H'
    taken once and no shape checks.  A row that overflows keeps integrating
    as inf/nan; callers find it with ``_first_escape`` afterwards.
    """
    AT, HT = sys_cl.A.T, sys_cl.H.T
    N, n = X.shape
    x, arg, quad, k1, k2, k3, k4 = (np.empty((N, n)) for _ in range(7))
    xx = np.empty((N, n * n))
    xx_square = xx.reshape(N, n, n)
    x[:] = X
    half, sixth = 0.5 * dt, dt / 6.0

    def outer_views(v: np.ndarray) -> tuple:
        # zero-stride views whose product is x kron x, laid out as xx
        return (v, np.broadcast_to(v[:, :, None], (N, n, n)),
                np.broadcast_to(v[:, None, :], (N, n, n)))

    def field(v: np.ndarray, rows: np.ndarray, cols: np.ndarray, k: np.ndarray) -> None:
        np.multiply(rows, cols, out=xx_square)
        np.matmul(v, AT, out=k)
        np.matmul(xx, HT, out=quad)
        k += quad

    at_x, at_arg = outer_views(x), outer_views(arg)
    with np.errstate(over="ignore", invalid="ignore"):
        for state in out:
            field(*at_x, k1)
            np.multiply(k1, half, out=arg)
            arg += x
            field(*at_arg, k2)
            np.multiply(k2, half, out=arg)
            arg += x
            field(*at_arg, k3)
            np.multiply(k3, dt, out=arg)
            arg += x
            field(*at_arg, k4)
            # x + dt/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right
            k2 *= 2.0
            k2 += k1
            k3 *= 2.0
            k2 += k3
            k2 += k4
            k2 *= sixth
            x += k2
            state[:] = x


def _first_escape(states: np.ndarray, guard: float) -> np.ndarray:
    """For states of shape (steps, N, n): per trajectory, the index of its first
    state that is non-finite or farther than ``guard`` from the origin, else steps.
    """
    steps, N, n = states.shape
    # a norm is at most n times the largest entry, rounding included: a block
    # well inside the guard needs no norms
    if np.max(np.abs(states)) * n <= guard:
        return np.full(N, steps)
    finite = np.all(np.isfinite(states), axis=-1)
    states = np.where(finite[..., None], states, 0.0)
    # the largest entry is tested before the norm, so a huge but finite state
    # is caught without squaring it into an overflow
    small = np.max(np.abs(states), axis=-1) <= guard
    norms = np.linalg.norm(np.where(small[..., None], states, 0.0), axis=-1)
    escaped = ~(finite & small & (norms <= guard))
    return np.where(np.any(escaped, axis=0), np.argmax(escaped, axis=0), steps)


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
    flow = states[:, None, :]
    terminated = False
    last = 0
    while last < steps:
        # blocks double in length, so a divergence wastes at most as many
        # steps as were kept before it
        block = flow[last + 1: last + 1 + min(steps - last, max(1, last))]
        _integrate(sys_cl, flow[last], dt, block)
        stop = int(_first_escape(block, guard)[0])
        last += stop
        if stop < len(block):
            terminated = True
            break
    times = np.arange(last + 1) * dt
    return Trajectory(times=times, states=states[: last + 1], terminated_early=terminated)


def convergence_check(sys: QBSystem, cert: Certificate, n_traj: int, t_final: float,
                      dt: float, seed: int, envelope_tol: float = 1e-3) -> VerificationReport:
    """Integrate boundary trajectories and audit invariance plus attraction.

    Trajectories start on the certified boundary (shrunk by 1e-6).  Checks:
    V non-increasing step to step (invariance), final |x| below
    CONV_RTOL * |x(0)| (attraction), and for alpha > 0 the exponential
    envelope V(t) <= V(0) exp(-alpha t) (1 + envelope_tol).  Raises
    ValueError unless dt > 0, t_final > 0 and n_traj >= 1.

    Steps are integrated a block at a time (about AUDIT_BLOCK_BYTES of
    states) and each block is checked with whole-array operations; the
    report equals a step-by-step check bit for bit.
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
    V_prev = V0
    violations = 0
    min_margin = np.inf
    alive = np.ones(n_traj, dtype=bool)
    t = 0.0
    check_floor = 1e-14 * np.maximum(V0, 1e-300)
    block_steps = min(steps, max(1, AUDIT_BLOCK_BYTES // (8 * n_traj * cert.n)))
    buffer = np.empty((block_steps, n_traj, cert.n))
    done = 0
    while done < steps and np.any(alive):
        block = buffer[: min(len(buffer), steps - done)]
        _integrate(closed, X, dt, block)
        decay = np.empty(len(block))
        for j in range(len(block)):
            t += dt
            if cert.alpha > 0:
                decay[j] = np.exp(-cert.alpha * t)
        first = _first_escape(block, guard)
        violations += int(np.count_nonzero(alive & (first < len(block))))
        # steps at which each trajectory is still tracked; the rest are zeroed
        tracked = alive & (np.arange(len(block))[:, None] < first)
        alive &= first == len(block)
        block[~tracked] = 0.0
        V = v_of(block.reshape(-1, cert.n)).reshape(len(block), n_traj)
        Vp = np.concatenate((V_prev[None, :], V[:-1]))
        live = tracked & (Vp > check_floor)
        # invariance: V must not increase beyond relative rounding noise
        violations += int(np.count_nonzero(live & (V - Vp > 1e-10 * Vp)))
        if cert.alpha > 0:
            envelope = V0 * decay[:, None] * (1.0 + envelope_tol)
            violations += int(np.count_nonzero(live & (V > envelope)))
        if np.any(live):
            dec = (Vp[live] - V[live]) / (dt * Vp[live])
            min_margin = min(min_margin, float(np.min(dec)) - cert.alpha)
        V_prev = V[-1]
        X = block[-1]
        done += len(block)
    final_norms = np.linalg.norm(X, axis=1)
    converged = int(np.count_nonzero(alive & (final_norms <= CONV_RTOL * x0_norms)))
    live_final = alive & (V_prev > check_floor)
    ratios = np.zeros(0)
    if np.any(live_final):
        Z = cho_solve(factor, X[live_final].T).T
        Vd = 2.0 * np.sum(Z * eval_dynamics(closed, X[live_final]), axis=1)
        ratios = Vd / V_prev[live_final]
    return VerificationReport(
        samples_tested=n_traj * steps,
        max_vdot_ratio=float(np.max(ratios)) if ratios.size else 0.0,
        violations=violations,
        trajectories_converged=converged,
        trajectories_total=n_traj,
        min_decay_margin=float(min_margin) if np.isfinite(min_margin) else 0.0,
    )
