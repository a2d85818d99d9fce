"""Independent certificate validation: sampled decrease checks and simulation.

A certificate claims V(x) = x' P^-1 x decays (at rate alpha) everywhere in
its ellipsoid.  This module checks that claim against the actual vector
field: pointwise via uniform sampling of the ellipsoid, and along flows via
fixed-step Runge-Kutta integration from boundary points.

The integrator keeps N trajectories as the columns of (n, N) arrays and
takes each stage as the one product [A H] [x; x kron x] of eval_dynamics
(``systems._column_field``), so it equals RK4 on eval_dynamics bit for bit.

``convergence_check`` stops integrating once every live trajectory has
settled: V is below the audit's check floor, so no later step is checked,
and lambda_max(P) V is below (CONV_RTOL |x(0)|)^2, so the attraction test
holds.  It stops only if the closed loop's linear RK4 step contracts V, an
n x n test made once per call; V then keeps falling near the origin
(Lyapunov's indirect method), so the report equals the full-length audit's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import Certificate, ellipsoid_points
from .errors import DimensionError
from .lmi import _cho_solve, _spd_factor
from .systems import QBSystem, _column_field, close_loop, eval_dynamics

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
ENVELOPE_RTOL = 1e-3
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


def _lyapunov(factor, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Z = P^-1 X and V(x) = x' P^-1 x for the rows x of X; P as ``_spd_factor(P)``."""
    Z = _cho_solve(factor, X.T).T
    return Z, np.sum(X * Z, axis=1)


def _lyapunov_rate(sys_cl: QBSystem, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """dV/dt = 2 x' P^-1 f(x) for each row x of X, with Z = P^-1 X from ``_lyapunov``."""
    return 2.0 * np.sum(Z * eval_dynamics(sys_cl, X), axis=1)


def vdot(sys_cl: QBSystem, P: np.ndarray, x: np.ndarray) -> float:
    """dV/dt of V(x) = x' P^-1 x along the autonomous flow, 2 x' P^-1 f(x), at a finite x."""
    if not sys_cl.is_autonomous:
        raise DimensionError("vdot expects an autonomous (closed-loop) system")
    n, shape = sys_cl.n, np.shape(x)
    x, P = np.asarray(x, dtype=float).reshape(1, -1), np.asarray(P, dtype=float)
    if x.shape[1] != n or P.shape != (n, n):
        raise DimensionError(f"need x of length {n} and P of shape ({n}, {n}), "
                             f"got x of shape {shape} and P of shape {P.shape}")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    return float(_lyapunov_rate(sys_cl, x, _lyapunov(_spd_factor(P), x)[0])[0])


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


def boundary_points(P: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` random points on the boundary of {x : x' P^-1 x <= 1}, shrunk by 1e-6."""
    return BOUNDARY_SHRINK * ellipsoid_points(P, count, rng, boundary=True)


def sample_check(sys: QBSystem, cert: Certificate, n_samples: int, seed: int) -> VerificationReport:
    """Sample the certified ellipsoid uniformly and test dV/dt <= -alpha V.

    The closed loop is formed first for synthesis certificates.  A small
    absolute slack (1e-9 * (1 + |dV/dt|)) absorbs floating-point noise at the
    boundary, where the margin can touch zero.  Raises ValueError for a
    negative ``n_samples``.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    closed = _closed_system(sys, cert)
    X = ellipsoid_points(cert.P, n_samples, np.random.default_rng(seed))
    Z, V = _lyapunov(_spd_factor(cert.P), X)
    Vd = _lyapunov_rate(closed, X, Z)
    slack = 1e-9 * (1.0 + np.abs(Vd))
    live = V > 1e-300
    ratios = Vd[live] / V[live]
    return VerificationReport(
        samples_tested=n_samples,
        max_vdot_ratio=float(np.max(ratios)) if ratios.size else 0.0,
        violations=int(np.count_nonzero(Vd > -cert.alpha * V + slack)),
        trajectories_converged=0,
        trajectories_total=0,
        min_decay_margin=float(np.min(-ratios - cert.alpha)) if ratios.size else 0.0,
    )


def _integrate(sys_cl: QBSystem, X: np.ndarray, dt: float, out: np.ndarray) -> None:
    """Fill out[j], shape (n, N), with the classical RK4 states after j + 1
    steps from the columns of X, shape (n, N).

    Each stage writes its argument into buf[:n] and takes the field as the
    one eval_dynamics product [A H] @ buf, buf = [x; x kron x].  A column that
    overflows keeps integrating as inf/nan; ``_first_escape`` finds it.
    """
    n, N = X.shape
    buf = np.empty((n + n * n, N))
    field = _column_field(sys_cl, buf)
    arg = buf[:n]
    K = np.empty((4, n, N))
    incr = np.empty((n, N))
    # numpy scalars: a Python float costs a conversion on every call
    half, full, two, sixth = (np.float64(v) for v in (0.5 * dt, dt, 2.0, dt / 6.0))
    stages = ((K[0], half, K[1]), (K[1], half, K[2]), (K[2], full, K[3]))
    k1, k23, x = K[0], K[1:3], X
    with np.errstate(over="ignore", invalid="ignore"):
        for state in out:
            np.copyto(arg, x)
            field(k1)
            for k, h, k_next in stages:
                np.multiply(k, h, out=arg)
                np.add(arg, x, out=arg)
                field(k_next)
            # x + dt/6 (k1 + 2 k2 + 2 k3 + k4): the axis-0 reduce adds the
            # rows in sequence, left to right
            np.multiply(k23, two, out=k23)
            np.add.reduce(K, axis=0, out=incr)
            np.multiply(incr, sixth, out=incr)
            np.add(x, incr, out=state)
            x = state


def _rk4_contracts(A: np.ndarray, factor, dt: float) -> bool:
    """Whether one RK4 step of x' = A x decreases V(x) = x' P^-1 x, P = L L'
    given as ``_spd_factor(P)``: sigma_max(L^-1 R L) < 1, with R = I + hA +
    (hA)^2/2 + (hA)^3/6 + (hA)^4/24 RK4's stability polynomial at h = dt."""
    eye, hA = np.eye(len(A)), dt * A
    R = eye + hA @ (eye + hA @ (eye / 2.0 + hA @ (eye / 6.0 + hA / 24.0)))
    L = np.tril(factor[0])
    M = np.linalg.solve(L, R @ L)
    return bool(np.isfinite(M).all() and np.linalg.norm(M, 2) < 1.0)


def _steps(t_final: float, dt: float, n_traj: int = 1) -> int:
    """RK4 steps of dt over [0, t_final], rounded, at least one; ValueError
    unless dt > 0 and t_final > 0 are finite and n_traj >= 1."""
    if not (0 < dt < np.inf and 0 < t_final < np.inf and n_traj >= 1):
        raise ValueError("need dt > 0, t_final > 0, both finite, and at least one trajectory")
    return max(1, int(round(t_final / dt)))


def _first_escape(states: np.ndarray, guard: float) -> np.ndarray:
    """For states of shape (steps, n, N): per trajectory, the index of its first
    state that is non-finite or farther than ``guard`` from the origin, else steps.
    """
    steps, n, N = states.shape
    # a norm is at most n times the largest entry, rounding included: a block
    # well inside the guard needs no norms
    if np.max(np.abs(states)) * n <= guard:
        return np.full(N, steps)
    finite = np.all(np.isfinite(states), axis=1)
    states = np.where(finite[:, None], states, 0.0)
    # the largest entry is tested before the norm, so a huge but finite state
    # is caught without squaring it into an overflow
    small = np.max(np.abs(states), axis=1) <= guard
    norms = np.linalg.norm(np.where(small[:, None], states, 0.0), axis=1)
    escaped = ~(finite & small & (norms <= guard))
    return np.where(np.any(escaped, axis=0), np.argmax(escaped, axis=0), steps)


def simulate(sys_cl: QBSystem, x0: np.ndarray, t_final: float, dt: float) -> Trajectory:
    """Classical fixed-step RK4 from x0 over [0, t_final].

    t_final is rounded to a whole number of steps; x0 must be finite.
    Integration stops early (flag set) if the state leaves
    |x| <= 1e6 * (1 + |x0|) or turns non-finite.
    """
    if not sys_cl.is_autonomous:
        raise DimensionError("simulate expects an autonomous (closed-loop) system")
    steps = _steps(t_final, dt)
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != sys_cl.n:
        raise DimensionError(f"x0 must have length {sys_cl.n}")
    if not np.isfinite(x0).all():
        raise ValueError("x0 must be finite")
    guard = DIVERGENCE_FACTOR * (1.0 + float(np.linalg.norm(x0)))
    states = np.empty((steps + 1, sys_cl.n))
    states[0] = x0
    flow = states[:, :, None]
    last, terminated = 0, False
    while last < steps and not terminated:
        # blocks double in length, so a divergence wastes at most as many
        # steps as were kept before it
        block = flow[last + 1: last + 1 + min(steps - last, max(1, last))]
        _integrate(sys_cl, flow[last], dt, block)
        stop = int(_first_escape(block, guard)[0])
        last, terminated = last + stop, stop < len(block)
    times = np.arange(last + 1) * dt
    return Trajectory(times=times, states=states[: last + 1], terminated_early=terminated)


def convergence_check(sys: QBSystem, cert: Certificate, n_traj: int, t_final: float,
                      dt: float, seed: int) -> VerificationReport:
    """Integrate boundary trajectories and audit invariance plus attraction.

    Trajectories start on the certified boundary (shrunk by 1e-6).  Checks:
    V non-increasing step to step (invariance), final |x| below
    CONV_RTOL * |x(0)| (attraction), and for alpha > 0 the exponential
    envelope V(t) <= V(0) exp(-alpha t) (1 + ENVELOPE_RTOL).  Raises
    ValueError unless dt > 0, t_final > 0 and n_traj >= 1.

    Steps are integrated a block at a time (about AUDIT_BLOCK_BYTES of
    states, laid out (steps, n, N)) and each block is checked with
    whole-array operations; the report equals a step-by-step check bit for
    bit.

    Integration ends after the block in which every live trajectory has
    settled, V <= 1e-14 V(0) (the floor below which no step is checked) and
    lambda_max(P) V <= (CONV_RTOL |x(0)|)^2 (so |x| passes the attraction
    test), provided the closed loop's linear RK4 step contracts V
    (``_rk4_contracts``, tested once per call); otherwise it runs to
    t_final.  Near the origin V then keeps falling, so the later steps
    would add no violation, no margin and no final rate, and leave every
    trajectory converged: the report is that of the full-length audit.
    ``samples_tested`` counts n_traj times the steps to t_final, the
    settled tail included, which the contraction covers.
    """
    steps = _steps(t_final, dt, n_traj)
    closed = _closed_system(sys, cert)
    X = boundary_points(cert.P, n_traj, np.random.default_rng(seed))
    x0_norms = np.linalg.norm(X, axis=1)
    factor = _spd_factor(cert.P)
    guard = DIVERGENCE_FACTOR * (1.0 + float(np.max(x0_norms)))
    Z, V0 = _lyapunov(factor, X)
    V_prev, violations, min_margin, t = V0, 0, np.inf, 0.0
    alive = np.ones(n_traj, dtype=bool)
    check_floor = 1e-14 * np.maximum(V0, 1e-300)
    # the V at or below which a trajectory has settled (see the docstring)
    settled_V = np.minimum(check_floor,
                           (CONV_RTOL * x0_norms) ** 2 / np.linalg.eigvalsh(cert.P)[-1])
    stops = _rk4_contracts(closed.A, factor, dt)
    block_steps = min(steps, max(1, AUDIT_BLOCK_BYTES // (8 * n_traj * cert.n)))
    buffer = np.empty((block_steps, cert.n, n_traj))
    done = 0
    while done < steps and np.any(alive & ~(stops & (V_prev <= settled_V))):
        block = buffer[: min(len(buffer), steps - done)]
        _integrate(closed, X.T, dt, block)
        # the step times, accumulated one dt at a time as a step loop would
        times = np.cumsum(np.r_[t, np.full(len(block), dt)])[1:]
        t = times[-1]
        first = _first_escape(block, guard)
        violations += int(np.count_nonzero(alive & (first < len(block))))
        # steps at which each trajectory is still tracked; the rest are zeroed
        tracked = alive & (np.arange(len(block))[:, None] < first)
        alive &= first == len(block)
        # V sums each state's n terms in a row, as for a single state
        rows = block.transpose(0, 2, 1).copy()
        rows[~tracked] = 0.0
        Z, V = _lyapunov(factor, rows.reshape(-1, cert.n))
        V = V.reshape(len(block), n_traj)
        Vp = np.concatenate((V_prev[None, :], V[:-1]))
        live = tracked & (Vp > check_floor)
        # invariance: V must not increase beyond relative rounding noise
        violations += int(np.count_nonzero(live & (V - Vp > 1e-10 * Vp)))
        if cert.alpha > 0:
            envelope = V0 * np.exp(-cert.alpha * times)[:, None] * (1.0 + ENVELOPE_RTOL)
            violations += int(np.count_nonzero(live & (V > envelope)))
        if np.any(live):
            dec = (Vp[live] - V[live]) / (dt * Vp[live])
            min_margin = min(min_margin, float(np.min(dec)) - cert.alpha)
        V_prev = V[-1]
        X = rows[-1]
        done += len(block)
    final_norms = np.linalg.norm(X, axis=1)
    converged = int(np.count_nonzero(alive & (final_norms <= CONV_RTOL * x0_norms)))
    live_final = alive & (V_prev > check_floor)
    # P^-1 x of the final states is the last step's rows of the block's Z
    ratios = _lyapunov_rate(closed, X[live_final], Z[-n_traj:][live_final]) / V_prev[live_final]
    return VerificationReport(
        samples_tested=n_traj * steps,
        max_vdot_ratio=float(np.max(ratios)) if ratios.size else 0.0,
        violations=violations,
        trajectories_converged=converged,
        trajectories_total=n_traj,
        min_decay_margin=float(min_margin) if np.isfinite(min_margin) else 0.0,
    )
