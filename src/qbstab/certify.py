"""Certification protocols: trace maximization, eps sweeps, line search, unions.

Every routine returns either a ``Certificate`` (re-verifiable against the
assembled LMI) or an ``Infeasible`` marker carrying the solver's
improving-ray evidence.  Scalar search over eps treats the per-eps optimal
trace as a derivative-free maximization: a coarse log-spaced pre-scan
brackets the best value, then golden-section refinement assumes unimodality
inside the bracket only.  Grids, the pre-scan and the refinement solve their
problems in lockstep (``sdp.solve_many``); the refinement solves each probe
together with the two probes that can follow it and keeps the one its
comparison picks, so it probes the same eps points, in the same order and
with the same results, as one solve at a time.

For analysis no P > 0 exists above the spectral bound eps* of
``lmi._TStar``.  There every protocol first forms the Perron ray of that
eps (``_spectral_ray``) and returns Infeasible without a solve when the ray
passes the solver's own acceptance test (``sdp.ray_test``) and every block
is positive semidefinite; the other points are solved as before, so every
entry that a solve decides is bitwise what it was without the screen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError, QBStabError, SchemaError
from .lmi import (_cho_solve, _EpsFamily, _spd_eigh, _spd_factor, _spd_sqrt, _Stack,
                  _svec_index, _TStar, assemble, default_alpha, default_delta, svec)
from .sdp import SdpSolution, check_block_feasibility, ray_test, solve, solve_many
from .systems import QBSystem, _finite_array, _json_int, _read_json, _write_json

__all__ = [
    "Certificate",
    "Infeasible",
    "Ellipsoid",
    "ellipsoid_points",
    "SweepEntry",
    "SweepResult",
    "EpsilonSearchResult",
    "UnionRegion",
    "SolverFailure",
    "max_trace",
    "sweep_epsilon",
    "optimize_epsilon",
    "ellipsoid_volume",
    "union_volume",
    "serialize_certificate",
    "deserialize_certificate",
    "save_certificate",
    "load_certificate",
    "resolve_alpha",
    "shape_report",
]


class SolverFailure(QBStabError, RuntimeError):
    """The SDP solver failed numerically; the eps at fault is in the message."""


# lambda_min(P) <= FLOOR_FACTOR * delta marks a certificate as floor-active:
# its ellipsoid is a needle held open only by the assembly floor
FLOOR_FACTOR = 10.0
# fewest ``samples`` ``union_volume`` accepts
UNION_MIN_SAMPLES = 10_000
# ``union_volume`` sizes its direction chunks so their working arrays hold
# about this many bytes together, whatever n and the member count
UNION_CHUNK_BYTES = 1 << 20
# log-spaced eps points of the ``optimize_epsilon`` pre-scan
SCAN_POINTS = 16
# smallest ``rel_tol`` of ``optimize_epsilon``: its bracket then stays thousands
# of ulps wide, so every golden-section point lies strictly inside it and every
# step shrinks it.  Near a width of one ulp it can stop shrinking, and the
# refinement never ends (rel_tol = 1e-16 on the scalar family was still probing
# after 400 points; 1e-12 ends after 74)
REL_TOL_MIN = 1e-12
# traces within TIE_REL of the best count as tied in ``SweepResult.best``
TIE_REL = 1e-6
# the shrinks 1 - t, in order, at which ``_proof`` tries a failed solve's iterate
_SHRINKS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)


def shape_report(P: np.ndarray, K: np.ndarray | None, delta: float) -> dict:
    """How close P sits to the floor delta, and the gain's spectral norm."""
    lam_min = float(np.linalg.eigvalsh(P)[0])
    return {
        "lambda_min_over_delta": lam_min / delta,
        "floor_active": lam_min <= FLOOR_FACTOR * delta,
        "gain_norm": None if K is None else float(np.linalg.norm(K, 2)),
    }


@dataclass(frozen=True)
class Ellipsoid:
    """The set {x : x' P^-1 x <= 1} for symmetric positive definite P.

    P must be square, finite, symmetric within 1e-12 (1 + max|P|) and
    positive definite; it is kept as (P + P') / 2.
    """

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionError(f"P must be square, got {P.shape}")
        if not np.isfinite(P).all():
            raise NotPositiveDefiniteError("P must be positive definite: it has non-finite entries")
        if not np.allclose(P, P.T, rtol=0, atol=1e-12 * (1 + np.abs(P).max())):
            raise NotPositiveDefiniteError("P must be symmetric")
        _spd_eigh(P)  # raises unless P > 0
        object.__setattr__(self, "P", (P + P.T) / 2.0)

    @property
    def n(self) -> int:
        return self.P.shape[0]


def ellipsoid_points(P: np.ndarray, count: int, rng: np.random.Generator,
                     boundary: bool = False) -> np.ndarray:
    """``count`` random points uniform in {x : x' P^-1 x <= 1}, or on its boundary:
    sqrt(P) times unit directions from normal draws, scaled inside by u^(1/n)
    with u uniform, drawn for all points after the directions."""
    n = P.shape[0]
    x = rng.normal(size=(count, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if not boundary:
        x *= (rng.random(count) ** (1.0 / n))[:, None]
    return x @ _spd_sqrt(P).T


@dataclass(frozen=True)
class Certificate:
    """A stability (analysis) or stabilizability (synthesis) certificate.

    P defines the certified ellipsoid {x : x' P^-1 x <= 1}, by the rule of
    ``Ellipsoid``; eps is the scalar from the line search; alpha the decay
    margin the LMI enforced (d/dt V <= -alpha V inside the ellipsoid).  Synthesis certificates carry
    Y and the extracted gain K = Y P^-1, both finite; analysis certificates carry neither.
    ``solver_report`` says how the certificate was obtained: solver status,
    iterations and residuals, whether it is a failed solve's best iterate
    (``relaxed_retry``) and the shrink that proves it (``proof_shrink``, see
    ``max_trace``), the ``shape_report`` entries (lambda_min(P)/delta, floor
    activity, |K|_2), the order of the system's sign group (``symmetry_order``)
    and the number of decision variables (``decision_dim``, see ``lmi.DecisionLayout``).
    """

    mode: str
    P: np.ndarray
    epsilon: float
    alpha: float
    Y: np.ndarray | None = None
    K: np.ndarray | None = None
    solver_report: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "P", Ellipsoid(P=self.P).P)
        if self.mode == "synthesis":
            if self.Y is None or self.K is None:
                raise DimensionError("synthesis certificate requires Y and K")
            Y = np.asarray(self.Y, dtype=float)
            K = np.asarray(self.K, dtype=float)
            if Y.ndim != 2 or Y.shape[1] != self.n or K.shape != Y.shape:
                raise DimensionError(f"Y and K must be m x {self.n}, got {Y.shape} and {K.shape}")
            if not (np.isfinite(Y).all() and np.isfinite(K).all()):
                raise ValueError("Y and K must be finite")
            # 1e-8 relative to |Y|, plus the rounding floor of forming K P,
            # which certificates written before the gain bound need: their
            # lambda_min(P) near the floor delta makes |K||P| >> |Y|
            floor = 64.0 * np.finfo(float).eps * np.linalg.norm(K) * np.linalg.norm(self.P)
            resid = float(np.linalg.norm(K @ self.P - Y))
            if resid > 1e-8 * max(np.linalg.norm(Y), 1e-30) + floor:
                raise DimensionError(f"K P != Y (residual {resid:.3e})")
            object.__setattr__(self, "Y", Y)
            object.__setattr__(self, "K", K)
        elif self.Y is not None or self.K is not None:
            raise DimensionError("analysis certificate takes no Y or K")

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def m(self) -> int:
        return 0 if self.Y is None else self.Y.shape[0]

    @property
    def trace_P(self) -> float:
        """trace(P), the size measure that every eps protocol maximizes."""
        return float(np.trace(self.P))

    def ellipsoid(self) -> Ellipsoid:
        return Ellipsoid(P=self.P)


@dataclass(frozen=True)
class Infeasible:
    """Marker returned when the LMI admits no solution at the given eps.

    ``ray`` holds the improving-ray blocks (trace-normalized): the solver's,
    or above eps* the spectral ray of ``_spectral_ray``, which ``message``
    names.
    """

    mode: str
    alpha: float
    epsilon: float
    ray: list
    message: str = ""


@dataclass(frozen=True)
class SweepEntry:
    """The outcome at one eps: a certificate, or None with the reason in ``status``.

    An infeasible entry carries its improving-ray blocks (``ray``, as in
    ``Infeasible``); ``solved`` is False where the spectral ray decided the
    point without an SDP solve."""

    epsilon: float
    certificate: Certificate | None
    status: str
    ray: list | None = None
    solved: bool = True

    @property
    def feasible(self) -> bool:
        return self.certificate is not None

    @property
    def trace_P(self) -> float | None:
        return None if self.certificate is None else self.certificate.trace_P


@dataclass(frozen=True)
class SweepResult:
    """Per-eps feasibility and trace data for a grid sweep, for analysis the
    spectral bound eps* (``lmi._TStar``; None for synthesis), and the order
    of the sign group whose fixed slots the problems keep
    (``lmi.DecisionLayout``)."""

    entries: tuple
    eps_star: float | None = None
    symmetry_order: int = 1

    def feasible_entries(self) -> list[SweepEntry]:
        return [e for e in self.entries if e.feasible]

    @property
    def ray_points(self) -> int:
        """The points that the spectral ray decided without a solve."""
        return sum(not e.solved for e in self.entries)

    def best(self) -> Certificate | None:
        """Best certificate by trace; exact ties broken by ellipsoid volume.

        Trace-optimal values can be attained on an eps interval (flat optimal
        value with differently oriented ellipsoids), so among entries within
        ``TIE_REL`` of the maximum trace the one with the largest det(P)
        wins (compared as ``_log_sqrt_det``, which neither overflows nor
        underflows in high n); remaining ties go to the smallest eps.
        """
        feas = self.feasible_entries()
        if not feas:
            return None
        top = max(e.trace_P for e in feas)
        candidates = [e for e in feas if e.trace_P >= top * (1.0 - TIE_REL)]
        key = lambda e: (_log_sqrt_det(e.certificate.P), -e.epsilon)
        return max(candidates, key=key).certificate


@dataclass(frozen=True)
class EpsilonSearchResult:
    """Outcome of the scalar line search over eps.

    ``history`` holds the evaluations the search used.  ``solves`` counts
    the SDP solves it ran and ``ray_points`` the points the spectral ray
    decided without one, the look-ahead probes it discarded included in
    both; ``eps_star`` is the spectral bound of analysis (None for
    synthesis) and ``symmetry_order`` that of ``SweepResult``."""

    best: Certificate | None
    history: tuple          # SweepEntry, in evaluation order
    solves: int
    eps_star: float | None = None
    ray_points: int = 0
    symmetry_order: int = 1

    @property
    def feasible(self) -> bool:
        return self.best is not None


def resolve_alpha(sys: QBSystem, alpha) -> float:
    """Map the 'strict' request (None or 'auto') to the default decay margin."""
    if alpha is None or (isinstance(alpha, str) and alpha == "auto"):
        return default_alpha(sys)
    alpha = float(alpha)
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return alpha


def max_trace(sys: QBSystem, eps: float, alpha, mode: str) -> Certificate | Infeasible:
    """Maximize trace(P) subject to the eps-parameterized LMI.

    Returns a Certificate on Optimal and an Infeasible marker (with the dual
    ray attached) on Infeasible, which for analysis above eps* can come
    from the spectral ray without a solve (``_spectral_ray``); numerical
    failures raise SolverFailure with eps and the solver's message.  That
    includes a stalled solve, where the LMI has no interior and no improving
    ray ("stalled: ..."): it is neither feasible nor proven infeasible.

    At most one solve per eps.  If it ends NumericalFailure or IterLimit, its
    best iterate x still certifies when some t = 1 - shrink of ``_SHRINKS``
    makes every block at t x negative beyond its rounding bound (``_proof``):
    the certificate is (tP, tY), with status Optimal, ``relaxed_retry`` True
    and the shrink as ``proof_shrink``.
    Its ``solver_report`` also says how far lambda_min(P) sits above the
    floor delta (floor-active when within 10 delta) and |K|_2.
    """
    alpha = resolve_alpha(sys, alpha)
    problem = assemble(sys, eps, alpha, mode)
    window = _TStar(sys, alpha) if mode == "analysis" else None
    ray = _spectral_ray(window, problem, eps, alpha, mode)
    if ray is not None:
        return ray
    return _outcome(sys, problem, solve(problem), eps, alpha, mode)


def _spectral_ray(window, problem, eps, alpha, mode) -> Infeasible | None:
    """``Infeasible`` without a solve at an analysis eps above eps*, from the
    Perron pair T_eps*(Z) = lam Z of ``window`` (``lmi._TStar``, None for
    synthesis), when its ray Z_main = [[Z, 0], [0, 0]], Z_floor = lam Z
    passes ``sdp.ray_test`` on ``problem`` and every block has
    lambda_min >= 0; None otherwise, and the point is solved.  Just above
    eps*, delta lam/(1 + lam), the ray's phi, is below the test's 1e-10
    guard, so those points are solved too."""
    pair = None if window is None else window.perron(eps)
    if pair is None or not pair[0] > 0:
        return None
    lam, Z = pair
    n = len(Z)
    main = np.zeros((2 * n, 2 * n))
    main[:n, :n] = Z
    user = [_Stack.of([blk]) for blk in problem.blocks]
    ray, eta, ok = ray_test(user, [main[None], lam * Z[None]], problem.c[None])
    ray = [Zb[0] for Zb in ray]
    if not (ok[0] and all(np.linalg.eigvalsh(Zb)[0] >= 0 for Zb in ray)):
        return None
    return Infeasible(mode=mode, alpha=alpha, epsilon=eps, ray=ray,
                      message=f"spectral ray above eps* = {window.eps_star:.6g} "
                              f"with max |<F_k, Z>| = {eta[0]:.2e}")


def _outcome(sys, problem, sol: SdpSolution, eps, alpha, mode) -> Certificate | Infeasible:
    """``max_trace``'s result, given the solution of its problem."""
    if sol.status == "Infeasible":
        return Infeasible(mode=mode, alpha=alpha, epsilon=eps, ray=sol.Z,
                          message=sol.message)
    shrink = _proof(problem, sol.x) if sol.status in ("NumericalFailure", "IterLimit") else None
    if sol.status != "Optimal" and shrink is None:
        raise SolverFailure(f"solver returned {sol.status} at eps={eps:.6g}: {sol.message}")
    t = 1.0 if shrink is None else 1.0 - shrink
    P, Y = (None if a is None else t * a for a in problem.layout.unpack(sol.x))
    # the gain solves K P = Y
    K = _cho_solve(_spd_factor(P), Y.T).T if mode == "synthesis" else None
    report = {
        "status": "Optimal",
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
        "duality_gap": sol.duality_gap,
        "iters": sol.iters,
        **shape_report(P, K, default_delta(sys)),
        "relaxed_retry": shrink is not None,
        **({} if shrink is None else {"proof_shrink": shrink}),
        "symmetry_order": problem.layout.group_order,
        "decision_dim": problem.d,
    }
    return Certificate(mode=mode, P=P, epsilon=eps, alpha=alpha, Y=Y, K=K,
                       solver_report=report)


def _proof(problem, x: np.ndarray) -> float | None:
    """The first shrink 1 - t of ``_SHRINKS`` at which each block b at t x has
    lambda_max below -(d + 2 s_b) eps_mach (|F0_b|_F + sum_k |t x_k| |F_k,b|_F),
    a bound on the rounding of the block and of its eigenvalues; None if no
    shrink does, x is not finite or ``eigvalsh`` raises."""
    if not np.isfinite(x).all():
        return None
    user = [_Stack.of([blk]) for blk in problem.blocks]
    for shrink in _SHRINKS:
        tx = (1.0 - shrink) * x
        try:
            lam = check_block_feasibility(problem, tx, 0.0).lambda_max
        except np.linalg.LinAlgError:
            return None
        if all(lam_b < -(problem.d + 2 * ub.size) * np.finfo(float).eps
               * (ub.f0_norm[0] + np.abs(tx) @ ub.f_norm[0]) for lam_b, ub in zip(lam, user)):
            return shrink
    return None


def _sweep_point(sys, problem, sol: SdpSolution, eps, alpha, mode) -> SweepEntry:
    """The entry at eps: what ``max_trace`` gives, from the solution of its problem."""
    try:
        out = _outcome(sys, problem, sol, eps, alpha, mode)
    except SolverFailure as exc:
        return SweepEntry(epsilon=eps, certificate=None, status=f"failed: {exc}")
    if isinstance(out, Certificate):
        return SweepEntry(epsilon=eps, certificate=out, status="optimal")
    return SweepEntry(epsilon=eps, certificate=None, status="infeasible", ray=out.ray)


def _sweep_points(sys, family: _EpsFamily, grid) -> list[SweepEntry]:
    """One trace maximization per eps of ``grid``, on the problems of
    ``family``: the points that ``_spectral_ray`` decides take no solve, and
    the others are solved in lockstep."""
    problems = [family.problem(e) for e in grid]
    rays = [_spectral_ray(family.window, p, e, family.alpha, family.mode)
            for e, p in zip(grid, problems)]
    pending = [p for p, ray in zip(problems, rays) if ray is None]
    solutions = iter(solve_many(pending))
    return [_sweep_point(sys, p, next(solutions), e, family.alpha, family.mode) if ray is None
            else SweepEntry(epsilon=e, certificate=None, status="infeasible", ray=ray.ray,
                            solved=False)
            for e, p, ray in zip(grid, problems, rays)]


def _eps_star(family: _EpsFamily) -> float | None:
    return None if family.window is None else family.window.eps_star


def sweep_epsilon(sys: QBSystem, grid, alpha, mode: str) -> SweepResult:
    """One trace maximization per grid point; order of results follows the grid.

    The grid's problems come from one ``lmi._EpsFamily`` and are solved in
    lockstep (``sdp.solve_many``), but for the analysis points that the
    spectral ray decides; every entry is what ``max_trace`` at its eps
    gives."""
    grid = [float(e) for e in grid]
    if not grid:
        raise ValueError("eps grid must be non-empty")
    if any(e <= 0 for e in grid):
        raise ValueError("eps grid entries must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly increasing")
    family = _EpsFamily(sys, resolve_alpha(sys, alpha), mode)
    return SweepResult(entries=tuple(_sweep_points(sys, family, grid)),
                       eps_star=_eps_star(family), symmetry_order=family.layout.group_order)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_move(a: float, b: float, x1: float, x2: float, left: bool) -> tuple:
    """Golden section's bracket (a, b) and interior points (x1, x2) after
    comparing f(x1) with f(x2): ``left`` (f(x1) < f(x2)) drops [a, x1) and
    takes a new x2, else (x2, b] goes and a new x1 comes."""
    if left:
        a, x1 = x1, x2
        return a, b, x1, a + _INV_PHI * (b - a)
    b, x2 = x2, x1
    return a, b, b - _INV_PHI * (b - a), x2


def optimize_epsilon(sys: QBSystem, eps_range: tuple[float, float], rel_tol: float = 1e-3,
                     alpha=None, mode: str = "analysis") -> EpsilonSearchResult:
    """Line search for the eps maximizing trace(P) over (lo, hi).

    A log-spaced pre-scan, solved in lockstep, locates the best grid point
    and its bracket; a golden-section search then refines eps inside the
    bracket, where unimodality is assumed.  Its first two probes are solved
    together.  After that, each probe is solved with the probes of both
    moves that can follow it, while the bracket stays wide enough for one:
    its comparison picks one of them, and the other is discarded.  So the
    search probes the eps points, in the order and with the results, of one
    ``max_trace`` at a time, with about half as many rounds of solves.  The
    returned certificate is the best over every evaluation, so the result is
    never worse than any sub-grid seen.  Every probe's problem comes from
    one ``lmi._EpsFamily``, and every point decided by the spectral ray
    takes no solve (``_spectral_ray``).
    Raises ValueError unless rel_tol, the bracket width at which refinement
    stops relative to its upper end, is finite and at least ``REL_TOL_MIN``.
    """
    lo, hi = float(eps_range[0]), float(eps_range[1])
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    if not REL_TOL_MIN <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and at least {REL_TOL_MIN:g}, got {rel_tol}")
    family = _EpsFamily(sys, resolve_alpha(sys, alpha), mode)
    scan = np.geomspace(lo, hi, SCAN_POINTS)
    history: list[SweepEntry] = _sweep_points(sys, family, list(scan))
    # every entry evaluated, the discarded look-ahead probes included
    evaluated = list(history)

    def value(entry: SweepEntry) -> float:
        return entry.trace_P if entry.feasible else -math.inf

    def result(best: Certificate | None) -> EpsilonSearchResult:
        solves = sum(e.solved for e in evaluated)
        return EpsilonSearchResult(best=best, history=tuple(history), solves=solves,
                                   eps_star=_eps_star(family), ray_points=len(evaluated) - solves,
                                   symmetry_order=family.layout.group_order)

    k = int(np.argmax([value(e) for e in history]))
    if not history[k].feasible:
        return result(None)

    a = scan[k - 1] if k > 0 else lo
    b = scan[k + 1] if k + 1 < len(scan) else hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    history += _sweep_points(sys, family, [x1, x2])
    evaluated += history[-2:]
    f1, f2 = value(history[-2]), value(history[-1])
    # the entries at the new points of both moves that can follow the last
    # probe, by the ``left`` of each move
    ahead: dict = {}
    while (b - a) > rel_tol * b:
        left = f1 < f2
        a, b, x1, x2 = _golden_move(a, b, x1, x2, left)
        if left in ahead:
            entry, ahead = ahead[left], {}
        else:
            follow = (True, False) if (b - a) > rel_tol * b else ()
            points = [x2 if left else x1]
            for nxt in follow:
                move = _golden_move(a, b, x1, x2, nxt)
                points.append(move[3] if nxt else move[2])
            entries = _sweep_points(sys, family, points)
            evaluated += entries
            entry, *rest = entries
            ahead = dict(zip(follow, rest))
        history.append(entry)
        f1, f2 = (f2, value(entry)) if left else (value(entry), f1)

    feas = [e for e in history if e.feasible]
    return result(max(feas, key=lambda e: (e.trace_P, -e.epsilon)).certificate)


def ellipsoid_volume(e: Ellipsoid) -> float:
    """Lebesgue volume: unit-ball volume of R^n times sqrt(det P).

    Formed in log space (``_log_sqrt_det``), so neither the determinant nor
    the gamma function overflows or underflows in high n.
    """
    return math.exp(_log_ball_volume(e.n) + _log_sqrt_det(e.P))


def _log_sqrt_det(P: np.ndarray) -> float:
    """log sqrt(det P) of symmetric positive definite P: the sum of the logs
    of the Cholesky diagonal.  numpy's pairwise sum keeps it within a few
    ulps, where slogdet's running sum drifts by ~1e-12 at n = 200."""
    return float(np.sum(np.log(np.diagonal(_spd_factor(P)[0]))))


def _log_ball_volume(n: int) -> float:
    """log V(B^n), the log volume of the unit ball of R^n."""
    return 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)


@dataclass(frozen=True)
class UnionRegion:
    """A union of certified ellipsoids sharing one state dimension."""

    members: tuple

    def __post_init__(self):
        if not self.members:
            raise DimensionError("union must have at least one member")
        n = self.members[0].n
        if any(e.n != n for e in self.members):
            raise DimensionError("all members must share the state dimension")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def n(self) -> int:
        return self.members[0].n


def _union_rule(n: int, samples: int) -> tuple[str, tuple]:
    """``union_volume``'s method in R^n and the shape of its direction set.

    For n <= 3, ``samples`` sets a midpoint grid of about
    16 samples^((n-1)/n) directions: u = 1 alone at n = 1 (rho is even);
    2 ceil(8 sqrt(samples)) angles at n = 2; N_z = 2 ceil(sqrt(2) samples^(1/3))
    values of z = cos(theta) by 2 N_z angles at n = 3.  (With 4 in place of
    16, the three-state union at the sample floor read 20.089 +- 0.020
    against 19.932: both grids of the error estimate were too coarse.)
    """
    if n == 1:
        return "radial-midpoint", ()
    if n == 2:
        return "radial-midpoint", (2 * math.ceil(8.0 * math.sqrt(samples)),)
    if n == 3:
        n_z = 2 * math.ceil(math.sqrt(2.0) * samples ** (1.0 / 3.0))
        return "radial-midpoint", (n_z, 2 * n_z)
    return "radial-monte-carlo", (samples,)


def _grid_directions(shape: tuple, rows: int):
    """Chunks of the midpoint grid of ``_union_rule``, all cells of equal area:
    z uniform in [-1, 1] is uniform on the sphere of R^3 (Archimedes)."""
    if not shape:
        yield np.ones((1, 1))
        return
    phi = (2.0 * math.pi / shape[-1]) * (np.arange(shape[-1]) + 0.5)
    circle = np.column_stack([np.cos(phi), np.sin(phi)])
    if len(shape) == 1:
        yield from (circle[k:k + rows] for k in range(0, shape[0], rows))
        return
    z = (2.0 * np.arange(shape[0]) + 1.0) / shape[0] - 1.0
    per = max(1, rows // shape[1])
    for k in range(0, shape[0], per):
        zs = z[k:k + per, None, None]
        u = np.empty((zs.shape[0], shape[1], 3))
        u[..., :2] = np.sqrt(1.0 - zs * zs) * circle
        u[..., 2:] = zs
        yield u.reshape(-1, 3)


def _random_directions(n: int, samples: int, rows: int, rng: np.random.Generator):
    """Chunks of ``samples`` unit directions uniform on the sphere of R^n."""
    for k in range(0, samples, rows):
        u = rng.normal(size=(min(rows, samples - k), n))
        yield u / np.linalg.norm(u, axis=1, keepdims=True)


def _log_radial_mean(chunks, W: np.ndarray, n: int) -> tuple[float, float, int]:
    """log of the mean of rho(u)^n over the N directions in ``chunks``, log of
    its standard error (-inf if all values agree), and N.

    u'Qu = <svec(u u'), svec(Q)>, so one product of the monomials with the
    stacked svec(P^-1) gives every member's u'P^-1 u.  Each chunk scales its
    values by its largest; Chan, Golub and LeVeque's pairwise update merges
    the chunks' means and squared deviations.
    """
    i, j, _ = _svec_index(n)
    parts = []
    for u in chunks:
        # monomials by rows, so the product and its min run along rows; rows
        # are taken from a contiguous u', where a gather of one row per
        # monomial is 1.3 to 3.3 times faster than from the strided view
        uT = np.ascontiguousarray(u.T)
        mono = uT.take(i, axis=0)
        mono *= uT.take(j, axis=0)
        log_rho_n = -0.5 * n * np.log((W @ mono).min(axis=0))
        top = log_rho_n.max()
        v = np.exp(log_rho_n - top)
        mean = v.mean()
        parts.append((top, v.size, mean, float(np.sum((v - mean) ** 2))))
    top, count, mean, m2 = (np.array(a) for a in zip(*parts))
    s = float(top.max())
    mean *= np.exp(top - s)
    N = int(count.sum())
    total = float(count @ mean) / N
    m2 = float(np.sum(m2 * np.exp(2.0 * (top - s)) + count * (mean - total) ** 2))
    log_se = s + 0.5 * math.log(m2 / (N * (N - 1))) if m2 > 0 else -math.inf
    return s + math.log(total), log_se, N


def union_volume(region: UnionRegion, samples: int, seed: int) -> tuple[float, float]:
    """Volume of the union as a radial integral, and its error estimate.

    The members share the origin as centre, so the union is star-shaped with
    radial function rho(u) = (min_k u'P_k^-1 u)^(-1/2) and volume
    V(B^n) E[rho(u)^n] over unit directions u (Gardner, Geometric
    Tomography, ch. 0); both factors are formed in log space.  For n <= 3 a
    midpoint grid (``_union_rule``) gives the estimate, its distance to the
    same rule with half the points per axis the error, and ``seed`` is
    unused.  That error compares two grids, so it can read low where the
    outermost member changes (a kink of rho).  For n >= 4, ``samples``
    random directions from ``seed`` give the estimate and its standard
    error.  A needle, a member far longer than the rest along a few
    directions, gives rho(u)^n a heavy tail at n >= 4: few directions find
    it, and the estimate and its error both read low.
    The error is at least a rounding bound: u'P^-1 u is off by about 2n + 8
    ulps, the power -n/2 multiplies that by n/2, and exp and the sum add
    |log estimate| and log2(N) ulps.
    """
    if samples < UNION_MIN_SAMPLES:
        raise ValueError(f"need at least {UNION_MIN_SAMPLES} samples, got {samples}")
    n = region.n
    i, _, scale = _svec_index(n)
    # <svec(u u'), svec(Q)> = sum (u_i u_j) * (Q_ij scale^2): both scales go on Q
    W = np.stack([svec(_cho_solve(_spd_factor(e.P), np.eye(n))) * scale for e in region.members])
    # directions per chunk: the directions, monomials, gather temporary, values
    rows = max(1, UNION_CHUNK_BYTES // (8 * (n + 2 * i.size + W.shape[0])))
    log_ball = _log_ball_volume(n)
    method, shape = _union_rule(n, samples)
    if method == "radial-midpoint":
        log_mean, _, N = _log_radial_mean(_grid_directions(shape, rows), W, n)
        half = tuple(m // 2 for m in shape)
        log_half = _log_radial_mean(_grid_directions(half, rows), W, n)[0]
        error = abs(math.exp(log_ball + log_mean) - math.exp(log_ball + log_half))
    else:
        chunks = _random_directions(n, samples, rows, np.random.default_rng(seed))
        log_mean, log_se, N = _log_radial_mean(chunks, W, n)
        error = math.exp(log_ball + log_se)
    estimate = math.exp(log_ball + log_mean)
    ulps = n * (n + 4) + abs(log_ball + log_mean) + math.log2(N) + 1.0
    return estimate, max(error, estimate * ulps * math.ulp(1.0))


# ---------------------------------------------------------------------------
# certificate JSON round-trip
# ---------------------------------------------------------------------------

_CERT_SCHEMA = "qbstab-certificate-v1"


def serialize_certificate(cert: Certificate) -> dict:
    from . import __version__
    doc = {
        "schema": _CERT_SCHEMA,
        "mode": cert.mode,
        "n": cert.n,
        "m": cert.m,
        "epsilon": cert.epsilon,
        "alpha": cert.alpha,
        "P": cert.P.tolist(),
        "Y": cert.Y.tolist() if cert.Y is not None else None,
        "K": cert.K.tolist() if cert.K is not None else None,
        "trace": cert.trace_P,
        "residuals": dict(cert.solver_report),
        "tool_version": __version__,
    }
    return doc


def deserialize_certificate(doc: dict) -> Certificate:
    """Certificate from its JSON form; SchemaError on any malformed field.

    The stored ``trace`` is not read: ``trace_P`` follows from P.
    """
    if not isinstance(doc, dict) or doc.get("schema") != _CERT_SCHEMA:
        raise SchemaError(f"not a {_CERT_SCHEMA} document")
    try:
        mode = doc["mode"]
        n = _json_int(doc["n"], "n")
        m = _json_int(doc["m"], "m")
        P = _finite_array(doc["P"], "P")
        eps = float(doc["epsilon"])
        alpha = float(doc["alpha"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed certificate document: {exc}") from exc
    if mode not in ("analysis", "synthesis"):
        raise SchemaError(f"unknown mode {mode!r}")
    if P.shape != (n, n):
        raise SchemaError(f"P must be {n}x{n}, got {P.shape}")
    if not 0 < eps < math.inf:
        raise SchemaError(f"epsilon must be finite and positive, got {eps}")
    if not 0 <= alpha < math.inf:
        raise SchemaError(f"alpha must be finite and non-negative, got {alpha}")
    Y = _finite_array(doc["Y"], "Y") if doc.get("Y") is not None else None
    K = _finite_array(doc["K"], "K") if doc.get("K") is not None else None
    y_rows = 0 if Y is None else (Y.shape[0] if Y.ndim else None)
    if m != y_rows:
        raise SchemaError(f"m = {m} does not match the rows of Y ({y_rows})")
    residuals = doc.get("residuals", {})
    if not isinstance(residuals, dict):
        raise SchemaError(f"residuals must be an object, got {residuals!r}")
    try:
        return Certificate(mode=mode, P=P, epsilon=eps, alpha=alpha, Y=Y, K=K,
                           solver_report=dict(residuals))
    except (DimensionError, NotPositiveDefiniteError) as exc:
        raise SchemaError(str(exc)) from exc


def save_certificate(cert: Certificate, path) -> None:
    _write_json(path, serialize_certificate(cert))


def load_certificate(path) -> Certificate:
    return deserialize_certificate(_read_json(path))
