"""Certification protocols: trace maximization, eps sweeps, line search, unions.

Every routine returns either a ``Certificate`` (re-verifiable against the
assembled LMI) or an ``Infeasible`` marker carrying the solver's
improving-ray evidence.  Scalar search over eps treats the per-eps optimal
trace as a derivative-free maximization: a coarse log-spaced pre-scan
brackets the best value, then golden-section refinement assumes unimodality
inside the bracket only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .errors import DimensionError, NotPositiveDefiniteError, QBStabError, SchemaError
from .lmi import _spd_eigh, _spd_factor, _svec_index, assemble, default_alpha, default_delta, svec
from .sdp import SdpSolution, SolverConfig, solve
from .systems import QBSystem

__all__ = [
    "Certificate",
    "Infeasible",
    "Ellipsoid",
    "SweepEntry",
    "SweepResult",
    "EpsilonSearchResult",
    "UnionRegion",
    "SolverFailure",
    "max_trace",
    "sweep_epsilon",
    "optimize_epsilon",
    "extract_gain",
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
# fewest Monte Carlo points ``union_volume`` accepts
UNION_MIN_SAMPLES = 10_000
# ``union_volume`` sizes its point chunks so their working arrays hold about
# this many bytes together, whatever n and the member count
UNION_CHUNK_BYTES = 1 << 20
# log-spaced eps points of the ``optimize_epsilon`` pre-scan
SCAN_POINTS = 16
# traces within TIE_REL of the best count as tied in ``SweepResult.best``
TIE_REL = 1e-6


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
    """The set {x : x' P^-1 x <= 1} for symmetric positive definite P."""

    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise DimensionError(f"P must be square, got {P.shape}")
        if not np.allclose(P, P.T, rtol=0, atol=1e-12 * (1 + np.abs(P).max())):
            raise NotPositiveDefiniteError("P must be symmetric")
        _spd_eigh(P)  # raises unless P > 0
        object.__setattr__(self, "P", (P + P.T) / 2.0)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        z = np.linalg.solve(self.P, x)
        return float(x @ z) <= 1.0

    def bounding_halfwidths(self) -> np.ndarray:
        """Half-widths of the tightest axis-aligned box: sqrt(P_ii) per axis."""
        return np.sqrt(np.diag(self.P))


@dataclass(frozen=True)
class Certificate:
    """A stability (analysis) or stabilizability (synthesis) certificate.

    P defines the certified ellipsoid {x : x' P^-1 x <= 1}; eps is the scalar
    from the line search; alpha the decay margin the LMI enforced
    (d/dt V <= -alpha V inside the ellipsoid).  Synthesis certificates carry
    Y and the extracted gain K = Y P^-1.  ``solver_report`` says how the
    certificate was obtained: solver status, iterations and residuals,
    whether the solver's relaxed tolerances were used, and the ``shape_report``
    entries (lambda_min(P)/delta, floor activity, |K|_2).
    """

    mode: str
    P: np.ndarray
    epsilon: float
    alpha: float
    Y: np.ndarray | None = None
    K: np.ndarray | None = None
    trace_P: float = 0.0
    solver_report: dict = field(default_factory=dict)

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        _spd_eigh(P)  # raises unless P > 0
        object.__setattr__(self, "P", (P + P.T) / 2.0)
        if abs(self.trace_P - float(np.trace(P))) > 1e-12 * max(1.0, abs(self.trace_P)):
            object.__setattr__(self, "trace_P", float(np.trace(P)))
        if self.mode == "synthesis":
            if self.Y is None or self.K is None:
                raise DimensionError("synthesis certificate requires Y and K")
            Y = np.asarray(self.Y, dtype=float)
            K = np.asarray(self.K, dtype=float)
            # 1e-8 relative to |Y|, plus the rounding floor of forming K P,
            # which certificates written before the gain bound need: their
            # lambda_min(P) near the floor delta makes |K||P| >> |Y|
            floor = 64.0 * np.finfo(float).eps * np.linalg.norm(K) * np.linalg.norm(self.P)
            resid = float(np.linalg.norm(K @ self.P - Y))
            if resid > 1e-8 * max(np.linalg.norm(Y), 1e-30) + floor:
                raise DimensionError(f"K P != Y (residual {resid:.3e})")
            object.__setattr__(self, "Y", Y)
            object.__setattr__(self, "K", K)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def m(self) -> int:
        return 0 if self.Y is None else self.Y.shape[0]

    def ellipsoid(self) -> Ellipsoid:
        return Ellipsoid(P=self.P)


@dataclass(frozen=True)
class Infeasible:
    """Marker returned when the LMI admits no solution at the given eps.

    ``ray`` holds the solver's improving-ray blocks (trace-normalized) when a
    single eps was solved; for a whole-range search it is None and the
    per-eps outcomes are in ``EpsilonSearchResult.history``.
    """

    mode: str
    alpha: float
    epsilon: float | None = None
    ray: list | None = None
    message: str = ""


@dataclass(frozen=True)
class SweepEntry:
    epsilon: float
    feasible: bool
    trace_P: float | None
    certificate: Certificate | None
    status: str


@dataclass(frozen=True)
class SweepResult:
    """Per-eps feasibility and trace data for a grid sweep."""

    entries: tuple
    mode: str
    alpha: float

    def feasible_entries(self) -> list[SweepEntry]:
        return [e for e in self.entries if e.feasible]

    def best(self) -> Certificate | None:
        """Best certificate by trace; exact ties broken by ellipsoid volume.

        Trace-optimal values can be attained on an eps interval (flat optimal
        value with differently oriented ellipsoids), so among entries within
        ``TIE_REL`` of the maximum trace the one with the largest det(P)
        wins (compared as log det, which neither overflows nor underflows in
        high n); remaining ties go to the smallest eps for determinism.
        """
        feas = self.feasible_entries()
        if not feas:
            return None
        top = max(e.trace_P for e in feas)
        candidates = [e for e in feas if e.trace_P >= top * (1.0 - TIE_REL)]
        key = lambda e: (float(np.linalg.slogdet(e.certificate.P)[1]), -e.epsilon)
        return max(candidates, key=key).certificate

    def to_csv(self, path, timestamp: str | None = None) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            if timestamp is not None:
                fh.write(f"# generated: {timestamp}\n")
            fh.write("epsilon,feasible,trace_P\n")
            for e in self.entries:
                tr = f"{e.trace_P:.17g}" if e.feasible else ""
                fh.write(f"{e.epsilon:.17g},{int(e.feasible)},{tr}\n")


@dataclass(frozen=True)
class EpsilonSearchResult:
    """Outcome of the scalar line search over eps."""

    best: Certificate | None
    history: tuple          # SweepEntry, in evaluation order
    infeasible: Infeasible | None = None

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


def _gain_from(P: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Solve K P = Y through an SPD factorization of P."""
    return cho_solve(_spd_factor(P), Y.T).T


def max_trace(sys: QBSystem, eps: float, alpha, mode: str,
              config: SolverConfig | None = None) -> Certificate | Infeasible:
    """Maximize trace(P) subject to the eps-parameterized LMI.

    Returns a Certificate on Optimal and an Infeasible marker (with the dual
    ray attached) otherwise; numerical failures raise SolverFailure with eps
    in the message.

    One solve per eps.  If it ends NumericalFailure or IterLimit, its
    ``relaxed`` solution (the first iterate that passed the solver's looser
    tolerances) is used, also on well-conditioned optima whose attainable
    dual accuracy lands just above the tolerance.  The certificate's
    ``solver_report`` says whether that happened (``relaxed_retry``), how far
    lambda_min(P) sits above the floor delta (floor-active when within
    10 delta) and the spectral norm of K.
    """
    alpha = resolve_alpha(sys, alpha)
    problem = assemble(sys, eps, alpha, mode)
    sol = solve(problem, config)
    retried = sol.status in ("NumericalFailure", "IterLimit")
    if retried and sol.relaxed is not None:
        sol = sol.relaxed
    if sol.status == "Optimal":
        return _certificate_from_solution(sys, problem, sol, eps, alpha, mode, retried)
    if sol.status == "Infeasible":
        return Infeasible(mode=mode, alpha=alpha, epsilon=eps, ray=sol.Z,
                          message=sol.message)
    raise SolverFailure(f"solver returned {sol.status} at eps={eps:.6g}: {sol.message}")


def _certificate_from_solution(sys, problem, sol: SdpSolution, eps, alpha, mode,
                               retried: bool) -> Certificate:
    P, Y = problem.layout.unpack(sol.x)
    K = _gain_from(P, Y) if mode == "synthesis" else None
    report = {
        "status": sol.status,
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
        "duality_gap": sol.duality_gap,
        "iters": sol.iters,
        **shape_report(P, K, default_delta(sys)),
        "relaxed_retry": retried,
    }
    return Certificate(mode=mode, P=P, epsilon=eps, alpha=alpha, Y=Y, K=K,
                       trace_P=float(np.trace(P)), solver_report=report)


def _sweep_point(sys, eps, alpha, mode, config) -> SweepEntry:
    try:
        out = max_trace(sys, eps, alpha, mode, config)
    except SolverFailure as exc:
        return SweepEntry(epsilon=eps, feasible=False, trace_P=None,
                          certificate=None, status=f"failed: {exc}")
    if isinstance(out, Certificate):
        return SweepEntry(epsilon=eps, feasible=True, trace_P=out.trace_P,
                          certificate=out, status="optimal")
    return SweepEntry(epsilon=eps, feasible=False, trace_P=None,
                      certificate=None, status="infeasible")


def sweep_epsilon(sys: QBSystem, grid, alpha, mode: str,
                  config: SolverConfig | None = None) -> SweepResult:
    """One trace maximization per grid point; order of results follows the grid."""
    grid = [float(e) for e in grid]
    if not grid:
        raise ValueError("eps grid must be non-empty")
    if any(e <= 0 for e in grid):
        raise ValueError("eps grid entries must be positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("eps grid must be strictly increasing")
    alpha = resolve_alpha(sys, alpha)
    entries = [_sweep_point(sys, e, alpha, mode, config) for e in grid]
    return SweepResult(entries=tuple(entries), mode=mode, alpha=alpha)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_epsilon(sys: QBSystem, eps_range: tuple[float, float], rel_tol: float = 1e-3,
                     alpha=None, mode: str = "analysis",
                     config: SolverConfig | None = None) -> EpsilonSearchResult:
    """Line search for the eps maximizing trace(P) over (lo, hi).

    A log-spaced pre-scan locates the best grid point and its bracket; a
    golden-section search then refines eps inside the bracket, where
    unimodality is assumed.  The returned certificate is the best over every
    evaluation, so the result is never worse than any sub-grid seen.
    Raises ValueError unless rel_tol, the bracket width at which
    refinement stops relative to its upper end, is finite and positive.
    """
    lo, hi = float(eps_range[0]), float(eps_range[1])
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    if not 0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    alpha = resolve_alpha(sys, alpha)
    history: list[SweepEntry] = []

    def probe(eps: float) -> SweepEntry:
        entry = _sweep_point(sys, eps, alpha, mode, config)
        history.append(entry)
        return entry

    def value(entry: SweepEntry) -> float:
        return entry.trace_P if entry.feasible else -math.inf

    scan = np.geomspace(lo, hi, SCAN_POINTS)
    scan_entries = [probe(e) for e in scan]
    values = [value(e) for e in scan_entries]
    k = int(np.argmax(values))
    if not scan_entries[k].feasible:
        return EpsilonSearchResult(
            best=None, history=tuple(history),
            infeasible=Infeasible(mode=mode, alpha=alpha,
                                  message=f"no feasible eps in ({lo:.6g}, {hi:.6g})"))

    a = scan[k - 1] if k > 0 else lo
    b = scan[k + 1] if k + 1 < len(scan) else hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = value(probe(x1)), value(probe(x2))
    while (b - a) > rel_tol * b:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = value(probe(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = value(probe(x1))

    feas = [e for e in history if e.feasible]
    best_entry = max(feas, key=lambda e: (e.trace_P, -e.epsilon))
    return EpsilonSearchResult(best=best_entry.certificate, history=tuple(history))


def extract_gain(cert: Certificate) -> np.ndarray:
    """Recover K from K P = Y through an SPD factorization of P."""
    if cert.mode != "synthesis":
        raise DimensionError("gain extraction requires a synthesis certificate")
    return _gain_from(cert.P, cert.Y)


def ellipsoid_volume(e: Ellipsoid) -> float:
    """Lebesgue volume: unit-ball volume of R^n times sqrt(det P).

    Formed in log space, so neither the determinant nor the gamma function
    overflows or underflows in high n.  log sqrt(det P) is the sum of the
    logs of the Cholesky diagonal; numpy's pairwise sum keeps it within a
    few ulps, where slogdet's running sum drifts by ~1e-12 at n = 200.
    """
    n = e.n
    log_ball = 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)
    log_sqrt_det = float(np.sum(np.log(np.diagonal(np.linalg.cholesky(e.P)))))
    return math.exp(log_ball + log_sqrt_det)


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


def union_volume(region: UnionRegion, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo volume of the union over its joint bounding box.

    Deterministic for a fixed seed; the standard error comes from the
    binomial hit-count estimate.  x'Qx = <svec(x x'), svec(Q)>, so one
    product of the points' monomials with the stacked svec(P^-1) tests
    every member at once; a point is a hit when its smallest value is <= 1.
    """
    if samples < UNION_MIN_SAMPLES:
        raise ValueError(f"need at least {UNION_MIN_SAMPLES} samples, got {samples}")
    n = region.n
    hw = np.max([e.bounding_halfwidths() for e in region.members], axis=0)
    i, j, scale = _svec_index(n)
    # svec(x x') * svec(Q) = (x_i x_j) * (Q_ij scale^2): both scales go on Q
    W = np.stack([svec(np.linalg.inv(e.P)) * scale for e in region.members], axis=1)
    # rows per chunk: the monomials, their gather temporary and the values
    rows = max(1, UNION_CHUNK_BYTES // (8 * (2 * i.size + W.shape[1])))
    rng = np.random.default_rng(seed)
    box_volume = float(np.prod(2.0 * hw))
    hits = 0
    for start in range(0, samples, rows):
        pts = rng.uniform(-hw, hw, size=(min(rows, samples - start), n))
        mono = pts[:, i]
        mono *= pts[:, j]
        hits += int(np.count_nonzero((mono @ W).min(axis=1) <= 1.0))
    p_hat = hits / samples
    estimate = box_volume * p_hat
    stderr = box_volume * math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return estimate, stderr


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
    if not isinstance(doc, dict) or doc.get("schema") != _CERT_SCHEMA:
        raise SchemaError(f"not a {_CERT_SCHEMA} document")
    try:
        mode = doc["mode"]
        n = int(doc["n"])
        P = np.asarray(doc["P"], dtype=float)
        eps = float(doc["epsilon"])
        alpha = float(doc["alpha"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"malformed certificate document: {exc}") from exc
    if mode not in ("analysis", "synthesis"):
        raise SchemaError(f"unknown mode {mode!r}")
    if P.shape != (n, n):
        raise SchemaError(f"P must be {n}x{n}, got {P.shape}")
    Y = np.asarray(doc["Y"], dtype=float) if doc.get("Y") is not None else None
    K = np.asarray(doc["K"], dtype=float) if doc.get("K") is not None else None
    try:
        return Certificate(mode=mode, P=P, epsilon=eps, alpha=alpha, Y=Y, K=K,
                           trace_P=float(doc.get("trace", np.trace(P))),
                           solver_report=dict(doc.get("residuals", {})))
    except (DimensionError, NotPositiveDefiniteError) as exc:
        raise SchemaError(str(exc)) from exc


def save_certificate(cert: Certificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_certificate(cert), fh, indent=1)
        fh.write("\n")


def load_certificate(path) -> Certificate:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return deserialize_certificate(doc)
