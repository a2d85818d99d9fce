"""Assembly of the stability/stabilizability block LMIs in SDP standard form.

For a fixed scalar eps > 0 and decay margin alpha >= 0, the certification
problem is a linear matrix inequality in the ellipsoid shape matrix P (and,
for synthesis, the gain surrogate Y = K P):

analysis (m = 0), block size 2n:

    [ A P + P A' + eps * sum_i H_i P H_i' + alpha P    P     ]
    [                P                                -eps I ]  <= 0

synthesis (m >= 1), block size 3n, with Ypad = [Y; 0] padded to n-by-n:

    [ TL     P       Ypad' ]
    [ P    -eps I    0     ]        TL = A P + P A' + B Y + Y' B'
    [ Ypad   0      -eps I ]             + eps * (sum_i H_i P H_i' + sum_j D_j P D_j')
                                         + alpha P

A second block, size m + n, keeps P off the floor delta and, for synthesis,
bounds the input amplitude on the certified ellipsoid (Boyd, El Ghaoui,
Feron & Balakrishnan, LMIs in System and Control Theory, SIAM 1994, 7.2.3):

    [ mu I   Y           ]
    [ Y'     P - delta I ]  >= 0,

i.e. P >= delta I and Y (P - delta I)^-1 Y' <= mu I, which gives
|K x| <= sqrt(mu) wherever x' P^-1 x <= 1.  For analysis (m = 0) only the
lower-right corner P >= delta I remains.  mu is ``default_mu``.

Both blocks are expressed as affine maps F0 + sum_k x_k F_k <= 0 over a
flat decision vector x = svec(P) (+) vec(Y), where svec uses sqrt(2)
off-diagonal scaling so the decision-space inner product equals the matrix
trace inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionError, NotPositiveDefiniteError
from .systems import QBSystem

__all__ = [
    "DecisionLayout",
    "LmiBlock",
    "SdpProblem",
    "PetersenParts",
    "layout",
    "assemble",
    "petersen_parts",
    "delta_norm",
    "svec",
    "unsvec",
    "svec_basis",
    "default_alpha",
    "default_delta",
    "default_mu",
]

_SQRT2 = np.sqrt(2.0)


@lru_cache(maxsize=None)
def _svec_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (i, j, scale) of the svec entries of an n-by-n matrix.

    Pairs i <= j scan columns: (0,0), (0,1), (1,1), ...; scale is 1 on the
    diagonal and sqrt(2) off it.  Cached because the solver calls ``svec``
    in every interior-point iteration.
    """
    j, i = np.tril_indices(n)
    scale = np.where(i == j, 1.0, _SQRT2)
    for a in (i, j, scale):
        a.flags.writeable = False
    return i, j, scale


def svec_indices(n: int) -> list[tuple[int, int]]:
    """Ordered (i, j) pairs, i <= j, scanning columns: (0,0), (0,1), (1,1), ..."""
    i, j, _ = _svec_index(n)
    return list(zip(i.tolist(), j.tolist()))


def svec(S: np.ndarray) -> np.ndarray:
    """Half-vectorize symmetric matrices, shape (..., s, s), with sqrt(2) off-diagonal scaling."""
    S = np.asarray(S, dtype=float)
    i, j, scale = _svec_index(S.shape[-1])
    return S[..., i, j] * scale


def unsvec(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of ``svec``."""
    v = np.asarray(v, dtype=float)
    if v.shape[0] != n * (n + 1) // 2:
        raise DimensionError(f"svec vector must have length {n * (n + 1) // 2}")
    i, j, scale = _svec_index(n)
    S = np.zeros((n, n))
    S[i, j] = v / scale
    S[j, i] = S[i, j]
    return S


def svec_basis(n: int) -> np.ndarray:
    """Stacked symmetric basis E_k with P = sum_k x_k E_k for x = svec(P)."""
    i, j, scale = _svec_index(n)
    k = np.arange(i.shape[0])
    E = np.zeros((i.shape[0], n, n))
    E[k, i, j] = 1.0 / scale
    E[k, j, i] = E[k, i, j]
    return E


@dataclass(frozen=True)
class DecisionLayout:
    """Mapping of (P, Y) entries into the flat decision vector.

    P occupies the first n(n+1)/2 slots as svec(P); Y (synthesis only)
    follows row-major.  ``p_indices[(i, j)]`` with i <= j and
    ``y_indices[(r, c)]`` give flat positions.
    """

    n: int
    m: int
    mode: str
    p_indices: dict = field(repr=False)
    y_indices: dict = field(repr=False)
    d: int

    @property
    def n_p(self) -> int:
        return self.n * (self.n + 1) // 2

    def pack(self, P: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """Flatten (P, Y) into a decision vector."""
        x = svec(np.asarray(P, dtype=float))
        if self.mode == "synthesis":
            if Y is None:
                raise DimensionError("synthesis layout requires Y")
            x = np.concatenate([x, np.asarray(Y, dtype=float).reshape(-1)])
        elif Y is not None and np.any(np.asarray(Y)):
            raise DimensionError("analysis layout takes no Y")
        if x.shape[0] != self.d:
            raise DimensionError(f"decision vector must have length {self.d}")
        return x

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Split a decision vector back into (P, Y)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.d:
            raise DimensionError(f"decision vector must have length {self.d}")
        P = unsvec(x[: self.n_p], self.n)
        if self.mode == "synthesis":
            Y = x[self.n_p:].reshape(self.m, self.n)
            return P, Y
        return P, None

    def trace_objective(self) -> np.ndarray:
        """Objective vector c with c'x = trace(P)."""
        c = np.zeros(self.d)
        for (i, j), k in self.p_indices.items():
            if i == j:
                c[k] = 1.0
        return c


def layout(n: int, m: int, mode: str) -> DecisionLayout:
    """Build the decision layout for the given mode ('analysis' or 'synthesis')."""
    if mode not in ("analysis", "synthesis"):
        raise ValueError(f"mode must be 'analysis' or 'synthesis', got {mode!r}")
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    if mode == "synthesis" and m < 1:
        raise DimensionError("synthesis layout requires m >= 1")
    pairs = svec_indices(n)
    p_indices = {pair: k for k, pair in enumerate(pairs)}
    y_indices = {}
    n_p = len(pairs)
    if mode == "synthesis":
        for r in range(m):
            for c in range(n):
                y_indices[(r, c)] = n_p + r * n + c
        d = n_p + m * n
    else:
        d = n_p
    return DecisionLayout(n=n, m=m if mode == "synthesis" else 0, mode=mode,
                          p_indices=p_indices, y_indices=y_indices, d=d)


@dataclass(frozen=True)
class LmiBlock:
    """One affine constraint block F0 + sum_k x_k F[k] <= 0.

    The solver reaches F only through ``linear``, ``adjoint`` and
    ``congruence_svec``, so the storage format stays behind this class.
    """

    F0: np.ndarray
    F: np.ndarray  # (d, s, s)

    @property
    def size(self) -> int:
        return self.F0.shape[0]

    def linear(self, x: np.ndarray) -> np.ndarray:
        """sum_k x_k F_k."""
        return np.einsum("k,kst->st", np.asarray(x, dtype=float), self.F)

    def adjoint(self, Z: np.ndarray) -> np.ndarray:
        """(<F_k, Z>)_k, the adjoint of ``linear``."""
        return self.F.reshape(self.F.shape[0], -1) @ np.asarray(Z, dtype=float).reshape(-1)

    def congruence_svec(self, G: np.ndarray) -> np.ndarray:
        """Rows svec(G' F_k G), shape (d, s(s+1)/2)."""
        return svec(np.matmul(G.T, np.matmul(self.F, G)))

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.F0 + self.linear(x)


@dataclass(frozen=True)
class SdpProblem:
    """maximize c'x subject to per-block F0 + sum_k x_k F_k <= 0."""

    layout: DecisionLayout
    c: np.ndarray
    blocks: tuple

    @property
    def d(self) -> int:
        return self.layout.d

    def block_sizes(self) -> list[int]:
        return [blk.size for blk in self.blocks]

    def to_debug_dict(self) -> dict:
        """Dump F0/F_k triplets per block for cross-validation against other solvers."""
        out = {"d": self.d, "c": self.c.tolist(), "blocks": []}
        for blk in self.blocks:
            entry = {"size": blk.size, "F0": _triplets(blk.F0), "F": {}}
            for k in range(self.d):
                tri = _triplets(blk.F[k])
                if tri:
                    entry["F"][str(k)] = tri
            out["blocks"].append(entry)
        return out


def _triplets(M: np.ndarray) -> list:
    rows, cols = np.nonzero(M)
    return [[int(r), int(c), float(M[r, c])] for r, c in zip(rows, cols) if r <= c]


def default_alpha(sys: QBSystem) -> float:
    """Decay margin used when a caller asks for the 'strict' inequality."""
    return 1e-6 * float(np.linalg.norm(sys.A, "fro"))


def default_delta(sys: QBSystem) -> float:
    """Floor P >= delta I keeping P invertible for gains and geometry."""
    nrm = float(np.linalg.norm(sys.A, "fro"))
    return 1e-8 * max(1.0, 1.0 / nrm if nrm > 0 else 1.0)


def default_mu(sys: QBSystem) -> float:
    """Input-amplitude bound |K x|^2 <= mu on the certified ellipsoid (synthesis).

    r = |A|_F / |H|_F is the state radius at which the quadratic term grows
    as large as the linear drift, so no local certificate reaches far past
    it, and |A|_F r is the drift speed there.  mu is the square of the input
    amplitude |A|_F r / |B|_F whose push |B u| matches that speed.  The rule
    is unchanged by rescaling state, input or time.  Without a bound, trace
    maximization parks lambda_min(P) on the floor delta and returns gains
    |K| ~ 1e8 that no explicit integrator can follow.  When A, B or H is
    zero the rule has no scale and mu = 1.
    """
    a = float(np.linalg.norm(sys.A, "fro"))
    b = float(np.linalg.norm(sys.B, "fro")) if sys.m else 0.0
    h = float(np.linalg.norm(sys.H, "fro"))
    if a == 0 or b == 0 or h == 0:
        return 1.0
    return (a * a / (b * h)) ** 2


def _quadratic_gram(blocks: np.ndarray) -> np.ndarray:
    """Stacked sum_p M_p E_k M_p' for every basis element E_k.

    ``blocks`` is (p, n, n); returns (d_p, n, n).  Uses the rank-structure of
    E_k: for E_k = (e_i e_j' + e_j e_i')/s the product is built from outer
    products of block columns, via the precomputed Gram tensor
    S[i, j, a, b] = sum_p blocks[p, a, i] * blocks[p, b, j].
    """
    p, n, _ = blocks.shape
    V = blocks.reshape(p, n * n)  # row p holds blocks[p] row-major: index a*n + i
    # S2[(a, i), (b, j)] = sum_p blocks[p,a,i] blocks[p,b,j]
    S2 = V.T @ V  # (n*n, n*n)
    S = S2.reshape(n, n, n, n)  # [a, i, b, j]
    i, j, _ = _svec_index(n)
    out = S[:, i, :, j]  # [k, a, b]
    off = i != j
    out[off] += S[:, j[off], :, i[off]]
    out[off] /= _SQRT2
    return out


def assemble(sys: QBSystem, eps: float, alpha: float, mode: str,
             delta: float | None = None) -> SdpProblem:
    """Assemble the trace-maximization SDP for the given mode.

    The main block is the LMI above; the second block enforces P >= delta I
    and, for synthesis, the input bound Y (P - delta I)^-1 Y' <= mu I with
    mu = ``default_mu`` (delta defaults to ``default_delta``).  The
    objective maximizes trace(P).
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    lay = layout(sys.n, sys.m, mode)
    n, m, d = sys.n, lay.m, lay.d
    if delta is None:
        delta = default_delta(sys)

    E = svec_basis(n)          # (n_p, n, n)
    n_p = E.shape[0]
    A = sys.A
    Hstack = np.stack([sys.h_block(i) for i in range(n)])  # (n, n, n)

    # Linear part of TL in the P variables.
    AE = np.einsum("ab,kbc->kac", A, E)
    TL_P = AE + AE.transpose(0, 2, 1)
    TL_P += eps * _quadratic_gram(Hstack)
    if mode == "synthesis" and m:
        Dstack = np.stack(sys.D)
        TL_P += eps * _quadratic_gram(Dstack)
    if alpha:
        TL_P += alpha * E

    s = 2 * n if mode == "analysis" else 3 * n
    F = np.zeros((d, s, s))
    F[:n_p, :n, :n] = TL_P
    # off-diagonal P slot
    F[:n_p, :n, n:2 * n] += E
    F[:n_p, n:2 * n, :n] += E
    if mode == "synthesis":
        B = sys.B
        for (r, c), k in lay.y_indices.items():
            # TL gets B Y + Y' B' with Y[r, c] = x_k
            eBc = np.outer(B[:, r], _unit(n, c))
            F[k, :n, :n] += eBc + eBc.T
            # Ypad' occupies the last n-by-n slot, Y' in its first m columns
            F[k, c, 2 * n + r] += 1.0
            F[k, 2 * n + r, c] += 1.0
    F0 = np.zeros((s, s))
    F0[n:, n:] = -eps * np.eye(s - n)
    main = LmiBlock(F0=F0, F=F)

    # floor block: -[[mu I, Y], [Y', P - delta I]] <= 0; for analysis (m = 0)
    # only the lower-right corner delta I - P remains
    Ff = np.zeros((d, m + n, m + n))
    Ff[:n_p, m:, m:] = -E
    F0f = np.zeros((m + n, m + n))
    F0f[m:, m:] = delta * np.eye(n)
    if m:
        F0f[:m, :m] = -default_mu(sys) * np.eye(m)
        for (r, c), k in lay.y_indices.items():
            Ff[k, r, m + c] = Ff[k, m + c, r] = -1.0
    floor = LmiBlock(F0=F0f, F=Ff)

    return SdpProblem(layout=lay, c=lay.trace_objective(), blocks=(main, floor))


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


@dataclass(frozen=True)
class PetersenParts:
    """The (G, M, N) triple of the norm-bounded-uncertainty form.

    The LMI main block is the Schur-complement form of
    G + eps M M' + (1/eps) N'N + alpha P <= 0.
    """

    G: np.ndarray
    M: np.ndarray
    N: np.ndarray


def _spd_sqrt(P: np.ndarray) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    w, V = np.linalg.eigh((P + P.T) / 2.0)
    if w[0] <= 0:
        raise NotPositiveDefiniteError(f"P must be positive definite; min eigenvalue {w[0]:.3e}")
    return (V * np.sqrt(w)) @ V.T


def petersen_parts(sys: QBSystem, P: np.ndarray, K: np.ndarray | None = None) -> PetersenParts:
    """Instantiate G, M, N for a concrete P (and gain K in the synthesis case).

    analysis:  G = A P + P A',           M = [H_1 P^.5, ..., H_n P^.5],   N = P.
    synthesis: G = (A+BK) P + P (A+BK)', M = [D_1 P^.5, H_1 P^.5, ...],   N = [Kpad P; P]
    with D_i = 0 for i >= m and Kpad = [K; 0] padded to n-by-n.
    """
    n = sys.n
    P = np.asarray(P, dtype=float)
    if P.shape != (n, n):
        raise DimensionError(f"P must be {n}x{n}")
    Ph = _spd_sqrt(P)
    if K is None:
        G = sys.A @ P + P @ sys.A.T
        M = np.hstack([sys.h_block(i) @ Ph for i in range(n)])
        N = P.copy()
        return PetersenParts(G=G, M=M, N=N)
    K = np.asarray(K, dtype=float)
    if K.shape != (sys.m, n):
        raise DimensionError(f"K must be {sys.m}x{n}")
    Acl = sys.A + sys.B @ K
    G = Acl @ P + P @ Acl.T
    cols = []
    for i in range(n):
        Di = sys.D[i] if i < sys.m else np.zeros((n, n))
        cols.append(Di @ Ph)
        cols.append(sys.h_block(i) @ Ph)
    M = np.hstack(cols)
    Kpad = np.vstack([K, np.zeros((n - sys.m, n))])
    N = np.vstack([Kpad @ P, P])
    return PetersenParts(G=G, M=M, N=N)


def delta_norm(sys: QBSystem, P: np.ndarray, x: np.ndarray, mode: str) -> float:
    """Spectral norm of the uncertainty matrix Delta at state x.

    Builds the explicit Delta of the chosen mode and returns its 2-norm,
    which equals sqrt(x' P^-1 x).
    """
    if mode not in ("analysis", "synthesis"):
        raise ValueError(f"mode must be 'analysis' or 'synthesis', got {mode!r}")
    n = sys.n
    P = np.asarray(P, dtype=float)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != n:
        raise DimensionError(f"x must have length {n}")
    w, V = np.linalg.eigh((P + P.T) / 2.0)
    if w[0] <= 0:
        raise NotPositiveDefiniteError(f"P must be positive definite; min eigenvalue {w[0]:.3e}")
    P_invh = (V / np.sqrt(w)) @ V.T
    row = P_invh @ x  # P^{-1/2} x
    blocks = []
    eye2 = np.eye(2)
    for i in range(n):
        core = np.outer(row, _unit(n, i))  # (e_i x' P^{-1/2})'
        blocks.append(np.kron(eye2, core) if mode == "synthesis" else core)
    Delta = np.concatenate(blocks, axis=0)
    return float(np.linalg.norm(Delta, 2))
