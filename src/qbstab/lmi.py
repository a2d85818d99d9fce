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

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import cho_factor

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

    P occupies the first n_p = n(n+1)/2 slots as svec(P), in ``_svec_index``
    order; Y (synthesis only) follows row-major, Y[r, c] at n_p + r n + c.
    """

    n: int
    m: int
    mode: str

    @property
    def n_p(self) -> int:
        return self.n * (self.n + 1) // 2

    @property
    def d(self) -> int:
        return self.n_p + self.m * self.n

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
        i, j, _ = _svec_index(self.n)
        c = np.zeros(self.d)
        c[: self.n_p][i == j] = 1.0
        return c


def layout(n: int, m: int, mode: str) -> DecisionLayout:
    """Build the decision layout for the given mode ('analysis' or 'synthesis')."""
    if mode not in ("analysis", "synthesis"):
        raise ValueError(f"mode must be 'analysis' or 'synthesis', got {mode!r}")
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    if mode == "synthesis" and m < 1:
        raise DimensionError("synthesis layout requires m >= 1")
    return DecisionLayout(n=n, m=m if mode == "synthesis" else 0, mode=mode)


# doubles per temporary chunk in ``LmiBlock.congruence`` and ``assemble``
_CHUNK = 1 << 18


def _padded_rows(support: np.ndarray) -> np.ndarray:
    """Sorted indices of the True entries of each row of ``support`` (d, s),
    padded with False ones to the widest row's count (at least 1)."""
    r = max(1, int(support.sum(axis=1).max(initial=0)))
    return np.sort(np.argsort(~support, axis=1, kind="stable")[:, :r], axis=1)


@dataclass(frozen=True)
class LmiBlock:
    """One affine constraint block F0 + sum_k x_k F_k <= 0 with symmetric F_k.

    Row-compressed storage: F_k vanishes outside the rows ``rows[k]`` (and,
    being symmetric, outside those columns), and ``vals[k, t]`` is row
    ``rows[k, t]`` of F_k.  Every ``rows[k]`` holds the same number r of
    distinct indices; an F_k with fewer nonzero rows is padded with zero
    rows, so the block keeps d r s numbers instead of d s^2.  How small r is
    depends on the system: sparse A, B, D and H give r << s (a stacked
    n = 40 main block has s = 80 and r = 6), while a dense A or H gives a
    main block with r = n + 2 of s = 2n and a quarter of F nonzero.
    The solver reaches F only through ``linear``, ``adjoint`` and
    ``congruence`` (which ``schur`` uses), all working from the stored rows;
    ``dense`` and ``from_dense`` convert.
    """

    F0: np.ndarray    # (s, s)
    rows: np.ndarray  # (d, r) int
    vals: np.ndarray  # (d, r, s)

    def __post_init__(self):
        F0 = np.asarray(self.F0, dtype=float)
        rows = np.asarray(self.rows, dtype=np.intp)
        vals = np.asarray(self.vals, dtype=float)
        s = F0.shape[0] if F0.ndim == 2 else -1
        if (F0.shape != (s, s) or rows.ndim != 2 or vals.shape != rows.shape + (s,)
                or rows.size == 0 or rows.min() < 0 or rows.max() >= s
                or np.any(np.diff(np.sort(rows, axis=1), axis=1) == 0)):
            raise ValueError("malformed problem: F stack shape mismatch")
        if not np.array_equal(F0, F0.T):
            raise ValueError("malformed problem: F0 not symmetric")
        # F_k[rows, rows] must be symmetric and hold every nonzero of vals
        sub = np.take_along_axis(vals, rows[:, None, :], axis=2)
        if (not np.array_equal(sub, sub.transpose(0, 2, 1))
                or np.count_nonzero(sub) != np.count_nonzero(vals)):
            raise ValueError("malformed problem: F_k not symmetric")
        # the nonzeros of F in k-major order: F_k[a, b] at flat index a s + b
        k, t, col = np.nonzero(vals)
        nnz = (k, rows[k, t] * s + col, vals[k, t, col])
        for name, value in (("F0", F0), ("rows", rows), ("vals", vals), ("_nnz", nnz)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_dense(cls, F0: np.ndarray, F: np.ndarray) -> "LmiBlock":
        """Block from a dense (d, s, s) stack of symmetric F_k."""
        F0 = np.asarray(F0, dtype=float)
        F = np.asarray(F, dtype=float)
        if F.ndim != 3 or F.shape[1:] != F0.shape:
            raise ValueError("malformed problem: F stack shape mismatch")
        rows = _padded_rows(np.any(F != 0, axis=2))
        return cls(F0=F0, rows=rows, vals=np.take_along_axis(F, rows[:, :, None], axis=1))

    @property
    def size(self) -> int:
        return self.F0.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[0]

    @property
    def nnz(self) -> int:
        """Number of nonzero entries over all F_k."""
        return len(self._nnz[0])

    def dense(self) -> np.ndarray:
        """The (d, s, s) stack of F_k."""
        F = np.zeros((self.d, self.size, self.size))
        F[np.arange(self.d)[:, None], self.rows] = self.vals
        return F

    @cached_property
    def _csr(self):
        """The d-by-s^2 sparse matrix whose row k is vec(F_k)."""
        from scipy import sparse  # only blocks that ``schur`` serves need it

        k, flat, v = self._nnz
        indptr = np.concatenate([[0], np.cumsum(np.bincount(k, minlength=self.d))])
        return sparse.csr_array((v, flat, indptr), shape=(self.d, self.size * self.size))

    def linear(self, x: np.ndarray) -> np.ndarray:
        """sum_k x_k F_k."""
        k, flat, v = self._nnz
        s = self.size
        return np.bincount(flat, weights=v * np.asarray(x, dtype=float)[k],
                           minlength=s * s).reshape(s, s)

    def adjoint(self, Z: np.ndarray) -> np.ndarray:
        """(<F_k, Z>)_k, the adjoint of ``linear``."""
        k, flat, v = self._nnz
        return np.bincount(k, weights=v * np.asarray(Z, dtype=float).reshape(-1)[flat],
                           minlength=self.d)

    def congruence(self, L: np.ndarray, R: np.ndarray):
        """Yield (ks, L F_k R for k in ks) over slices ks of range(d), each of
        about ``_CHUNK`` doubles.  F_k R is zero outside the rows ``rows[k]``,
        where it is ``vals[k]`` R, so no dense F_k is formed."""
        d, r, s = self.vals.shape
        step = max(1, _CHUNK // (L.shape[0] * R.shape[1]))
        for lo in range(0, d, step):
            ks = slice(lo, lo + step)
            # one (c r, s) product: c products of r rows round differently in BLAS
            VR = (self.vals[ks].reshape(-1, s) @ R).reshape(-1, r, R.shape[1])
            yield ks, np.swapaxes(L[:, self.rows[ks]], 0, 1) @ VR

    def schur(self, W: np.ndarray) -> np.ndarray:
        """(<F_k, W F_l W>)_kl for symmetric W, this block's share of the
        Schur complement (Fujisawa, Kojima & Nakata, Math. Prog. 1997).

        W F_l W comes from ``congruence``, and the inner products with every
        F_k touch only the nonzeros of F."""
        M = np.empty((self.d, self.d))
        for ls, WFW in self.congruence(W, W):
            M[:, ls] = self._csr @ WFW.reshape(WFW.shape[0], -1).T
        return M

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return self.F0 + self.linear(x)


@dataclass(frozen=True)
class SdpProblem:
    """maximize c'x subject to per-block F0 + sum_k x_k F_k <= 0."""

    layout: DecisionLayout
    c: np.ndarray
    blocks: tuple

    def __post_init__(self):
        if any(blk.d != self.layout.d for blk in self.blocks):
            raise ValueError("malformed problem: F stack shape mismatch")

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
            for k, Fk in enumerate(blk.dense()):
                tri = _triplets(Fk)
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


def _basis_rows(a: np.ndarray, i: np.ndarray, j: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """Rows a (c, r) of the svec basis elements E_k = q_k (e_i e_j' + e_j e_i'), i = j
    meaning q_k e_i e_i'; returns (c, r, n)."""
    out = np.zeros(a.shape + (n,))
    for hit, col in ((a == i[:, None], j), (a == j[:, None], i)):
        kk, tt = np.nonzero(hit)
        out[kk, tt, col[kk]] = q[kk]
    return out


def _gram_rows(Mc: np.ndarray, a: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Rows a (c, r) of sum_p M_p E_k M_p', given Mc[i, a, p] = M_p[a, i]."""
    gram = Mc[i[:, None], a] @ Mc[j].transpose(0, 2, 1)
    off = i != j
    gram[off] = (gram[off] + Mc[j[off, None], a[off]] @ Mc[i[off]].transpose(0, 2, 1)) / _SQRT2
    return gram


def _main_p_rows(A: np.ndarray, columns: list, eps: float, alpha: float, s: int,
                 rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` (n_p, r) of the main-block F_k of the P slots: TL_k in the
    top-left n-by-n corner, E_k in the two off-diagonal P corners.  Each
    entry of ``columns`` holds the M_p of one eps-weighted Gram sum as
    Mc[i, a, p] = M_p[a, i]."""
    n = A.shape[0]
    i, j, scale = _svec_index(n)
    q = 1.0 / scale
    vals = np.zeros(rows.shape + (s,))
    step = max(1, _CHUNK // (n * n))
    for lo in range(0, i.shape[0], step):
        ck = slice(lo, lo + step)
        ik, jk, qk, R = i[ck], j[ck], q[ck], rows[ck]
        # rows a < n cross the TL corner and the P corner right of it, rows
        # n <= a < 2n the P corner below it; the rest of each row is masked
        top, mid = (R < n)[..., None], ((R >= n) & (R < 2 * n))[..., None]
        a = np.where(R < n, R, 0)
        E_a = _basis_rows(a, ik, jk, qk, n)
        # row a of A E_k holds q A[a, i] in column j and q A[a, j] in column i
        AE_a = np.zeros_like(E_a)
        kk, tt = np.ogrid[:R.shape[0], :R.shape[1]]
        AE_a[kk, tt, jk[:, None]] = A[a, ik[:, None]] * qk[:, None]
        AE_a[kk, tt, ik[:, None]] = A[a, jk[:, None]] * qk[:, None]
        TL = AE_a + E_a @ A.T
        for Mc in columns:
            TL += eps * _gram_rows(Mc, a, ik, jk)
        if alpha:
            TL += alpha * E_a
        E_below = _basis_rows(R - n, ik, jk, qk, n)
        vals[ck, :, :n] = np.where(top, TL, np.where(mid, E_below, 0.0))
        vals[ck, :, n:2 * n] = np.where(top, E_a, 0.0)
    # the Gram rows are symmetric only if BLAS sums every dot product the
    # same way wherever it sits in a product; copying the upper triangle of
    # each F_k[rows, rows] onto the lower one makes F_k exactly symmetric
    sub = np.take_along_axis(vals, rows[:, None, :], axis=2)
    sub = np.where(np.triu(np.ones(sub.shape[1:], dtype=bool)), sub, sub.transpose(0, 2, 1))
    np.put_along_axis(vals, rows[:, None, :], sub, axis=2)
    return vals


def assemble(sys: QBSystem, eps: float, alpha: float, mode: str,
             delta: float | None = None) -> SdpProblem:
    """Assemble the trace-maximization SDP for the given mode.

    The main block is the LMI above; the second block enforces P >= delta I
    and, for synthesis, the input bound Y (P - delta I)^-1 Y' <= mu I with
    mu = ``default_mu`` (delta defaults to ``default_delta``).  The
    objective maximizes trace(P).  Both blocks are emitted row-compressed:
    the nonzero rows of each F_k follow from the sparsity of A, B, D and the
    blocks of H, so no dense F stack is built.
    """
    if not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, got {eps}")
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
    lay = layout(sys.n, sys.m, mode)
    n, m, d, n_p = sys.n, lay.m, lay.d, lay.n_p
    if delta is None:
        delta = default_delta(sys)
    s = 2 * n if mode == "analysis" else 3 * n
    i, j, scale = _svec_index(n)
    # Y[r, c] is x_k with k = n_p + r n + c
    r, c = np.divmod(np.arange(m * n), n)
    kp, ky = np.arange(n_p), n_p + np.arange(m * n)

    # nonzero rows of the main-block F_k: TL_k = A E_k + E_k A' + eps sum_p
    # (H_p E_k H_p' + D_p E_k D_p') + alpha E_k has its nonzeros in rows i, j
    # and the rows where column i or j of A, or of some H_p or D_p, is nonzero
    columns = [np.stack([sys.h_block(p) for p in range(n)]).transpose(2, 1, 0)]
    if mode == "synthesis":
        columns.append(np.stack(sys.D).transpose(2, 1, 0))
    reach = (sys.A != 0).T | np.eye(n, dtype=bool)
    for Mc in columns:
        reach |= np.any(Mc != 0, axis=2)
    support = np.zeros((d, s), dtype=bool)
    support[kp, :n] = reach[i] | reach[j]
    support[kp, n + i] = support[kp, n + j] = True
    if mode == "synthesis":
        # TL gets B Y + Y' B': column c and row c of F_k hold B[:, r]; Ypad'
        # holds Y' in the first m columns of the last n-by-n slot
        support[ky, :n] = (sys.B[:, r] != 0).T
        support[ky, c] = support[ky, 2 * n + r] = True
    rows = _padded_rows(support)
    vals = np.zeros(rows.shape + (s,))
    vals[:n_p] = _main_p_rows(sys.A, columns, eps, alpha, s, rows[:n_p])
    if mode == "synthesis":
        # F_k[a, c] = B[a, r] for a < n, then row c adds B[:, r]' and the
        # Ypad' entry; row 2n + r holds the Ypad entry in column c
        Ry = rows[n_p:]
        vals[ky[:, None], np.arange(Ry.shape[1]), c[:, None]] = np.where(
            Ry < n, sys.B[np.minimum(Ry, n - 1), r[:, None]], 0.0)
        k, t = np.nonzero(Ry == c[:, None])
        vals[n_p + k, t, :n] += sys.B[:, r[k]].T
        vals[n_p + k, t, 2 * n + r[k]] = 1.0
        k, t = np.nonzero(Ry == 2 * n + r[:, None])
        vals[n_p + k, t, c[k]] = 1.0
    F0 = np.zeros((s, s))
    F0[n:, n:] = -eps * np.eye(s - n)
    main = LmiBlock(F0=F0, rows=rows, vals=vals)

    # floor block: -[[mu I, Y], [Y', P - delta I]] <= 0; for analysis (m = 0)
    # only the lower-right corner delta I - P remains
    support = np.zeros((d, m + n), dtype=bool)
    support[kp, m + i] = support[kp, m + j] = True
    support[ky, r] = support[ky, m + c] = True
    rows = _padded_rows(support)
    vals = np.zeros(rows.shape + (m + n,))
    vals[:n_p, :, m:] = -_basis_rows(rows[:n_p] - m, i, j, 1.0 / scale, n)
    F0f = np.zeros((m + n, m + n))
    F0f[m:, m:] = delta * np.eye(n)
    if m:
        F0f[:m, :m] = -default_mu(sys) * np.eye(m)
        Ry = rows[n_p:]
        k, t = np.nonzero(Ry == r[:, None])
        vals[n_p + k, t, m + c[k]] = -1.0
        k, t = np.nonzero(Ry == m + c[:, None])
        vals[n_p + k, t, r[k]] = -1.0
    floor = LmiBlock(F0=F0f, rows=rows, vals=vals)

    return SdpProblem(layout=lay, c=lay.trace_objective(), blocks=(main, floor))


@dataclass(frozen=True)
class PetersenParts:
    """The (G, M, N) triple of the norm-bounded-uncertainty form.

    The LMI main block is the Schur-complement form of
    G + eps M M' + (1/eps) N'N + alpha P <= 0.
    """

    G: np.ndarray
    M: np.ndarray
    N: np.ndarray


def _spd_eigh(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w ascending, V) of the symmetric part of P; raises unless P > 0."""
    P = np.asarray(P, dtype=float)
    w, V = np.linalg.eigh((P + P.T) / 2.0)
    if w[0] <= 0:
        raise NotPositiveDefiniteError(f"P must be positive definite; min eigenvalue {w[0]:.3e}")
    return w, V


def _spd_factor(P: np.ndarray):
    """``cho_factor`` (lower) of the symmetric part of P; raises unless P > 0."""
    P = np.asarray(P, dtype=float)
    try:
        return cho_factor((P + P.T) / 2.0, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(f"P must be positive definite: {exc}") from exc


def _spd_sqrt(P: np.ndarray) -> np.ndarray:
    w, V = _spd_eigh(P)
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
    w, V = _spd_eigh(P)
    P_invh = (V / np.sqrt(w)) @ V.T
    row = P_invh @ x  # P^{-1/2} x
    blocks = []
    eye, eye2 = np.eye(n), np.eye(2)
    for i in range(n):
        core = np.outer(row, eye[i])  # (e_i x' P^{-1/2})'
        blocks.append(np.kron(eye2, core) if mode == "synthesis" else core)
    Delta = np.concatenate(blocks, axis=0)
    return float(np.linalg.norm(Delta, 2))
