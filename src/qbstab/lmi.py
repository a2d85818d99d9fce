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

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import schur
from scipy.linalg.lapack import dgeev, dpotrf, dpotrs, dtrsyl

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
    n = S.shape[-1]
    flat, scale = _svec_take(n)
    # take keeps a stack's rows contiguous (fancy indexing would not), as
    # BLAS must see them to round each row as it rounds a single vector
    return S.reshape(*S.shape[:-2], n * n).take(flat, axis=-1) * scale


@lru_cache(maxsize=None)
def _svec_take(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(i n + j, scale) of ``_svec_index``: the svec entries in a flattened matrix."""
    i, j, scale = _svec_index(n)
    return i * n + j, scale


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


@dataclass(frozen=True)
class DecisionLayout:
    """Mapping of (P, Y) entries into the flat decision vector.

    The full space holds svec(P), in ``_svec_index`` order, and (synthesis
    only) Y row-major after it, Y[r, c] at n(n+1)/2 + r n + c.  The vector
    keeps the full-space ``slots`` (ascending; the default, None, is stored as
    every slot), those that a sign group of order ``group_order`` fixes in
    ``_symmetric_layout``.  ``pack`` refuses a nonzero entry in another slot
    and ``unpack`` puts their zeros back, so (P, Y) keeps its full shape.
    """

    n: int
    m: int
    mode: str
    slots: tuple[int, ...] | None = None
    group_order: int = 1

    def __post_init__(self):
        if self.slots is None:
            object.__setattr__(self, "slots", tuple(range(self._full)))

    @property
    def _full(self) -> int:
        return self.n * (self.n + 1) // 2 + self.m * self.n

    @cached_property
    def _index(self) -> np.ndarray:
        return np.array(self.slots, dtype=np.intp)

    @cached_property
    def p_slots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, scale) of ``_svec_index`` at the kept P slots."""
        index = _svec_index(self.n)
        return tuple(a[self._index[self._index < len(a)]] for a in index)

    @cached_property
    def y_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(r, c) of the kept Y slots."""
        n_p = self.n * (self.n + 1) // 2
        return np.divmod(self._index[self._index >= n_p] - n_p, self.n)

    @cached_property
    def n_p(self) -> int:
        return len(self.p_slots[0])

    @cached_property
    def d(self) -> int:
        return len(self.slots)

    def pack(self, P: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
        """Flatten (P, Y) into a decision vector."""
        x = svec(np.asarray(P, dtype=float))
        if self.mode == "synthesis":
            if Y is None:
                raise DimensionError("synthesis layout requires Y")
            x = np.concatenate([x, np.asarray(Y, dtype=float).reshape(-1)])
        elif Y is not None and np.any(np.asarray(Y)):
            raise DimensionError("analysis layout takes no Y")
        if x.shape[0] != self._full:
            raise DimensionError(f"decision vector must have length {self._full}")
        if np.any(np.delete(x, self._index)):
            raise ValueError("(P, Y) has a nonzero entry outside the layout's slots")
        return x[self._index]

    def unpack(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Split a decision vector back into (P, Y)."""
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != self.d:
            raise DimensionError(f"decision vector must have length {self.d}")
        full = np.zeros(self._full)
        full[self._index] = x
        n_p = self.n * (self.n + 1) // 2
        P = unsvec(full[:n_p], self.n)
        if self.mode == "synthesis":
            Y = full[n_p:].reshape(self.m, self.n)
            return P, Y
        return P, None

    def trace_objective(self) -> np.ndarray:
        """Objective vector c with c'x = trace(P): (P, Y) = (I, 0) packed."""
        return self.pack(np.eye(self.n), np.zeros((self.m, self.n)))


def layout(n: int, m: int, mode: str) -> DecisionLayout:
    """Build the decision layout for the given mode ('analysis' or 'synthesis')."""
    if mode not in ("analysis", "synthesis"):
        raise ValueError(f"mode must be 'analysis' or 'synthesis', got {mode!r}")
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    if mode == "synthesis" and m < 1:
        raise DimensionError("synthesis layout requires m >= 1")
    return DecisionLayout(n=n, m=m if mode == "synthesis" else 0, mode=mode)


# equations per batch of ``_sign_group``
_GF2_CHUNK = 1024


def _sign_group(sys: QBSystem, mode: str) -> np.ndarray:
    """Generators (k, n + m) of the exact diagonal sign symmetries of ``sys``,
    True where one flips a state or (synthesis; m = 0 for analysis) an input.

    x -> S x, u -> T u maps the dynamics onto themselves iff the sign bits
    solve, over GF(2), s_i + s_j = 0 per nonzero off-diagonal A_ij, s_a + t_r
    = 0 per nonzero B_ar, s_a + s_b + t_r = 0 per nonzero D_r[a, b] and s_a +
    s_i + s_j = 0 per nonzero H_{a,ij}.  Elimination takes them in batches, in
    that order, until the rank is n + m; the null space is the group, of
    order 2^k (Gatermann & Parrilo, J. Pure Appl. Algebra 2004).
    """
    n = sys.n
    w = n + (sys.m if mode == "synthesis" else 0)
    nz = sys.A != 0
    equations = [np.nonzero(np.triu(nz | nz.T, 1))]
    if w > n:
        a, r = np.nonzero(sys.B)
        r_d, a_d, b_d = np.nonzero(np.stack(sys.D))
        equations += [(a, n + r), (a_d, b_d, n + r_d)]
    a, ij = np.divmod(np.flatnonzero(sys.H != 0), n * n)
    equations.append((a, *np.divmod(ij, n)))

    # row p of R is the row of the reduced echelon form led by bit p, zero
    # where p is no pivot; bits are 0/1 bytes
    R = np.zeros((w, w), dtype=np.uint8)
    for terms in equations:
        for lo in range(0, len(terms[0]), _GF2_CHUNK):
            if R.trace() == w:
                break
            E = np.zeros((min(_GF2_CHUNK, len(terms[0]) - lo), w), dtype=np.uint8)
            for col in terms:
                E[np.arange(len(E)), col[lo:lo + _GF2_CHUNK]] ^= 1
            # adding row p of R clears bit p and no other pivot's bit
            for p in np.flatnonzero(R.diagonal()):
                E[E[:, p] == 1] ^= R[p]
            while (E := E[E.any(axis=1)]).size:
                row, E = E[0], E[1:]
                p = int(row.argmax())
                R[R[:, p] == 1] ^= row
                E[E[:, p] == 1] ^= row
                R[p] = row
    pivots, free = np.flatnonzero(R.diagonal()), np.flatnonzero(R.diagonal() == 0)
    G = np.eye(w, dtype=bool)[free]
    # a pivot bit is the sum of the free bits of its row
    G[:, pivots] = R[pivots][:, free].T == 1
    return G


def _symmetric_layout(sys: QBSystem, mode: str) -> DecisionLayout:
    """The layout that keeps the slots the sign group of ``sys`` fixes: P[i, j]
    where each generator flips states i and j alike, Y[r, c] where it flips
    input r as state c.  The group maps the LMI to congruent ones of the same
    trace, so its average of an optimum is one that is zero in the other
    slots (de Klerk, Eur. J. Oper. Res. 2010)."""
    lay = layout(sys.n, sys.m, mode)
    G = _sign_group(sys, mode)
    (i, j, _), (r, c) = lay.p_slots, lay.y_slots
    kept = ~np.concatenate([G[:, i] ^ G[:, j], G[:, lay.n + r] ^ G[:, c]], axis=1).any(axis=0)
    return DecisionLayout(n=lay.n, m=lay.m, mode=mode, slots=tuple(np.flatnonzero(kept).tolist()),
                          group_order=2 ** len(G))


# doubles per temporary chunk (per problem) in ``_congruence`` and ``assemble``
_CHUNK = 1 << 18


def _chunk_rows(d: int, p: int, q: int) -> int:
    """How many slices k one ``_congruence`` chunk takes, for (p, q) products L F_k R."""
    return min(d, max(1, _CHUNK // (p * q)))


def _congruence_words(d: int, r: int, p: int, q: int) -> int:
    """Doubles per problem of the work array of ``_congruence`` with L (p, s),
    R (s, q) and d slices F_k of r rows."""
    return _chunk_rows(d, p, q) * (p * q + r * (p + q))


def _gram_words(d: int, r: int, s: int) -> int:
    """Doubles per problem of the work array of ``_Stack.gram_rows``: a
    congruence chunk, whose factors the chunk's svec rows then overwrite."""
    return _chunk_rows(d, s, s) * (s * s + max(2 * r * s, s * (s + 1) // 2))


def _congruence(rows: np.ndarray, vals: np.ndarray, L: np.ndarray, R: np.ndarray,
                work: np.ndarray):
    """Yield (ks, L F_k R for k in ks) over slices ks of range(d), each of about
    ``_CHUNK`` doubles per problem, for ``vals`` (..., d, r, s) with L and R of the
    same leading shape.  F_k R is zero outside the rows ``rows[k]``, where it is
    ``vals[k]`` R, so no dense F_k is formed.  Every product is written into
    the flat ``work`` (``_congruence_words`` per problem), so each chunk yields a
    view, at the start of ``work``, that the next one overwrites, and no chunk
    allocates; the factors of its product follow it and are dead once it
    is yielded."""
    d, r, s = vals.shape[-3:]
    lead = vals.shape[:-3]
    p, q = L.shape[-2], R.shape[-1]
    B = math.prod(lead)
    step = _chunk_rows(d, p, q)
    # L[..., rows[ks]] is gathered in the layout fancy indexing gives it, (ks, r)
    # outermost, so that its product takes the same BLAS path
    source = L.transpose(L.ndim - 1, *range(L.ndim - 1))
    back = (*range(2, len(lead) + 3), 0, 1)
    for lo in range(0, d, step):
        ks = slice(lo, lo + step)
        n = min(step, d - lo)
        a = B * n * p * q
        b = a + B * n * r * q
        LFR = work[:a].reshape(*lead, n, p, q)
        VR = work[a:b].reshape(*lead, n * r, q)
        LF = work[b:b + B * n * r * p].reshape(n, r, *lead, p)
        # one (n r, s) product: n products of r rows round differently in BLAS
        np.matmul(vals[..., ks, :, :].reshape(*lead, n * r, s), R, out=VR)
        # mode="clip" lets take write into LF in place; the indices are in range
        source.take(rows[ks], axis=0, out=LF, mode="clip")
        np.matmul(LF.transpose(back).swapaxes(-3, -2), VR.reshape(*lead, n, r, q), out=LFR)
        yield ks, LFR


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
    A block is its data and the checks made on it; every operation on F,
    ``evaluate`` included, goes through ``_Stack``.
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
        for name, value in (("F0", F0), ("rows", rows), ("vals", vals)):
            object.__setattr__(self, name, value)

    @property
    def size(self) -> int:
        return self.F0.shape[0]

    @property
    def d(self) -> int:
        return self.rows.shape[0]

    @property
    def nnz(self) -> int:
        """Number of nonzero entries over all F_k."""
        return np.count_nonzero(self.vals)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """F0 + sum_k x_k F_k."""
        return self.F0 + _Stack.of([self]).linear(np.asarray(x, dtype=float)[None])[0]


class _Stack:
    """One block of B problems of one shape, and the only code that reads the
    row-compressed format: F0 (B, s, s), the rows (d, r) that every problem
    shares and vals (B, d, r, s) as in ``LmiBlock``.

    Its index holds the nonzeros of every F_k, F^p_k[a, b] = v at k = p d + k'
    and flat = p s^2 + a s + b, each problem's in k-major order as for B = 1.
    So ``linear`` and ``adjoint`` serve the stack in one bincount, each
    problem's sums taken in the order of its own stack, and ``csr`` cuts out
    each problem's run.  ``gram_rows`` and ``w_share`` are the two Schur
    shares' passes over ``_congruence``, which forms no dense F_k.
    """

    def __init__(self, F0: np.ndarray, rows: np.ndarray, vals: np.ndarray):
        self.F0, self.rows, self.vals = F0, rows, vals
        B, d, r, s = vals.shape
        self.d, self.size = d, s
        p, k, t, col = np.nonzero(vals)
        self._k, self._flat = p * d + k, p * (s * s) + rows[k, t] * s + col
        self._v = vals[p, k, t, col]

    @classmethod
    def of(cls, blocks) -> _Stack:
        """The stack of same-shape ``LmiBlock``s, one per problem."""
        return cls(np.stack([blk.F0 for blk in blocks]), blocks[0].rows,
                   np.stack([blk.vals for blk in blocks]))

    def keep(self, mask: np.ndarray) -> _Stack:
        """The stack of the problems where ``mask`` holds."""
        return _Stack(self.F0[mask], self.rows, self.vals[mask])

    @cached_property
    def f0_norm(self) -> np.ndarray:
        return np.array([np.linalg.norm(F, "fro") for F in self.F0])

    def linear(self, x: np.ndarray) -> np.ndarray:
        """sum_k x_k F_k per problem, x (B, d) -> (B, s, s)."""
        B, s = len(x), self.size
        return np.bincount(self._flat, weights=self._v * x.reshape(-1)[self._k],
                           minlength=B * s * s).reshape(B, s, s)

    def adjoint(self, Z: np.ndarray) -> np.ndarray:
        """(<F_k, Z>)_k per problem, Z (B, s, s) -> (B, d), the adjoint of ``linear``."""
        B = len(Z)
        return np.bincount(self._k, weights=self._v * Z.reshape(-1)[self._flat],
                           minlength=B * self.d).reshape(B, self.d)

    @cached_property
    def csr(self) -> list:
        """Per problem, the d-by-s^2 ``scipy.sparse`` matrix whose row k is vec(F_k)."""
        from scipy import sparse  # only the W form needs it

        B, d, _, s = self.vals.shape
        ptr = np.searchsorted(self._k, np.arange(B * d + 1))
        return [sparse.csr_array((self._v[lo:hi], self._flat[lo:hi] - p * s * s,
                                  ptr[p * d:(p + 1) * d + 1] - lo), shape=(d, s * s))
                for p, (lo, hi) in enumerate(zip(ptr[:-1:d], ptr[d::d]))]

    def gram_rows(self, G: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """out[:, k] = svec(G' F_k G) per problem, G (B, s, s), out (B, d, s(s+1)/2),
        formed in the flat ``work`` of at least B ``_gram_words`` doubles."""
        B, s = len(G), self.size
        flat, scale = _svec_take(s)
        for ks, GFG in _congruence(self.rows, self.vals, G.mT, G, work):
            n = GFG.shape[1]
            # svec as ``svec`` forms it, over the factors of GFG, with the
            # scale written straight into out
            T = work[GFG.size:GFG.size + B * n * len(flat)].reshape(B, n, len(flat))
            GFG.reshape(B, n, s * s).take(flat, axis=-1, out=T, mode="clip")
            np.multiply(T, scale, out=out[:, ks])

    def w_share(self, W: np.ndarray) -> np.ndarray:
        """(<F_k, W F_l W>)_kl per problem, W (B, s, s) -> (B, d, d), one problem at a time."""
        _, d, r, s = self.vals.shape
        share = np.empty((len(W), d, d))
        work = np.empty(_congruence_words(d, r, s, s))
        for csr, vals, Wp, out in zip(self.csr, self.vals, W, share):
            for ls, WFW in _congruence(self.rows, vals, Wp, Wp, work):
                out[:, ls] = csr @ WFW.reshape(WFW.shape[0], -1).T
        return share


@dataclass(frozen=True)
class SdpProblem:
    """maximize c'x subject to per-block F0 + sum_k x_k F_k <= 0."""

    layout: DecisionLayout
    c: np.ndarray
    blocks: tuple

    def __post_init__(self):
        if any(blk.d != self.layout.d for blk in self.blocks):
            raise ValueError("malformed problem: F stack shape mismatch")
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.layout.d,):
            raise ValueError(f"malformed problem: c has shape {c.shape}, not ({self.layout.d},)")
        if not np.isfinite(c).all():
            raise ValueError("malformed problem: c not finite")

    @property
    def d(self) -> int:
        return self.layout.d

    def block_sizes(self) -> list[int]:
        return [blk.size for blk in self.blocks]


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


class _EpsFamily:
    """The problems ``assemble`` gives for one (sys, alpha, mode, delta), at
    any eps: an eps grid or search builds one family and asks it for each
    point.

    The data are affine in eps.  Only the eps-weighted Gram rows
    sum_p (H_p E_k H_p' + D_p E_k D_p') in the TL corner of the main block
    and its -eps I corner change from point to point, so the layout, the
    rows of both blocks, the whole floor block and the main block's
    eps-free template are built and checked once.  At the TL entries where
    some Gram row is nonzero the family keeps the parts of TL, the A-term
    A E_k + E_k A', each Gram row and alpha E_k, which ``problem`` sums in
    the order of a single assembly.  Everywhere else eps G is a zero of G's
    sign, so TL is the same at every eps and the template holds it.  The
    arrays that every problem shares (the rows, c and the floor block) are
    read-only, so a write to one raises instead of changing every point.
    The rows and vals are built for the slots of ``_symmetric_layout`` only
    (15 of 45 for the shear flow); with a trivial group those are all slots,
    and the index arrays are ``_svec_index``'s own.
    """

    def __init__(self, sys: QBSystem, alpha: float, mode: str, delta: float | None = None):
        if not 0 <= alpha < np.inf:
            raise ValueError(f"alpha must be finite and non-negative, got {alpha}")
        lay = _symmetric_layout(sys, mode)
        n, m, d, n_p = sys.n, lay.m, lay.d, lay.n_p
        if delta is None:
            delta = default_delta(sys)
        s = 2 * n if mode == "analysis" else 3 * n
        # the kept slots: P slot k is E_k, and Y slot k is Y[r, c]
        i, j, scale = lay.p_slots
        r, c = lay.y_slots
        kp, ky = np.arange(n_p), np.arange(n_p, d)

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
        self._p_template(sys.A, columns, alpha, lay.p_slots, rows[:n_p], vals[:n_p])
        # flat indices into vals of F_k[rows[t], rows[u]], t > u, below the
        # diagonal of F_k[rows, rows] of a P slot k, and of its mirror
        # F_k[rows[u], rows[t]] above it
        t, u = np.tril_indices(rows.shape[1], -1)
        row0 = kp[:, None] * rows.shape[1]
        self._lower = ((row0 + t) * s + rows[:n_p, u]).reshape(-1)
        self._upper = ((row0 + u) * s + rows[:n_p, t]).reshape(-1)
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
        self._rows, self._vals = rows, vals

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
        self.floor = LmiBlock(F0=F0f, rows=rows, vals=vals)
        self.layout, self.c = lay, lay.trace_objective()
        self.sys, self.alpha, self.mode = sys, alpha, mode
        for a in (self._rows, self.c, self.floor.F0, self.floor.rows, self.floor.vals):
            a.flags.writeable = False

    def _p_template(self, A: np.ndarray, columns: list, alpha: float, slots: tuple,
                    rows: np.ndarray, vals: np.ndarray) -> None:
        """Write the eps-free part of the main-block F_k of the P slots
        ``slots`` (i, j, scale) into ``vals`` (n_p, r, s), rows ``rows``
        (n_p, r): TL_k in the top-left n-by-n corner, E_k in the two
        off-diagonal P corners; keep the parts of TL at the entries that
        depend on eps.  Each entry of ``columns`` holds the M_p of one
        eps-weighted Gram sum as Mc[i, a, p] = M_p[a, i]."""
        n = A.shape[0]
        i, j, scale = slots
        q = 1.0 / scale
        r, s = vals.shape[1:]
        live, parts = [], []
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
            grams = [_gram_rows(Mc, a, ik, jk) for Mc in columns]
            aE = alpha * E_a
            # the TL entries where a Gram row is nonzero, as flat indices into
            # the (c, r, n) chunk and then into vals (n_p, r, s)
            f = np.flatnonzero(np.logical_or.reduce([G != 0 for G in grams]) & top)
            live.append((lo * r + f // n) * s + f % n)
            parts.append([M.reshape(-1)[f] for M in (TL, *grams, aE)])
            for G in grams:
                TL += G
            if alpha:
                TL += aE
            E_below = _basis_rows(R - n, ik, jk, qk, n)
            vals[ck, :, :n] = np.where(top, TL, np.where(mid, E_below, 0.0))
            vals[ck, :, n:2 * n] = np.where(top, E_a, 0.0)
        self._live = np.concatenate(live)
        self._base, *self._grams, self._alpha_E = (np.concatenate(p) for p in zip(*parts))

    def problem(self, eps: float) -> SdpProblem:
        """The problem at eps: what ``assemble`` gives, bit for bit."""
        if not 0 < eps < np.inf:
            raise ValueError(f"eps must be finite and positive, got {eps}")
        TL = self._base.copy()
        for G in self._grams:
            TL += eps * G
        if self.alpha:
            TL += self._alpha_E
        vals = self._vals.copy()
        flat = vals.reshape(-1)
        flat[self._live] = TL
        # the Gram rows are symmetric only if BLAS sums every dot product the
        # same way wherever it sits in a product; copying the upper triangle of
        # each F_k[rows, rows] onto the lower one makes F_k exactly symmetric
        flat[self._lower] = flat[self._upper]
        s, n = vals.shape[2], self.layout.n
        F0 = np.zeros((s, s))
        F0[n:, n:] = -eps * np.eye(s - n)
        main = LmiBlock(F0=F0, rows=self._rows, vals=vals)
        return SdpProblem(layout=self.layout, c=self.c, blocks=(main, self.floor))

    @cached_property
    def window(self) -> _TStar | None:
        """The adjoint T_eps* of the analysis main block's operator, with its
        bound eps* (``_TStar``), built once per family; None for synthesis."""
        return _TStar(self.sys, self.alpha) if self.mode == "analysis" else None


def assemble(sys: QBSystem, eps: float, alpha: float, mode: str,
             delta: float | None = None) -> SdpProblem:
    """Assemble the trace-maximization SDP for the given mode.

    The main block is the LMI above; the second block enforces P >= delta I
    and, for synthesis, the input bound Y (P - delta I)^-1 Y' <= mu I with
    mu = ``default_mu`` (delta defaults to ``default_delta``).  The
    objective maximizes trace(P).  Both blocks are emitted row-compressed:
    the nonzero rows of each F_k follow from the sparsity of A, B, D and the
    blocks of H, so no dense F stack is built.  x holds the slots of (P, Y)
    that the sign symmetries of ``sys`` fix (``_symmetric_layout``).

    This is the one-point case of ``_EpsFamily``, which builds once per
    (sys, alpha, mode, delta) the layout, the rows of both blocks, the floor
    block and the main block's eps-free template, and forms per eps only
    the eps-dependent TL entries, the -eps I corner and the main block.
    """
    return _EpsFamily(sys, alpha, mode, delta).problem(eps)


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
    """Eigendecomposition (w ascending, V) of the symmetric part of P; raises unless P > 0.

    A NaN in P gives NaN eigenvalues, which the test rejects as well."""
    P = np.asarray(P, dtype=float)
    w, V = np.linalg.eigh((P + P.T) / 2.0)
    if not w[0] > 0:
        raise NotPositiveDefiniteError(f"P must be positive definite; min eigenvalue {w[0]:.3e}")
    return w, V


def _cho_factor(a: np.ndarray) -> tuple[np.ndarray, bool]:
    """``scipy.linalg.cho_factor(a, lower=True)`` without its wrapper: the
    LAPACK call it makes, so the factor is bitwise scipy's, and the same
    (c, lower) result and LinAlgError.  a is not checked for being finite."""
    c, info = dpotrf(a, lower=1, clean=0)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return c, True


def _cho_solve(factor: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """``scipy.linalg.cho_solve(factor, b)`` without its wrapper, as ``_cho_factor``."""
    x, info = dpotrs(factor[0], b, lower=int(factor[1]))
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrs")
    return x


def _spd_factor(P: np.ndarray) -> tuple[np.ndarray, bool]:
    """``_cho_factor`` of the symmetric part of P; raises unless P > 0.

    A non-finite P is rejected before the factorization, which can factor a
    NaN or an inf on the diagonal without an error."""
    P = np.asarray(P, dtype=float)
    if not np.isfinite(P).all():
        raise NotPositiveDefiniteError("P must be positive definite: it has non-finite entries")
    try:
        return _cho_factor((P + P.T) / 2.0)
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


# ``_rightmost``: basis size at which it restarts from its Ritz vector, most
# steps it takes, and the residual |r|_F / |theta| at which it stops
_RITZ_BASIS = 20
_RITZ_STEPS = 200
_RITZ_TOL = 1e-14


def _rightmost(apply, expand, Z0: np.ndarray) -> tuple[float, np.ndarray]:
    """The rightmost eigenpair (theta, Z) of the linear map ``apply`` on
    symmetric matrices, with |Z|_F = 1, trace Z >= 0 and Z exactly symmetric.

    Rayleigh-Ritz on a basis grown from Z0 (Davidson's method): each step
    takes the Ritz pair of largest real part and adds expand(Z, r, theta),
    orthogonalized twice, for its residual r = apply(Z) - theta Z, until
    |r|_F <= ``_RITZ_TOL`` |theta|.  With expand returning r the basis is the
    Krylov space of ``apply`` (Arnoldi).  At ``_RITZ_BASIS`` matrices the
    basis restarts from the Ritz vector; after ``_RITZ_STEPS`` steps the last
    pair is returned as it is, so a caller checks what it uses.
    """
    shape = Z0.shape
    V = np.empty((_RITZ_BASIS, Z0.size))
    AV = np.empty_like(V)
    k, t = 0, Z0.reshape(-1)
    for _ in range(_RITZ_STEPS):
        if k == _RITZ_BASIS:
            V[0], AV[0], k = Z, AZ, 1
        for _ in range(2):
            t = t - (V[:k] @ t) @ V[:k]
        size = np.linalg.norm(t)
        if not size > 0:
            break  # the basis holds an invariant subspace
        V[k] = t / size
        AV[k] = apply(V[k].reshape(shape)).reshape(-1)
        k += 1
        # scipy's dgeev shares its Hessenberg QR with the Schur form's dgees,
        # where numpy's eig would page in a second copy (1.3 MB of RSS); of a
        # complex pair argmax takes the first, whose column is the real part
        w, _, _, Y, _ = dgeev(V[:k] @ AV[:k].T, compute_vl=0)
        top = np.argmax(w)
        theta, y = float(w[top]), Y[:, top]
        Z, AZ = y @ V[:k], y @ AV[:k]
        scale = np.linalg.norm(Z) * (-1.0 if Z.reshape(shape).trace() < 0 else 1.0)
        Z, AZ = Z / scale, AZ / scale
        r = AZ - theta * Z
        if np.linalg.norm(r) <= _RITZ_TOL * abs(theta):
            break
        t = expand(Z.reshape(shape), r.reshape(shape), theta).reshape(-1)
    Z = Z.reshape(shape)
    return theta, (Z + Z.T) / 2.0


class _TStar:
    """T_eps*(Z) = Ah'Z + Z Ah + eps Pi*(Z), the adjoint of the analysis
    operator T_eps(P) = Ah P + P Ah' + eps Pi(P), with Ah = A + (alpha/2) I,
    Pi(P) = sum_i H_i P H_i' and Pi*(Z) = sum_i H_i' Z H_i.

    The analysis main block is the Schur form of T_eps(P) + P^2/eps <= 0.
    Pi maps positive semidefinite matrices to positive semidefinite ones, so
    L + eps Pi, L(P) = Ah P + P Ah', is resolvent positive, and T_eps(P) < 0
    at some P > 0 only if its spectrum lies in the open left half-plane: for
    Hurwitz Ah, when eps < eps* = 1/rho(-L^-1 Pi) (Schneider, Numer. Math.
    1965; Damm, LNCIS 297, 2004).  Above eps* the Perron pair T_eps*(Z) =
    lam Z, lam > 0, Z >= 0, is a dual ray of the assembled problem:
    Z_main = [[Z, 0], [0, 0]] and Z_floor = lam Z give <F_k, Z_main> +
    <F_k, Z_floor> = <E_k, T_eps*(Z) - lam Z> = 0 for every slot k, and
    <F0, .> = delta lam trace Z > 0.  If Ah is not Hurwitz no eps works;
    eps* is then 0, and no pair is formed, since the resolvent that
    ``perron`` expands by is positive only for Hurwitz Ah.

    Every product costs O(n^3) for L and its resolvent (Bartels-Stewart on
    the real Schur form of Ah', computed once) and O(n^4) for Pi*, so no
    n^2-by-n^2 matrix is formed.  Every result is exactly symmetric.
    """

    def __init__(self, sys: QBSystem, alpha: float):
        n = sys.n
        self.A_hat = sys.A + 0.5 * alpha * np.eye(n)
        # H = [H_1 ... H_n], and its blocks stacked as rows [H_1; ...; H_n]
        self._H = sys.H
        self._H_rows = sys.H.reshape(n, n, n).transpose(1, 0, 2).reshape(n * n, n)
        self._schur = schur(self.A_hat.T, output="real")

    def pi(self, Z: np.ndarray) -> np.ndarray:
        """Pi*(Z) = sum_i H_i' Z H_i, as [H_1; ...; H_n]' [Z H_1; ...; Z H_n]."""
        n = len(Z)
        ZH = (Z @ self._H).reshape(n, n, n).transpose(1, 0, 2).reshape(n * n, n)
        M = self._H_rows.T @ ZH
        return (M + M.T) / 2.0

    def __call__(self, Z: np.ndarray, eps: float) -> np.ndarray:
        AZ = self.A_hat.T @ Z
        return AZ + AZ.T + eps * self.pi(Z)

    def resolvent(self, R: np.ndarray, sigma: float) -> np.ndarray:
        """(sigma - L*)^-1 R: the Z with (Ah - sigma/2)'Z + Z (Ah - sigma/2) = -R."""
        T, U = self._schur
        T = T - 0.5 * sigma * np.eye(len(T))
        X, scale, _ = dtrsyl(T, T, -(U.T @ R @ U), tranb="T")
        Z = U @ (X / scale) @ U.T
        return (Z + Z.T) / 2.0

    @cached_property
    def bound(self) -> tuple[float, np.ndarray | None]:
        """(eps*, Z*): 1/rho of the positive map Z -> (-L*)^-1 Pi*(Z) and its
        Perron vector, by Arnoldi from I; eps* is inf when Pi* is zero, and
        (0, None) when Ah is not Hurwitz (the diagonal of its real Schur form,
        which holds the real parts of its eigenvalues, is not negative)."""
        T, _ = self._schur
        if not np.diag(T).max() < 0:
            return 0.0, None
        rho, Z = _rightmost(lambda Z: self.resolvent(self.pi(Z), 0.0),
                            lambda Z, r, theta: r, np.eye(len(T)))
        return (1.0 / rho if rho > 0 else math.inf), Z

    @property
    def eps_star(self) -> float:
        return self.bound[0]

    def perron(self, eps: float) -> tuple[float, np.ndarray] | None:
        """The Perron pair (lam, Z) of T_eps* at eps > eps*, None at any other
        eps or without a Z*.  ``_rightmost`` starts from Z* and expands by the
        resolvent at max(theta, 0), Davidson's preconditioner with T_eps*
        taken as L*; so the pair depends on eps alone.  Z is positive
        semidefinite only up to rounding, which the caller checks."""
        eps_star, Z_star = self.bound
        if Z_star is None or not eps > eps_star:
            return None
        return _rightmost(lambda Z: self(Z, eps),
                          lambda Z, r, theta: self.resolvent(r, max(theta, 0.0)), Z_star)


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
