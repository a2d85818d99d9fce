"""Self-contained interior-point solver for block-LMI trace maximization.

Solves   maximize c'x   subject to   F0_b + sum_k x_k F_k_b <= 0   per block,
with an infeasible-start primal-dual path-following method on the homogeneous
self-dual embedding, Nesterov-Todd scaling, Mehrotra predictor-corrector
steps, and Schur-complement normal equations.  Each block adds its share
(<G'F_kG, G'F_lG>)_kl of the Schur complement, G being its NT scaling: as
the Gram matrix of the rows svec(G'F_kG), or, for large blocks with sparse
F, as <F_k, W F_l W> with W = G G', formed from the row-compressed block
data (Fujisawa, Kojima & Nakata, Math. Prog. 1997) so that the cost follows
the nonzeros of F instead of d^2 s^2.  Infeasible problems are
detected through an improving-ray certificate (Z >= 0 blockwise with
<F_k, Z> = 0 for every k and <F0, Z> > 0), which is verified against the
original problem data before the status is reported (``ray_test``, the one
acceptance rule for rays, which ``certify`` applies to the rays it forms
without a solve).

A solve can also stall.  When the LMI has no interior and no improving ray
(the ill-posed case of the homogeneous embedding: de Klerk, Roos & Terlaky,
Oper. Res. Lett. 1997; Permenter, Friberg & Andersen, SIAM J. Optim. 2017),
tau collapses to 0 while the residuals freeze and no candidate ray gets
better.  After ``STALL_ITERS`` such iterations in a row the solve ends
NumericalFailure with a message that starts "stalled: no interior (tau -> 0)
and no improving ray"; its iterates up to then are those of a solve without
the rule.

The tolerances are fixed: Optimal needs primal and dual residuals within
``FEAS_TOL`` and a duality gap within ``GAP_TOL``, Infeasible a ray residual
within ``FEAS_TOL`` max(1, |c|_inf), and IterLimit comes after ``MAX_ITERS``
iterations.  Ruiz-style block scaling (``RUIZ_SWEEPS``) and the objective cap
``OBJECTIVE_BOX`` always apply, every solve keeps its per-iteration log in
``SdpSolution.history``, and identical inputs produce identical iterates
on one BLAS build at one BLAS thread count; another thread count can sum
products in another order, and the iterates then differ in rounding.
The iterate is never renormalized: the embedding is scale invariant, every test relative.

The iterates X and S, the dual residuals and the Newton directions are
exactly symmetric, bit for bit: the block data are (``LmiBlock`` checks
them), ``linear`` sums both mirror entries over the same k in the same order,
Ruiz scaling multiplies both by the same factors, and sums and scalings of
exactly symmetric matrices stay so.  Only a matrix product that becomes one
of them is symmetrized (G'dS G, G dXhat G' and dXhat dShat), and eigenvalues
are taken of the matrix as it is.

There is one interior-point loop, ``solve_many``, and ``solve`` is its
single-problem case.  It runs problems that share d, block sizes and row
pattern (the points of an eps grid) in lockstep: every per-block kernel
(Ruiz scaling, the NT Cholesky factors and SVD, the Gram rows and U U',
``linear``/``adjoint`` as one bincount, the eigenvalues of the step
length, one call for both directions) takes one call over the stacked
(B, s, s) arrays, each slice rounding as it would alone, so every problem
gets bitwise the iterates and the result of its own solve.  The d-by-d
Schur factorization and its three solves per iteration, direct LAPACK
calls (``lmi._cho_factor`` and ``_cho_solve``: scipy's ``cho_factor`` and
``cho_solve`` without their wrappers, which cost more than the calls at
d = 45), and the W-form Schur shares stay one problem at a time.  Each
problem keeps its own termination tests, log, stall count and best
iterate, and leaves the stack when it terminates.  A breakdown in one
problem (a failed factorization, a collapsed step) ends that problem
alone: the step is then taken again without it.  Problems whose blocks take
different Schur forms run in separate groups, and a group holds at most
``GROUP_BYTES`` of working arrays, so a large problem runs with few others
or alone.

The objective cap is a 1-by-1 block, that is one linear inequality, and its
NT scaling is the scaling of a linear-programming cone (Toh, Todd &
Tutuncu, SDPT3, Optim. Methods Softw. 1999).  So it is kept as (B,) and
(B, d) arrays (``_Cap``), and each of its stages is scalar arithmetic that
rounds as the 1-by-1 LAPACK and BLAS calls would.  Its rank-one Schur share
is added after the blocks' shares, so the iterates are those of a solve
that handles it as a block.

Every array of the size of the rows svec(G'F_kG) or of the Schur complement
is allocated once per group.  The blocks and the cap take their temporaries
in one work array, in turn: a Gram-form block forms its rows there, a W-form
block its share and the cap its chunks (``_Block``).  The group holds the
Schur complements M (B, d, d), each problem's column-major: every block
writes its share into M and the cap adds its own, each entry summed in the
order block 0, block 1, cap, and ``lmi._cho_factor`` factors each M_i in
place (SDPA does the same: Yamashita, Fujisawa & Kojima, Optim. Methods
Softw. 2003).  The W form writes only the lower triangle, the only part the
factorization reads, one column at a time where M holds it, and the check
for non-finite entries reads that part alone, in chunks of columns.  So a
W-form iteration allocates no d-by-d array.  M starts as zeros, so the cap's
chunks, which also add above the diagonal, never add to stale memory.  A
Gram-form block after the first still adds its U U' from a temporary, the
one BLAS call that forms it.  A complement that does not factor ends its
problem, and ``certify`` judges that problem's best iterate by its proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lmi import SdpProblem, _cho_solve, _chunk_rows, _gram_words, _Stack, _w_words, svec
# a module-level name, so that a failing factorization can be substituted
from .lmi import _cho_factor as cho_factor

__all__ = [
    "SdpSolution",
    "BlockFeasibilityReport",
    "solve",
    "solve_many",
    "kkt_residuals",
    "check_block_feasibility",
    "ray_test",
]

# fraction of the distance to the cone boundary taken by each corrector step
STEP_FRACTION = 0.98
# largest d s(s+1)/2 for which a block always forms its Schur share in Gram form
GRAM_MAX = 10_000
# a larger block takes the W form only if d s(s+1)/2 is this many times its nonzeros
W_MIN_SPARSITY = 32
# bytes of working arrays that the problems of one lockstep group may hold
# together (``_group_words``): the 20-point two-state and three-state grids run
# as one group, stacked n = 20 problems (d = 210) two to a group and n = 40
# (d = 820) one at a time; the group's one work array holds the largest of
# the cap's chunk, a Gram-form block's congruence chunk for every problem
# and a W-form block's chunk with, when the block adds its share, that
# chunk's columns of M.  The 16 problems of the shear-flow pre-scan grid run
# as one group too, at the d = 15 of the slots its sign group fixes (a
# traced peak of 4.6 MB, 0.16 s of process time); at d = 45, with the
# symmetry broken, they run as two groups of 8 (5.9 MB, 0.25 s).  The search
# itself solves only the 7 that the spectral ray leaves open
# (``certify._spectral_ray``)
GROUP_BYTES = 1 << 23
# the termination tests of the module docstring
FEAS_TOL = 1e-8
GAP_TOL = 1e-8
MAX_ITERS = 200
# a hidden scalar block caps c'x at this value, so that problems with an
# unbounded objective still terminate cleanly
OBJECTIVE_BOX = 1e8
# a solve stalls after this many consecutive iterations with tau collapsed and
# no tenfold better candidate ray.  On the reproduction grids, the stacked
# n = 40 solve and the shear-flow searches at Re = 120-160, no solve that ends
# Optimal has a collapsed iteration, and every solve that ends Infeasible
# accepts its ray within three of them, at most two without a tenfold better
# ray.  The nine solves that stall there had no candidate ray at all and
# frozen residuals through the 164 to 168 iterations left until IterLimit.
STALL_ITERS = 5
# sweeps of ``_ruiz_scale`` over the variables and the blocks
RUIZ_SWEEPS = 10


@dataclass
class SdpSolution:
    """Solver output.

    ``status`` is one of Optimal, Infeasible, NumericalFailure, IterLimit.
    NumericalFailure covers a breakdown (NT scaling, Schur complement, step
    length) and a stall, whose ``message`` starts with "stalled" (see the
    module docstring).  At Optimal, ``x`` is the maximizing decision vector
    and ``Z`` holds one PSD dual matrix per block.  At Infeasible, ``Z``
    holds the improving-ray certificate, normalized to unit total trace
    (sum_b trace Z_b = 1), with sum_b <F0_b, Z_b> > 0.
    After NumericalFailure or IterLimit, ``x``, ``Z``, ``objective`` and the
    three residuals are those of the best interior iterate, the one with the
    smallest largest residual (a NaN residual counting as +inf); with no
    interior iterate, ``x`` and ``Z`` are zero, ``objective`` is NaN and the
    residuals are inf.  ``iters`` counts the iterations run.
    ``history`` holds one (mu, primal residual, dual residual, step length)
    tuple per completed interior-point step; a stalled solve's is a prefix
    of the history the solve would have without the stall rule.
    """

    status: str
    x: np.ndarray
    Z: list
    objective: float
    primal_residual: float
    dual_residual: float
    duality_gap: float
    iters: int
    message: str = ""
    history: list = field(default_factory=list)


@dataclass(frozen=True)
class BlockFeasibilityReport:
    """Per-block max eigenvalue of F0 + sum x_k F_k at a candidate point."""

    lambda_max: tuple
    tol: float

    @property
    def feasible(self) -> bool:
        return all(lam <= self.tol for lam in self.lambda_max)


# --------------------------------------------------------------------------
# reference checks on problem data
# --------------------------------------------------------------------------

def check_block_feasibility(problem: SdpProblem, x: np.ndarray, tol: float) -> BlockFeasibilityReport:
    """Evaluate lambda_max of every block at x; feasible iff all <= tol."""
    x = np.asarray(x, dtype=float).reshape(-1)
    lams = tuple(float(np.linalg.eigvalsh(blk.evaluate(x))[-1]) for blk in problem.blocks)
    return BlockFeasibilityReport(lambda_max=lams, tol=float(tol))


def kkt_residuals(problem: SdpProblem, solution: SdpSolution) -> tuple[float, float, float]:
    """Recompute (primal, dual, gap) residuals from problem data alone.

    Uses the formula the solver reports, with F(x) evaluated on the problem
    data instead of taken from the solver's scaled iterates:

      primal = max_b max(0, lambda_max(F(x)_b)) / (1 + |F0_b|_F)
      dual   = |sum_b <F_k, Z_b> - c|_inf / (1 + |c|_inf)
      gap    = |c'x - <-F0, Z>| / (1 + |c'x| + |<-F0, Z>|)
    """
    x = np.asarray(solution.x, dtype=float).reshape(-1)
    c = np.asarray(problem.c, dtype=float).reshape(-1)
    user = [_Stack.of([blk]) for blk in problem.blocks]
    Fx = [ub.F0 + ub.linear(x[None]) for ub in user]
    Z = [np.asarray(Zb, dtype=float)[None] for Zb in solution.Z]
    primal, dual, gap, _ = _residuals(user, c[None], x[None], Fx, Z)
    return float(primal[0]), float(dual[0]), float(gap[0])


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.mT) / 2.0


def _residuals(user, c, x, Fx, Z):
    """(primal, dual, gap, c'x) of ``kkt_residuals``, each (B,), for B problems:
    ``user`` holds one ``_Stack`` per block, c and x are (B, d), and Fx[b] =
    F0_b + sum_k x_k F_k_b and Z[b] are (B, s, s)."""
    primal = np.zeros(len(c))
    dual_vec = -c
    dual_obj = 0.0
    for blk, Fxb, Zb in zip(user, Fx, Z):
        lam_max = np.linalg.eigvalsh(Fxb)[..., -1]
        primal = np.maximum(primal, np.maximum(0.0, lam_max) / (1.0 + blk.f0_norm))
        dual_vec = dual_vec + blk.adjoint(Zb)
        dual_obj = dual_obj + (-blk.F0 * Zb).sum(axis=(1, 2))
    dual = np.abs(dual_vec).max(axis=1) / (1.0 + np.abs(c).max(axis=1, initial=0.0))
    p_obj = np.vecdot(c, x)
    gap = np.abs(p_obj - dual_obj) / (1.0 + np.abs(p_obj) + np.abs(dual_obj))
    return primal, dual, gap, p_obj


# --------------------------------------------------------------------------
# the interior-point solver
# --------------------------------------------------------------------------


def _gram_form(d: int, s: int, nnz: int) -> bool:
    """Whether a block takes the Gram form of its Schur share (see ``_Block``)."""
    full = d * s * (s + 1) // 2
    return full <= GRAM_MAX or full < W_MIN_SPARSITY * nnz


class _Block:
    """One scaled LMI block of the B problems of a lockstep group, its
    ``lmi._Stack`` ``lmi``, and their per-iteration NT quantities.

    ``set_scaling`` forms those once per iteration, for both Newton solves
    and both step lengths: it keeps the NT factor G, forms from the
    eigenvalues lam of the scaled point (lam_i + lam_j)/2 (``lam_avg``),
    1/sqrt(lam) as a column (``lam_isqrt``) and -lam^2 I (``neg_lam2``), and
    forms Chat = G'CG and, in the Gram form, the rows U and svec(Chat)
    (``Chat_sv``), in the W form W = G G'.  ``pull_back`` takes every
    right-hand side from these, pull_back(Chat) included.

    The block's share of the Schur complement, (<G'F_kG, G'F_lG>)_kl, is
    formed in one of two ways, both by the stack and so with no dense copy
    of F.  ``solve_many`` picks the form by size and sparsity
    (``_gram_form``) and the block is built with it (``gram``).  The Gram
    form forms U U' from the rows U_k = svec(G'F_kG) (``_Stack.gram_rows``),
    d^2 s(s+1)/4 multiply-adds in one BLAS call per problem.  It is
    symmetric positive semidefinite as computed and consistent with the
    right-hand sides taken from the same U, so every block whose U has at
    most ``GRAM_MAX`` entries uses it; there both forms take tens of
    microseconds.  The W form, <F_k, W F_l W> with W = G G' (Fujisawa,
    Kojima & Nakata, Math. Prog. 1997; ``_Stack.w_share``), takes W F_l W
    from the congruence and its inner products with every F_k from a sparse
    product with the d-by-s^2 matrix whose row k is vec(F_k), one problem
    and one column l of the share at a time: d s^2 r plus the nonzeros of F
    times d, of which only the lower triangle, about half, is formed.  A
    larger block uses it only when U has at least ``W_MIN_SPARSITY`` times
    as many entries as F has nonzeros.  Stacked systems are far past that
    (330 to 420 at n = 40, where the W form takes 0.14 to 0.26 of the Gram
    form's time); a dense A and H are not (about 2, where it takes 3.2 to
    3.5 times as long at n = 15 to 30).  Every problem of a group takes the
    same form.

    ``work`` is the group's one work array, which its blocks and the cap
    use in turn.  The Gram form forms its rows there in ``set_scaling``,
    for all B problems (``lmi._gram_words`` doubles each): a congruence
    chunk G'F_kG, then the chunk's svec rows over its dead factors, scaled
    straight into U.  The W form takes its congruence chunks, and when it
    adds its share the chunk's columns, there in ``schur``, one problem at
    a time (``lmi._w_words`` doubles).  ``keep`` keeps U's first rows for
    the problems that remain, so U is not allocated again.  ``schur``
    writes or adds the share into the group's Schur complements.  The
    objective cap is no ``_Block``: see ``_Cap``.
    """

    __slots__ = ("lmi", "C", "size", "eye", "X", "S", "G", "lam_avg", "lam_isqrt", "neg_lam2",
                 "Chat", "Chat_sv", "U", "work", "W")

    def __init__(self, lmi: _Stack, gram: bool, work: np.ndarray):
        B, d, _, s = lmi.vals.shape
        self.lmi, self.size, self.work = lmi, s, work
        self.C = -lmi.F0
        self.eye = np.eye(s)
        self.X = np.broadcast_to(self.eye, (B, s, s)).copy()
        self.S = self.X.copy()
        # column-major per problem, as svec returns it, so that U U' takes the
        # same BLAS path
        self.U = np.empty((B, s * (s + 1) // 2, d)).transpose(0, 2, 1) if gram else None

    def keep(self, mask: np.ndarray) -> None:
        """Drop the problems where ``mask`` is False.  U keeps its first rows:
        they are overwritten before they are read."""
        self.lmi = self.lmi.keep(mask)
        self.C, self.X, self.S = self.C[mask], self.X[mask], self.S[mask]
        if self.U is not None:
            self.U = self.U[:len(self.X)]

    def set_scaling(self, G: np.ndarray, lam: np.ndarray) -> None:
        self.G = G
        self.lam_avg = (lam[:, :, None] + lam[:, None, :]) / 2.0
        self.lam_isqrt = 1.0 / np.sqrt(lam)[:, :, None]
        self.neg_lam2 = -(lam ** 2)[:, :, None] * self.eye
        self.Chat = G.mT @ self.C @ G
        if self.U is not None:
            self.lmi.gram_rows(G, self.U, self.work)
            self.Chat_sv = svec(self.Chat)
        else:
            self.W = G @ G.mT

    def schur(self, M: np.ndarray, add: bool) -> None:
        """Write the Schur share into M (B, d, d), or add it with ``add``.  The
        Gram form writes all of U U', the W form its lower triangle
        (``_Stack.w_share``)."""
        if self.U is None:
            self.lmi.w_share(self.W, M, self.work, add)
        elif add:
            M += self.U @ self.U.mT
        else:
            np.matmul(self.U, self.U.mT, out=M)

    def pull_back(self, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(F*(G R G'), <Chat, R>) for symmetric R (B, s, s) in the scaled space."""
        if self.U is not None:
            rsv = svec(R)
            return (self.U @ rsv[..., None])[..., 0], np.vecdot(self.Chat_sv, rsv)
        return self.lmi.adjoint(self.G @ R @ self.G.mT), (self.Chat * R).sum(axis=(1, 2))


class _Cap:
    """The objective cap of the B problems of a lockstep group: the 1-by-1
    block -c + sum_k x_k f_k <= 0 (c'x <= ``OBJECTIVE_BOX`` in the scaled
    variables), its row f (B, d), its C = c (B,) and its iterates x and s (B,).

    Every quantity that ``_Block`` keeps as an s-by-s matrix is a scalar here,
    rounded as LAPACK and BLAS round the 1-by-1 case: the Cholesky factor of
    x is sqrt(x), the SVD of a positive 1-by-1 lam is (1, lam, 1), so the NT
    factor is g = sqrt(x) / sqrt(lam) with lam = sqrt(s) sqrt(x), (lam +
    lam)/2 is lam, and a product of 1-by-1 matrices, svec or a
    symmetrization is the product of the scalars.  The Gram row is
    u = g (f g), and the share u u' is added to the Schur complement after
    the blocks' shares.  ``linear`` sums f_k y_k in k order as
    ``_Stack.linear`` sums the nonzeros, and the adjoint is f x.  ``schur``
    forms its chunks in the group's work array (``_Block``), at least
    ``_cap_words`` doubles per problem."""

    __slots__ = ("f", "c", "x", "s", "rd", "g", "lam", "lam_isqrt", "neg_lam2", "chat", "u",
                 "step", "work")

    def __init__(self, f: np.ndarray, c: np.ndarray, work: np.ndarray):
        # + 0.0 makes a -0.0 in f +0.0: the row-compressed index drops it,
        # and the 1-by-1 products start their sums from 0.0
        self.f, self.c, self.work = f + 0.0, c, work
        self.x, self.s = np.ones(len(c)), np.ones(len(c))
        d = f.shape[1]
        # columns per chunk of the Schur share, fixed with ``_cap_words``
        self.step = _chunk_rows(d, d, 1)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the problems where ``mask`` is False."""
        self.f, self.c, self.x, self.s, self.rd = (
            a[mask] for a in (self.f, self.c, self.x, self.s, self.rd))

    def linear(self, y: np.ndarray) -> np.ndarray:
        # the zero f_k add only zeros; + 0.0 gives a zero sum the sign of the
        # bincount's, which starts from 0.0
        return (self.f * y).cumsum(axis=1)[:, -1] + 0.0

    def set_scaling(self) -> dict:
        """The NT scaling and what ``_Block.set_scaling`` forms from it; on a
        breakdown nothing is set, and the result maps the position of each
        problem that broke down to its message, as ``_Group.step`` reports it."""
        for v in (self.x, self.s):
            if not (v > 0).all():
                return _broken(~(v > 0), "NT scaling failed: Matrix is not positive definite")
        lx = np.sqrt(self.x)
        lam = np.sqrt(self.s) * lx
        if not (lam.min() > 0 and lam.max() < np.inf):
            return _broken(~((lam > 0) & np.isfinite(lam)),
                           "NT scaling failed: degenerate NT scaling")
        self.lam = lam
        self.lam_isqrt = 1.0 / np.sqrt(lam)
        self.neg_lam2 = -(lam ** 2)
        g = self.g = lx * self.lam_isqrt
        self.chat = g * self.c * g
        self.u = g[:, None] * (self.f * g[:, None])
        return {}

    def schur(self, M: np.ndarray) -> None:
        """Add the share u u' to the lower triangle of M (B, d, d), in chunks of
        columns ls of about ``lmi._CHUNK`` doubles per problem, each at the
        rows k >= ls.start and formed in ``work`` as a column-major M holds
        it, column by column (u_l u_k is u_k u_l exactly)."""
        u, step = self.u, self.step
        B, d = u.shape
        for lo in range(0, d, step):
            v = u[:, lo:lo + step, None]
            uu = self.work[:B * v.shape[1] * (d - lo)].reshape(B, v.shape[1], d - lo)
            np.multiply(v, u[:, None, lo:], out=uu)
            M[:, lo:, lo:lo + step] += uu.mT


def _cap_words(d: int) -> int:
    """Doubles per problem of the work array of ``_Cap.schur``: one chunk of u u'."""
    return d * _chunk_rows(d, d, 1)


def _ruiz_scale(user):
    """Ruiz-style scaling of the blocks ``user``, one ``_Stack`` each, of B
    problems of one shape: the scaled stacks, variable scales gamma (B, d)
    and block scales beta (B, blocks).  The sweeps find the factors, and each
    stack multiplies its nonzeros by them in the same order (``scaled``)."""
    gamma = np.ones(user[0].vals.shape[:2])
    beta = np.ones((len(gamma), len(user)))
    F0s, factors = [blk.F0.copy() for blk in user], [[] for _ in user]
    # max |F0| per problem and max |F_k| per variable, read once and scaled
    # as the data are: rounding is monotone, so max |fl(g v)| = fl(g max |v|)
    # for g > 0, and each maximum stays that of the scaled data, bit for bit
    f0_max = [np.abs(F0).max(axis=(1, 2)) for F0 in F0s]
    row_max = [blk.abs_max() for blk in user]
    for _ in range(RUIZ_SWEEPS):
        r = np.zeros(gamma.shape)
        for a in row_max:
            r = np.maximum(r, a)
        g = 1.0 / np.sqrt(np.where(r > 0, r, 1.0))
        gamma *= g
        for b, (F0, f, a, fs) in enumerate(zip(F0s, f0_max, row_max, factors)):
            a *= g
            s = np.maximum(f, a.max(axis=1))
            sb = np.where(s > 0, 1.0 / np.sqrt(np.where(s > 0, s, 1.0)), 1.0)
            F0 *= sb[:, None, None]
            fs += [g, sb]
            f *= sb
            a *= sb[:, None]
            beta[:, b] *= sb
    return [blk.scaled(F0, fs) for blk, F0, fs in zip(user, F0s, factors)], gamma, beta


def _lapack(fn, A: np.ndarray):
    """(fn(A), {}) for a stack A of matrices, or (None, {i: error}) naming the
    slices fn fails on: a batched LAPACK call raises for the whole stack when
    one slice fails, so the slices are then tried one at a time."""
    try:
        return fn(A), {}
    except np.linalg.LinAlgError as exc:
        failed = {}
        for i, Ai in enumerate(A):
            try:
                fn(Ai)
            except np.linalg.LinAlgError as slice_exc:
                failed[i] = slice_exc
        if not failed:
            raise exc
        return None, failed


def solve(problem: SdpProblem) -> SdpSolution:
    """Solve the block-LMI maximization.  See module docstring for the contract."""
    return solve_many([problem])[0]


def solve_many(problems) -> list[SdpSolution]:
    """Solve problems that share d, block sizes and the rows of every block,
    in lockstep; the solutions follow the order of ``problems``, each bitwise
    what its own solve returns.  Raises ValueError on problems of different
    shapes."""
    problems = list(problems)
    if not problems:
        return []
    first = problems[0]
    for p in problems[1:]:
        if (p.d != first.d or len(p.blocks) != len(first.blocks)
                or any(a.size != b.size or not np.array_equal(a.rows, b.rows)
                       for a, b in zip(p.blocks, first.blocks))):
            raise ValueError("solve_many needs problems of one shape: "
                             "the same d, block sizes and rows")
    # the Schur form of each block; equal forms run together
    groups: dict = {}
    for i, p in enumerate(problems):
        forms = tuple(_gram_form(p.d, blk.size, blk.nnz) for blk in p.blocks)
        groups.setdefault(forms, []).append(i)
    solutions = [None] * len(problems)
    for forms, members in groups.items():
        # as many problems as GROUP_BYTES holds, at least one
        size = max(1, GROUP_BYTES // (8 * _group_words(problems[members[0]], forms)))
        # as few groups as the budget allows, of nearly equal sizes
        for part in np.array_split(members, -(-len(members) // size)):
            for i, sol in zip(part, _Group([problems[i] for i in part], forms).run()):
                solutions[i] = sol
    return solutions


def _group_words(problem: SdpProblem, forms: tuple) -> int:
    """The doubles that one problem of this shape, with these Schur
    ``forms``, adds to the working arrays of its lockstep group: its Schur
    complement, per block its data and their scaled copy, the nonzero
    indices of both, the copy of data and indices that ``keep`` makes, 32
    s-by-s arrays (iterates, residuals and the directions of both Newton
    solves) and in the Gram form its rows U, and once the group's work
    array, as large as its largest use: the cap's chunk (``_cap_words``), a
    Gram-form block's rows (``lmi._gram_words``) or a W-form block's share
    (``lmi._w_words``: a congruence chunk, then the chunk's columns when it
    adds)."""
    d = problem.d
    words, work = d * d, _cap_words(d)
    for blk, gram in zip(problem.blocks, forms):
        s, r = blk.size, blk.rows.shape[1]
        words += 3 * blk.vals.size + 9 * blk.nnz + 32 * s * s
        if gram:
            words += d * s * (s + 1) // 2
        work = max(work, (_gram_words if gram else _w_words)(d, r, s))
    return words + work


class _Run:
    """One problem's own part of a lockstep solve: its best iterate, log,
    stall count and verdict."""

    def __init__(self, problem: SdpProblem):
        self.status, self.message = "IterLimit", ""
        self.x_best = np.zeros(problem.d)
        self.Z_best = [np.zeros_like(blk.F0) for blk in problem.blocks]
        self.resid_best = (np.inf, np.inf, np.inf)
        self.obj_best = float("nan")
        self.obj_max_seen = -np.inf
        self.iters = 0
        self.history = []
        # consecutive collapsed iterations without a tenfold better ray, and the
        # smallest ray residual seen since tau collapsed
        self.stall, self.ray_min = 0, np.inf
        self.resid = self.resid_best  # this iteration's residuals, for the log

    def check(self, it: int, ray_q: float, ray_Z, report) -> bool:
        """The termination tests of iteration ``it``; True when the problem is done.

        ``ray_Z`` is the candidate ray if ``ray_test`` accepted it, else
        None, and ``ray_q`` its eta; ``report`` is the original-space (x, Z,
        residuals, objective), or None when tau has collapsed."""
        self.iters = it + 1
        if ray_Z is not None:
            self.status, self.Z_best = "Infeasible", ray_Z
            self.message = f"improving ray with max |<F_k, Z>| = {ray_q:.2e}"
            self.resid_best, self.obj_best = (0.0, 0.0, 0.0), float("nan")
            return True
        if report is not None:
            x, Z, resid, p_obj = report
            if np.isfinite(p_obj):
                self.obj_max_seen = max(self.obj_max_seen, p_obj)
            if resid[0] <= FEAS_TOL and resid[1] <= FEAS_TOL and resid[2] <= GAP_TOL:
                self.status, self.message = "Optimal", ""
                self.x_best, self.Z_best, self.resid_best, self.obj_best = x, Z, resid, p_obj
                return True
            # each residual on its own: max(resid) would skip a NaN that is not first
            worst_best = max(self.resid_best)
            if all(r < worst_best for r in resid):
                self.x_best, self.Z_best, self.resid_best, self.obj_best = x, Z, resid, p_obj
            self.stall, self.ray_min = 0, np.inf
        else:
            resid = self.resid_best
            self.stall = 0 if ray_q < 0.1 * self.ray_min else self.stall + 1
            self.ray_min = min(self.ray_min, ray_q)
            if self.stall >= STALL_ITERS:
                self.status = "NumericalFailure"
                self.message = (f"stalled: no interior (tau -> 0) and no improving ray "
                                f"in {STALL_ITERS} iterations")
                return True
        self.resid = resid
        return False

    def solution(self) -> SdpSolution:
        message = self.message
        if self.status == "IterLimit":
            message = f"no convergence in {MAX_ITERS} iterations"
        if (self.status in ("IterLimit", "NumericalFailure")
                and np.isfinite(self.obj_max_seen) and self.obj_max_seen >= 0.5 * OBJECTIVE_BOX):
            message += ("; objective reached the internal OBJECTIVE_BOX cap "
                        "(problem unbounded above?)")
        return SdpSolution(self.status, self.x_best, self.Z_best, self.obj_best, *self.resid_best,
                           self.iters, message, self.history)


class _Group:
    """The stacked iterates of problems solved in lockstep.  Every array has
    one leading row per problem still running, in the order of ``runs``."""

    # the per-problem arrays that ``keep`` compacts; Rp, Rd, Rg and mu are
    # those of the current iteration
    _ROWS = ("y", "tau", "kappa", "b_vec", "c", "gamma", "beta", "s_obj", "Rp", "Rg", "mu")

    def __init__(self, problems: list, forms: tuple):
        """``forms`` holds each block's Schur form (``_gram_form``)."""
        B, d = len(problems), problems[0].d
        self.c = np.stack([np.asarray(p.c, dtype=float).reshape(-1) for p in problems])
        self.runs = [_Run(p) for p in problems]
        self.all_runs = list(self.runs)
        self.user = [_Stack.of([p.blocks[b] for p in problems])
                     for b in range(len(problems[0].blocks))]
        scaled, self.gamma, self.beta = _ruiz_scale(self.user)

        c_sc = self.gamma * self.c
        self.s_obj = 1.0 / np.maximum(1.0, np.max(np.abs(c_sc), axis=1, initial=0.0))
        c_sc = c_sc * self.s_obj[:, None]
        # hidden cap c'x <= OBJECTIVE_BOX, in scaled variables, row-normalized
        boxval = self.s_obj * OBJECTIVE_BOX
        rownorm = np.maximum(np.maximum(1.0, np.max(np.abs(c_sc), axis=1, initial=0.0)),
                             np.abs(boxval))
        # the Gram rows, the W-form shares and the cap's chunks take one work
        # array in turn
        work = np.empty(max([B * _cap_words(d)] + [
            B * _gram_words(*lmi.vals.shape[1:]) if gram else _w_words(*lmi.vals.shape[1:])
            for lmi, gram in zip(scaled, forms)]))
        self.cap = _Cap(c_sc / rownorm[:, None], boxval / rownorm, work)
        self.blocks = [_Block(lmi, gram, work) for lmi, gram in zip(scaled, forms)]
        self.b_vec = c_sc
        self.nu = sum(blk.size for blk in self.blocks) + 1
        self.y = np.zeros((B, d))
        self.tau, self.kappa = np.ones(B), np.ones(B)
        # the Schur complements, column-major per problem, so that each is
        # factored in place, and the mask of the entries above the diagonal in
        # a chunk of the cap's columns, from its first row down (``step``)
        self.M = np.zeros((B, d, d)).transpose(0, 2, 1)
        self.upper = ~np.tri(d, self.cap.step, dtype=bool)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the problems where ``mask`` is False."""
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[mask])
        self.Rd = [R[mask] for R in self.Rd]
        for blk in self.blocks:
            blk.keep(mask)
        self.cap.keep(mask)
        # overwritten before it is read, as U
        self.M = self.M[:len(self.y)]
        self.runs = [run for run, k in zip(self.runs, mask) if k]
        self.user = [ub.keep(mask) for ub in self.user]

    def run(self) -> list[SdpSolution]:
        for it in range(MAX_ITERS):
            done = self.check(it)
            while not done.all():
                if done.any():
                    self.keep(~done)
                failed = self.step()
                if not failed:
                    break
                # the step is taken again without the problems that broke down
                for i, message in failed.items():
                    self.runs[i].status, self.runs[i].message = "NumericalFailure", message
                done = np.zeros(len(self.runs), dtype=bool)
                done[list(failed)] = True
            if done.all():
                break
        return [run.solution() for run in self.all_runs]

    def check(self, it: int) -> np.ndarray:
        """Residuals, ray check and termination tests of iteration ``it``; True
        where a problem is done."""
        blocks, cap, tau, kappa, y = self.blocks, self.cap, self.tau, self.kappa, self.y
        tau3 = tau[:, None, None]
        self.Rp = (sum(blk.lmi.adjoint(blk.X) for blk in blocks) + cap.f * cap.x[:, None]
                   - self.b_vec * tau[:, None])
        self.Rd = [blk.lmi.linear(y) + blk.S - blk.C * tau3 for blk in blocks]
        cap.rd = cap.linear(y) + cap.s - cap.c * tau
        CX = sum((blk.C * blk.X).sum(axis=(1, 2)) for blk in blocks) + cap.c * cap.x
        self.Rg = CX - np.vecdot(self.b_vec, y) + kappa
        self.mu = (sum((blk.X * blk.S).sum(axis=(1, 2)) for blk in blocks) + cap.x * cap.s
                   + tau * kappa) / (self.nu + 1)

        ray_Z, ray_q, ray_ok = ray_test(
            self.user, [b[:, None, None] * blk.X for blk, b in zip(blocks, self.beta.T)], self.c)
        iterate_scale = np.abs(cap.x)
        for blk in blocks:
            iterate_scale = np.maximum(iterate_scale, np.abs(blk.X).max(axis=(1, 2)))
        interior = tau > 1e-14 * np.maximum(1.0, iterate_scale)
        # the original-space report of every problem, with tau replaced by 1
        # where it has collapsed; those reports are not read
        t = np.where(interior, tau, 1.0)
        x_orig = self.gamma * (y / t[:, None])
        Zs = [beta[:, None, None] * blk.X / (t * self.s_obj)[:, None, None]
              for blk, beta in zip(blocks, self.beta.T)]
        # Rd = F(y) + S - C tau in scaled data, so F(x) = (Rd - S) / (tau beta)
        Fx = [(R - blk.S) / (t * beta)[:, None, None]
              for R, blk, beta in zip(self.Rd, blocks, self.beta.T)]
        primal, dual, gap, p_obj = _residuals(self.user, self.c, x_orig, Fx, Zs)

        done = np.zeros(len(self.runs), dtype=bool)
        for i, run in enumerate(self.runs):
            report = None
            if interior[i]:
                report = (x_orig[i], [Z[i] for Z in Zs],
                          (float(primal[i]), float(dual[i]), float(gap[i])), float(p_obj[i]))
            done[i] = run.check(it, float(ray_q[i]),
                                [Z[i] for Z in ray_Z] if ray_ok[i] else None, report)
        return done

    def schur(self, M: np.ndarray) -> None:
        """Form the Schur complements in M (B, d, d): every entry of each
        lower triangle is the blocks' shares and then the cap's, summed in
        that order."""
        for bi, blk in enumerate(self.blocks):
            blk.schur(M, bi > 0)
        self.cap.schur(M)

    def step(self) -> dict:
        """One predictor-corrector step of every problem.  On a breakdown nothing
        changes, and the result maps the position of each problem that broke
        down to its message."""
        blocks, cap, tau, kappa, b_vec = self.blocks, self.cap, self.tau, self.kappa, self.b_vec
        Rp, Rd, Rg, mu = self.Rp, self.Rd, self.Rg, self.mu
        B, d = self.y.shape

        # Nesterov-Todd scaling point per block
        for blk in blocks:
            # the factors of X and S in one call; a failure of X is reported
            # before one of S
            L, failed = _lapack(np.linalg.cholesky, np.concatenate((blk.X, blk.S)))
            if not failed:
                Lx, Ls = L[:B], L[B:]
                (_, sv, Vt), failed = _lapack(np.linalg.svd, Ls.mT @ Lx)
            elif any(i < B for i in failed):
                failed = {i: exc for i, exc in failed.items() if i < B}
            if failed:
                return {i % B: f"NT scaling failed: {exc}" for i, exc in failed.items()}
            # the singular values are nonnegative and sorted, so this holds
            # if every last one is positive and none is inf or nan
            if not (sv.min() > 0 and sv.max() < np.inf):
                return _broken(~((sv[:, -1] > 0) & np.isfinite(sv).all(axis=1)),
                               "NT scaling failed: degenerate NT scaling")
            blk.set_scaling(Lx @ (Vt.mT / np.sqrt(sv)[:, None, :]), sv)
        failed = cap.set_scaling()
        if failed:
            return failed

        # an NT scaling that overflows shows up here; it is reported below
        M = self.M
        with np.errstate(over="ignore", invalid="ignore"):
            self.schur(M)
            g_vec, q_cc = blocks[0].pull_back(blocks[0].Chat)
            for blk in blocks[1:]:
                g_b, q_b = blk.pull_back(blk.Chat)
                g_vec += g_b
                q_cc += q_b
            g_vec += cap.u * cap.chat[:, None]
            q_cc += cap.chat * cap.chat
        # the lower triangles of M, all that the factorization reads, in the
        # cap's chunks of columns ls: the rows k >= ls.start but those above
        # the diagonal (``upper``)
        finite = np.isfinite(g_vec).all(axis=1) & np.isfinite(q_cc)
        for lo in range(0, d, cap.step):
            finite &= (np.isfinite(M[:, lo:, lo:lo + cap.step])
                       | self.upper[:d - lo, :d - lo]).all(axis=(1, 2))
        factors, failed = [None] * B, {}
        for i, Mi in enumerate(M):
            if not finite[i]:
                failed[i] = "Schur complement not finite"
                continue
            try:
                factors[i] = cho_factor(Mi)
            except np.linalg.LinAlgError:
                failed[i] = "Schur complement not positive definite"
        if failed:
            return failed

        def cho_solve_each(rhs):
            out = np.empty((B, d))
            for f, r, o in zip(factors, rhs, out):
                o[...] = _cho_solve(f, r)
            return out

        # the scaled dual residuals, G' Rd G, of both Newton solves
        GRG = [blk.G.mT @ R @ blk.G for blk, R in zip(blocks, Rd)]
        GRG.append(cap.g * cap.rd * cap.g)
        u_dir = cho_solve_each(g_vec + b_vec)
        # equals (q_cc - g'M^-1 g) + b'M^-1 b, nonnegative in exact arithmetic;
        # clamp away the cancellation noise that appears at convergence
        denom_const = np.maximum(q_cc - np.vecdot(g_vec - b_vec, u_dir), 0.0)
        # the same for both Newton solves, so only the predictor can break down
        denominator = kappa + tau * denom_const
        broken = (denominator <= 0) | ~np.isfinite(denominator)
        if broken.any():
            return _broken(broken, "singular reduced system (predictor)")

        def newton(eta, sigma_mu, corr_blocks, r_tk):
            """One Newton solve of the reduced systems; each list returned
            holds the blocks' directions and then the cap's."""
            Qhats = []
            anorm = np.zeros((B, d))
            cdot = np.zeros(B)
            eta3 = eta[:, None, None]
            if sigma_mu is not None:
                # a zero sigma_mu is not added, which leaves -0.0 off the diagonal
                shift3, unshifted = sigma_mu[:, None, None], (sigma_mu == 0)[:, None, None]
                any_unshifted = unshifted.any()
            for bi, blk in enumerate(blocks):
                Rhat = blk.neg_lam2
                if sigma_mu is not None:
                    shifted = Rhat + shift3 * blk.eye
                    Rhat = np.where(unshifted, Rhat, shifted) if any_unshifted else shifted
                if corr_blocks is not None:
                    Rhat = Rhat - corr_blocks[bi]
                Qhat = Rhat / blk.lam_avg
                Qhats.append(Qhat)
                a_b, c_b = blk.pull_back(Qhat + eta3 * GRG[bi])
                anorm += a_b
                cdot += c_b
            rhat = cap.neg_lam2 if sigma_mu is None else cap.neg_lam2 + sigma_mu
            if corr_blocks is not None:
                rhat = rhat - corr_blocks[-1]
            qhat = rhat / cap.lam
            r_cap = qhat + eta * GRG[-1]
            anorm += cap.u * r_cap[:, None]
            cdot += cap.chat * r_cap
            v_dir = cho_solve_each(-eta[:, None] * Rp - anorm)
            dtau = (r_tk - tau * (-eta * Rg - cdot - np.vecdot(g_vec - b_vec, v_dir))) / denominator
            dy = v_dir + u_dir * dtau[:, None]
            dkappa = (r_tk - kappa * dtau) / tau
            dS, dX, dXh, dSh = [], [], [], []
            dtau3 = dtau[:, None, None]
            for bi, blk in enumerate(blocks):
                dSb = -eta3 * Rd[bi] - blk.lmi.linear(dy) + blk.C * dtau3
                dSh_b = _sym(blk.G.mT @ dSb @ blk.G)
                dXh_b = Qhats[bi] - dSh_b
                dXb = _sym(blk.G @ dXh_b @ blk.G.mT)
                dS.append(dSb)
                dX.append(dXb)
                dXh.append(dXh_b)
                dSh.append(dSh_b)
            ds = -eta * cap.rd - cap.linear(dy) + cap.c * dtau
            dsh = cap.g * ds * cap.g
            dxh = qhat - dsh
            dS.append(ds)
            dX.append(cap.g * dxh * cap.g)
            dXh.append(dxh)
            dSh.append(dsh)
            return dy, dS, dX, dXh, dSh, dtau, dkappa

        def max_step(dXh, dSh, dtau, dkappa):
            # -1/w for the most negative eigenvalue w is the smallest -1/w of
            # all, because rounding keeps 1/w monotone
            w = np.zeros(B)
            for bi, blk in enumerate(blocks):
                li = blk.lam_isqrt
                # both directions in one call
                e = np.linalg.eigvalsh(np.concatenate((li * dXh[bi] * li.mT,
                                                       li * dSh[bi] * li.mT)))[:, 0]
                w = np.minimum(w, np.minimum(e[:B], e[B:]))
            li = cap.lam_isqrt
            w = np.minimum(w, np.minimum(li * dXh[-1] * li, li * dSh[-1] * li))
            # the step at which 1 + a w, tau + a dtau or kappa + a dkappa reaches 0
            v, dv = np.array([np.ones(B), tau, kappa]), np.array([w, dtau, dkappa])
            down = dv < 0
            return np.where(down, -v / np.where(down, dv, -1.0), np.inf).min(axis=0)

        _, dS_a, dX_a, dXh_a, dSh_a, dtau_a, dkap_a = newton(np.ones(B), None, None, -tau * kappa)
        a_aff = np.minimum(1.0, max_step(dXh_a, dSh_a, dtau_a, dkap_a))
        a3 = a_aff[:, None, None]
        ip = (sum(((blk.X + a3 * dX_a[bi]) * (blk.S + a3 * dS_a[bi])).sum(axis=(1, 2))
                  for bi, blk in enumerate(blocks))
              + (cap.x + a_aff * dX_a[-1]) * (cap.s + a_aff * dS_a[-1]))
        mu_aff = (ip + (tau + a_aff * dtau_a) * (kappa + a_aff * dkap_a)) / (self.nu + 1)
        # Python's float power: numpy's vectorized power may round an element
        # differently depending on where it sits in the array
        sigma = np.array([min(1.0, max(0.0, r)) ** 3 for r in (mu_aff / mu).tolist()])

        corr = [_sym(dXh_a[bi] @ dSh_a[bi]) for bi in range(len(blocks))]
        corr.append(dXh_a[-1] * dSh_a[-1])
        # the predictor's directions are spent: free them before the corrector's
        del dS_a, dX_a, dXh_a, dSh_a
        r_tk = sigma * mu - tau * kappa - dtau_a * dkap_a
        dy_c, dS_c, dX_c, dXh_c, dSh_c, dtau_c, dkap_c = newton(1.0 - sigma, sigma * mu, corr, r_tk)
        alpha = np.minimum(1.0, STEP_FRACTION * max_step(dXh_c, dSh_c, dtau_c, dkap_c))
        collapsed = (alpha < 1e-13) | ~np.isfinite(alpha)
        if collapsed.any():
            return _broken(collapsed, "step length collapsed")

        tau = tau + alpha * dtau_c
        kappa = kappa + alpha * dkap_c
        left = ~(np.isfinite(tau) & (tau > 0) & np.isfinite(kappa) & (kappa > 0))
        if left.any():
            return _broken(left, "tau/kappa left the cone")
        self.y = self.y + alpha[:, None] * dy_c
        self.tau, self.kappa = tau, kappa
        a3 = alpha[:, None, None]
        for bi, blk in enumerate(blocks):
            blk.X = blk.X + a3 * dX_c[bi]
            blk.S = blk.S + a3 * dS_c[bi]
        cap.x = cap.x + alpha * dX_c[-1]
        cap.s = cap.s + alpha * dS_c[-1]
        for run, m, a in zip(self.runs, mu.tolist(), alpha.tolist()):
            run.history.append((m, run.resid[0], run.resid[1], a))
        return {}


def _broken(mask: np.ndarray, message: str) -> dict:
    """{position: message} for the problems of a group where ``mask`` holds."""
    return dict.fromkeys(np.flatnonzero(mask).tolist(), message)


def ray_test(user, Zs, c):
    """Candidate improving rays of B problems, tested on the original data:
    (Z per block, eta, accepted), the last two per problem.

    ``user`` holds one ``lmi._Stack`` per block, ``Zs`` one (B, s, s) array
    per block and c is (B, d).  A candidate is normalized to unit total trace
    (sum_b trace Z_b = 1) and accepted when phi = sum_b <F0_b, Z_b> >= 1e-10,
    eta = max_k |sum_b <F_k, Z_b>| <= 1e-5 phi and eta <= ``FEAS_TOL``
    max(1, |c|_inf); eta is inf where phi fails.  Such a certificate proves
    there is no feasible point with |x|_1 < phi/eta, so the ratio guard rules
    out false positives for any problem whose feasible set lives at sane
    magnitudes.  The test takes Z_b >= 0 as given: the solver's candidates
    are interior iterates, and any other caller checks it.
    """
    total = sum(Z.trace(axis1=1, axis2=2) for Z in Zs)
    ok = np.isfinite(total) & (total > 0)
    Zs = [Z / np.where(ok, total, 1.0)[:, None, None] for Z in Zs]
    phi = sum((ub.F0 * Z).sum(axis=(1, 2)) for ub, Z in zip(user, Zs))
    ok &= np.isfinite(phi) & (phi >= 1e-10)
    if not ok.any():
        return Zs, np.full(len(ok), np.inf), ok
    Ag = sum(ub.adjoint(Z) for ub, Z in zip(user, Zs))
    eta = np.where(ok, np.abs(Ag).max(axis=1, initial=0.0), np.inf)
    scale = np.maximum(1.0, np.abs(c).max(axis=1, initial=0.0))
    return Zs, eta, ok & (eta <= 1e-5 * phi) & (eta <= FEAS_TOL * scale)
