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
``adjoint`` as one bincount, the eigenvalues of the step length, one call
for both directions) takes one call over the stacked (B, s, s) arrays,
each slice rounding as it would alone, so every problem gets bitwise the
iterates and the result of its own solve.  The d-by-d Schur factorization
and its three solves per iteration, direct LAPACK calls
(``lmi._cho_factor`` and ``_cho_solve``: scipy's ``cho_factor`` and
``cho_solve`` without their wrappers, which cost more than the calls at
d = 45), and the W-form Schur shares stay one problem at a time.  Each
problem keeps its own termination tests, log, stall count and best
iterate (``_Run``), and leaves the stack when it terminates.  A breakdown
in one problem (a failed factorization, a collapsed step) ends that
problem alone: the step is then taken again without it.  Problems whose
blocks take different Schur forms run in separate groups, and a group
holds at most ``GROUP_BYTES`` of working arrays, so a large problem runs
with few others or alone.

The Cholesky factors, the SVD and the eigenvalues are numpy's LAPACK
gufuncs called directly (``cholesky``, ``svd`` and ``eigvalsh``:
``numpy.linalg._umath_linalg``'s ``cholesky_lo``, ``svd_f`` and
``eigvalsh_lo``, what ``np.linalg.cholesky``, ``svd`` and ``eigvalsh``
call for float64 input, so the LAPACK drivers and every result are theirs),
without the wrappers' checks and copies, which cost more than the LAPACK
work at these sizes.  A gufunc computes every slice of a stack and fills a
slice that LAPACK fails on with NaN, raising only the floating-point
invalid flag, which the calls ignore.  So a failed slice is found by the
NaN it leaves: a NaN Cholesky factor or singular value ends its problem
with the message the wrapper's error would have given ("Matrix is not
positive definite", "SVD did not converge"), a NaN eigenvalue of a step
length makes that step NaN, which collapses it, and a NaN eigenvalue of a
residual makes that residual NaN, which never counts as best.

Each iterate quantity of a group is packed: one row per problem holds
every block's s-by-s matrix in turn, row-major, then the cap's entry
(``_Group``).  X and S, C, the dual residuals, the scaled residuals, the
Newton directions and their scaled forms, and the NT quantities taken from
the eigenvalues lam of the scaled point ((lam_i + lam_j)/2, -lam^2 I,
1/sqrt(lam)) are such rows, so every elementwise stage runs once for all
blocks and the cap, and ``linear`` sums the nonzeros of every block and of
the cap in one bincount, each entry from one block only, in its stack's
order.  A block reads its matrices through views of these rows, and its
matrix products, LAPACK calls and reductions take the operands they took
on their own, in the same order.

The objective cap is a 1-by-1 block, that is one linear inequality, and its
NT scaling is the scaling of a linear-programming cone (Toh, Todd &
Tutuncu, SDPT3, Optim. Methods Softw. 1999).  So it is kept as the last
entry of the packed rows and as (B,) and (B, d) arrays (``_Cap``), and
each of its stages is scalar arithmetic that rounds as the 1-by-1 LAPACK
and BLAS calls would.  Its rank-one Schur share
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
# the LAPACK gufuncs behind np.linalg.cholesky, svd and eigvalsh, without the
# wrappers' checks, copies and raise (see the module docstring)
from numpy.linalg._umath_linalg import cholesky_lo as cholesky
from numpy.linalg._umath_linalg import eigvalsh_lo as eigvalsh
from numpy.linalg._umath_linalg import svd_f as svd

from .lmi import (SdpProblem, _cho_solve, _chunk_rows, _gram_words, _Stack, _svec_take, _w_words,
                  svec)
# module-level names, so that a failing factorization can be substituted, as
# can the three gufuncs
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


def _residuals(user, c, x, Fx, Z):
    """(primal, dual, gap, c'x) of ``kkt_residuals``, each (B,), for B problems:
    ``user`` holds one ``_Stack`` per block, c and x are (B, d), and Fx[b] =
    F0_b + sum_k x_k F_k_b and Z[b] are (B, s, s)."""
    primal = np.zeros(len(c))
    dual_vec = -c
    dual_obj = 0.0
    # a matrix whose eigenvalues LAPACK fails on gets NaN ones, a NaN residual
    with np.errstate(invalid="ignore"):
        lam_maxes = [eigvalsh(Fxb)[..., -1] for Fxb in Fx]
    for blk, lam_max, Zb in zip(user, lam_maxes, Z):
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
    ``lmi._Stack`` ``lmi``, and the per-iteration NT quantities that are
    matrices of its own: the NT factor G, Chat = G'CG and, in the Gram form,
    the rows U and svec(Chat) (``Chat_sv``), in the W form W = G G'.  Its
    iterates, C included, are views into the group's packed arrays
    (``_Group``), which also hold what the NT scaling forms elementwise from
    the eigenvalues of the scaled point.  ``set_scaling`` forms these once
    per iteration, for both Newton solves, and ``pull_back`` takes every
    right-hand side from them, pull_back(Chat) included.

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

    __slots__ = ("lmi", "C", "size", "G", "Gt", "Chat", "Chat_sv", "U", "work", "W")

    def __init__(self, lmi: _Stack, gram: bool, work: np.ndarray):
        B, d, _, s = lmi.vals.shape
        self.lmi, self.size, self.work = lmi, s, work
        self.C = -lmi.F0
        # column-major per problem, as svec returns it, so that U U' takes the
        # same BLAS path
        self.U = np.empty((B, s * (s + 1) // 2, d)).transpose(0, 2, 1) if gram else None

    def keep(self, mask: np.ndarray) -> None:
        """Drop the problems where ``mask`` is False.  U keeps its first rows:
        they are overwritten before they are read.  C is the group's to set."""
        self.lmi = self.lmi.keep(mask)
        if self.U is not None:
            self.U = self.U[:len(self.lmi.F0)]

    def set_scaling(self, G: np.ndarray) -> None:
        self.G, self.Gt = G, G.mT
        self.Chat = self.Gt @ self.C @ G
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
            return self.pull_back_svec(svec(R))
        return self.lmi.adjoint(self.G @ R @ self.Gt), (self.Chat * R).sum(axis=(1, 2))

    def pull_back_svec(self, rsv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``pull_back`` in the Gram form, of the R whose svec is rsv (B,
        s(s+1)/2), each row contiguous."""
        return (self.U @ rsv[..., None])[..., 0], np.vecdot(self.Chat_sv, rsv)


class _Cap:
    """The objective cap of the B problems of a lockstep group: the 1-by-1
    block -c + sum_k x_k f_k <= 0 (c'x <= ``OBJECTIVE_BOX`` in the scaled
    variables), its row f (B, d) and its C = c (B,).  Its iterates x and s
    are the last entry of the group's packed arrays (``_Group``).

    Every quantity that ``_Block`` keeps as an s-by-s matrix is a scalar here,
    rounded as LAPACK and BLAS round the 1-by-1 case: the Cholesky factor of
    x is sqrt(x), the SVD of a positive 1-by-1 lam is (1, lam, 1), so the NT
    factor is g = sqrt(x) / sqrt(lam) with lam = sqrt(s) sqrt(x), (lam +
    lam)/2 is lam, and a product of 1-by-1 matrices, svec or a
    symmetrization is the product of the scalars.  The Gram row is
    u = g (f g), and the share u u' is added to the Schur complement after
    the blocks' shares.  ``_Group.linear`` sums f_k y_k over the nonzero f_k
    in k order, as ``_Stack.linear`` sums a block's nonzeros, and the
    adjoint is f x.  ``schur`` forms its chunks in the group's work array
    (``_Block``), at least ``_cap_words`` doubles per problem."""

    __slots__ = ("f", "c", "g", "chat", "u", "step", "work")

    def __init__(self, f: np.ndarray, c: np.ndarray, work: np.ndarray):
        # + 0.0 makes a -0.0 in f +0.0: the nonzero index drops it, and the
        # 1-by-1 products start their sums from 0.0
        self.f, self.c, self.work = f + 0.0, c, work
        d = f.shape[1]
        # columns per chunk of the Schur share, fixed with ``_cap_words``
        self.step = _chunk_rows(d, d, 1)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the problems where ``mask`` is False."""
        self.f, self.c = self.f[mask], self.c[mask]

    def set_scaling(self, lx: np.ndarray, lam_isqrt: np.ndarray) -> None:
        """g, Chat and u from sqrt(x) ``lx`` and 1/sqrt(lam) ``lam_isqrt``."""
        g = self.g = lx * lam_isqrt
        self.chat = g * self.c * g
        self.u = g[:, None] * (self.f * g[:, None])

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
    indices of both and the group's index of the scaled nonzeros (and the
    cap's, at most d), the copy of data and indices that ``keep`` makes, 32
    s-by-s arrays (iterates, residuals and the directions of both Newton
    solves), the best iterate and in the Gram form its rows U, the log
    (``_Run``), and once the group's work array, as large as its largest
    use: the cap's chunk (``_cap_words``), a Gram-form block's rows
    (``lmi._gram_words``) or a W-form block's share (``lmi._w_words``: a
    congruence chunk, then the chunk's columns when it adds)."""
    d = problem.d
    words, work = d * d + 4 * d + 4 * MAX_ITERS, _cap_words(d)
    for blk, gram in zip(problem.blocks, forms):
        s, r = blk.size, blk.rows.shape[1]
        words += 3 * blk.vals.size + 12 * blk.nnz + 33 * s * s
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
        residuals, objective), or None when tau has collapsed.  Z is read
        now: its arrays are the group's and are overwritten."""
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
                self.x_best, self.resid_best, self.obj_best = x, resid, p_obj
                self.Z_best = [Zb.copy() for Zb in Z]
                return True
            # each residual on its own: max(resid) would skip a NaN that is not first
            worst_best = max(self.resid_best)
            if all(r < worst_best for r in resid):
                self.x_best, self.resid_best, self.obj_best = x, resid, p_obj
                self.Z_best = [Zb.copy() for Zb in Z]
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
    one leading row per problem still running, in the order of ``runs``.

    Each iterate quantity is one packed row of length L per problem: every
    block's s-by-s matrix in turn, then the cap's entry.  X and S (``XS``),
    C, the dual residuals Rd, the scaled residuals, the Newton directions
    and their scaled forms are such arrays, allocated once per set of
    problems (``views``), and a block reads its matrix through a view
    (``split``), so an elementwise stage runs once for all blocks and the
    cap.  Each block's matrix products, LAPACK calls and reductions take its
    own view, with the operands of a block on its own, and the LAPACK
    gufuncs copy their input, so every entry rounds as before.  The NT
    scaling packs the eigenvalues lam of every block's scaled point and the
    cap's, per problem, in one row, and the entries of a block's (lam_i +
    lam_j)/2, -lam_i^2 I and 1/sqrt(lam_i), 1/sqrt(lam_j) are taken from it
    by one index (``lam_i``, ``lam_j``); at the cap both point to its lam.
    ``linear`` forms sum_k y_k F_k of every block and of the cap in one
    bincount over the group's index of their nonzeros, each entry summed
    from one block's nonzeros in its stack's order."""

    # the per-problem arrays that ``keep`` compacts; Rp, Rd, Rg and mu are
    # those of the current iteration
    _ROWS = ("y", "tau", "kappa", "b_vec", "c", "gamma", "beta", "s_obj", "Rp", "Rd", "Rg", "mu",
             "C", "BETA")
    # what ``views`` makes for the problems that run; ``keep`` drops it first,
    # so that it is never held together with the copies that ``keep`` makes
    _VIEWS = ("GRG", "corr", "R", "BX", "Zs", "Fx", "dXS", "dh", "E", "XS_b", "Rd_b", "GRG_b",
              "corr_b", "R_b", "E_b", "BX_b", "Zs_b", "Fx_b", "dX_b", "dS_b", "dXh_b", "dSh_b",
              "index_k", "index_pos", "index_v")

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

        # the packed layout: block b's matrix at entries starts[b] + (i s + j)
        # of a row, the cap's at its last entry; its eigenvalues at entries
        # first[b] + i of a row of eigenvalues, the cap's at its last
        sizes = [blk.size for blk in self.blocks]
        starts = np.cumsum([0] + [s * s for s in sizes]).tolist()
        self.first = np.cumsum([0] + sizes).tolist()
        self.spans = list(zip(starts, starts[1:], sizes))
        L = starts[-1] + 1
        i = np.concatenate([np.repeat(np.arange(s), s) + f for s, f in zip(sizes, self.first)])
        j = np.concatenate([np.tile(np.arange(s), s) + f for s, f in zip(sizes, self.first)])
        self.lam_i, self.lam_j = np.append(i, self.first[-1]), np.append(j, self.first[-1])
        self.eye = (self.lam_i == self.lam_j) * 1.0
        # the factor of a symmetrization (M + M')/2, 1 at the cap, which is
        # not symmetrized
        self.half = np.full(L, 0.5)
        self.half[-1] = 1.0
        # the svec entries of every Gram-form block in a packed row, with
        # their scales, and each block's part of them (None in the W form)
        at, scales, self.svec_parts = [], [], []
        for blk, (a, _, s) in zip(self.blocks, self.spans):
            if blk.U is None:
                self.svec_parts.append(None)
                continue
            flat, scale = _svec_take(s)
            start = sum(map(len, at))
            self.svec_parts.append((start, start + len(flat)))
            at.append(a + flat)
            scales.append(scale)
        self.svec_at = np.concatenate([np.zeros(0, dtype=np.intp), *at])
        self.svec_scale = np.concatenate([np.zeros(0), *scales])
        self.XS = np.broadcast_to(self.eye, (2, B, L)).copy()
        self.C, self.BETA, self.Rd = np.ones((3, B, L))
        for blk, C, BETA, b in zip(self.blocks, self.split(self.C), self.split(self.BETA),
                                   self.beta.T):
            C[...] = blk.C
            BETA[...] = b[:, None, None]
        self.C[:, -1] = self.cap.c
        self.views()

    def split(self, A: np.ndarray) -> list:
        """The views of every block's matrices in A (..., B, L), each
        (... B, s, s) with the leading axes merged."""
        return [A[..., a:b].reshape(-1, s, s) for a, b, s in self.spans]

    def views(self) -> None:
        """The per-iteration arrays of the problems that run, the views of
        every block's matrices in them, in XS and in C, and the index of the
        nonzeros: (k, position, value) of every block's F_k and of the cap's
        f, block by block and then the cap, each in its stack's order, and
        the ends of each block's part."""
        B, d = self.y.shape
        L = self.XS.shape[-1]
        # the step's scaled dual residuals, correction and Newton right-hand
        # side, whose arrays the check takes for beta X, Z and F(x) first;
        # (dX, dS), (dXhat, dShat) and the scaled directions of the step length
        self.GRG, self.corr, self.R = self.BX, self.Zs, self.Fx = np.empty((3, B, L))
        self.dXS, self.dh, self.E = np.empty((3, 2, B, L))
        split = self.split
        self.XS_b, self.Rd_b, self.GRG_b, self.corr_b, self.R_b, self.E_b = (
            split(a) for a in (self.XS, self.Rd, self.GRG, self.corr, self.R, self.E))
        self.BX_b, self.Zs_b, self.Fx_b = self.GRG_b, self.corr_b, self.R_b
        self.dX_b, self.dS_b, self.dXh_b, self.dSh_b = (
            split(a) for a in (*self.dXS, *self.dh))
        for blk, C in zip(self.blocks, split(self.C)):
            blk.C = C
        ks, pos, vs = [], [], []
        for blk, (a, b, _) in zip(self.blocks, self.spans):
            st = blk.lmi
            ks.append(st._k)
            pos.append(st._flat + (st._k // d) * (L - (b - a)) + a)
            vs.append(st._v)
        p, k = np.nonzero(self.cap.f)
        ks.append(p * d + k)
        pos.append(p * L + L - 1)
        vs.append(self.cap.f[p, k])
        self.ends = np.cumsum([0] + [len(v) for v in vs]).tolist()
        self.index_k, self.index_pos, self.index_v = (np.concatenate(a) for a in (ks, pos, vs))

    def linear(self, y: np.ndarray) -> np.ndarray:
        """sum_k y_k F_k of every block and of the cap, packed (B, L)."""
        B, L = len(y), self.XS.shape[-1]
        return np.bincount(self.index_pos, weights=self.index_v * y.reshape(-1)[self.index_k],
                           minlength=B * L).reshape(B, L)

    def adjoint(self, Z: np.ndarray) -> np.ndarray:
        """sum_b (<F_k, Z_b>)_k of packed Z (B, L), (B, d): each block's
        adjoint as ``_Stack.adjoint`` forms it, summed over the blocks."""
        B, d = self.y.shape
        w = self.index_v * Z.reshape(-1)[self.index_pos]
        ends, k = self.ends, self.index_k
        return sum(np.bincount(k[a:b], weights=w[a:b], minlength=B * d).reshape(B, d)
                   for a, b in zip(ends[:-2], ends[1:-1]))

    def sums(self, P: np.ndarray) -> np.ndarray:
        """The sum of the entries of each block's matrix in packed P (B, L),
        summed over the blocks, then the cap's entry."""
        return sum(P[:, a:b].sum(axis=1) for a, b, _ in self.spans) + P[:, -1]

    def keep(self, mask: np.ndarray) -> None:
        """Drop the problems where ``mask`` is False."""
        for name in self._VIEWS:
            delattr(self, name)
        self.runs = [run for run, k in zip(self.runs, mask) if k]
        for name in self._ROWS:
            setattr(self, name, getattr(self, name)[mask])
        # C order, so that each block's view of it is a view, not a copy
        self.XS = np.ascontiguousarray(self.XS[:, mask])
        for blk in self.blocks:
            blk.keep(mask)
        self.cap.keep(mask)
        # overwritten before it is read, as U
        self.M = self.M[:len(self.y)]
        self.user = [ub.keep(mask) for ub in self.user]
        self.views()

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
        cap, tau, kappa, y = self.cap, self.tau, self.kappa, self.y
        X, S = self.XS
        self.Rp = self.adjoint(X) + cap.f * X[:, -1, None] - self.b_vec * tau[:, None]
        np.subtract(self.linear(y) + S, self.C * tau[:, None], out=self.Rd)
        self.Rg = self.sums(self.C * X) - np.vecdot(self.b_vec, y) + kappa
        self.mu = (self.sums(X * S) + tau * kappa) / (self.nu + 1)

        np.multiply(self.BETA, X, out=self.BX)
        ray_Z, ray_q, ray_ok = ray_test(self.user, self.BX_b, self.c)
        interior = tau > 1e-14 * np.maximum(1.0, np.abs(X).max(axis=1))
        # the original-space report of every problem, with tau replaced by 1
        # where it has collapsed; those reports are not read
        t = np.where(interior, tau, 1.0)
        x_orig = self.gamma * (y / t[:, None])
        np.divide(self.BX, (t * self.s_obj)[:, None], out=self.Zs)
        # Rd = F(y) + S - C tau in scaled data, so F(x) = (Rd - S) / (tau beta)
        np.divide(self.Rd - S, t[:, None] * self.BETA, out=self.Fx)
        primal, dual, gap, p_obj = _residuals(self.user, self.c, x_orig, self.Fx_b, self.Zs_b)
        done = np.zeros(len(self.runs), dtype=bool)
        for i, run in enumerate(self.runs):
            report = None
            if interior[i]:
                report = (x_orig[i], [Z[i] for Z in self.Zs_b],
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

    def nt_failures(self, factors: list, lam: np.ndarray) -> dict:
        """{position: message} of every problem whose NT scaling failed: its
        first failure in the order block 0's Cholesky factors of X and S, its
        SVD and its eigenvalues, block 1's, ..., then the cap's x and s and
        its lam."""
        B = len(lam)
        failed = {}
        for L, a, (_, _, s) in zip(factors, self.first, self.spans):
            sv = lam[:, a:a + s]
            nan = np.isnan(L).any(axis=(1, 2))
            for mask, message in (
                    (nan[:B] | nan[B:], "Matrix is not positive definite"),
                    (np.isnan(sv).any(axis=1), "SVD did not converge"),
                    (~((sv[:, -1] > 0) & np.isfinite(sv).all(axis=1)), "degenerate NT scaling")):
                for i in np.flatnonzero(mask).tolist():
                    failed.setdefault(i, f"NT scaling failed: {message}")
        X, S = self.XS[..., -1]
        for mask, message in ((~((X > 0) & (S > 0)), "Matrix is not positive definite"),
                              (~((lam[:, -1] > 0) & np.isfinite(lam[:, -1])),
                               "degenerate NT scaling")):
            for i in np.flatnonzero(mask).tolist():
                failed.setdefault(i, f"NT scaling failed: {message}")
        return failed

    def nt_scaling(self) -> dict:
        """The Nesterov-Todd scaling of every block and of the cap, and what
        the Newton solves and the step lengths take from it, packed: (lam_i +
        lam_j)/2 (``lam_avg``), -lam^2 I (``neg_lam2``), 1/sqrt(lam_i) and
        1/sqrt(lam_j) (``isqrt_i``, ``isqrt_j``).  On a breakdown nothing is
        set, and the result maps the position of each problem that broke
        down to its message (``nt_failures``), as ``step`` reports it."""
        B = len(self.y)
        # per block the factors of X and S in one call, and the SVD of Ls'Lx,
        # whose singular values go to the row of eigenvalues; the cap's lam is
        # sqrt(s) sqrt(x).  A slice that LAPACK fails on comes out NaN, and so
        # do the singular values it reaches
        lam = np.empty((B, self.first[-1] + 1))
        factors, Vts = [], []
        with np.errstate(invalid="ignore"):
            for XS, a, (_, _, s) in zip(self.XS_b, self.first, self.spans):
                L = cholesky(XS)
                Vts.append(svd(L[B:].mT @ L[:B], out=(None, lam[:, a:a + s], None))[2])
                factors.append(L)
            X, S = self.XS[..., -1]
            lx = np.sqrt(X)
            np.multiply(np.sqrt(S), lx, out=lam[:, -1])
        # the singular values are nonnegative, so this holds if every one is
        # positive and none is inf or nan
        if not (lam.min() > 0 and lam.max() < np.inf):
            return self.nt_failures(factors, lam)
        root = np.sqrt(lam)
        for blk, L, Vt, a in zip(self.blocks, factors, Vts, self.first):
            blk.set_scaling(L[:B] @ (Vt.mT / root[:, None, a:a + blk.size]))
        lam_isqrt = 1.0 / root
        self.cap.set_scaling(lx, lam_isqrt[:, -1])
        lam_i, lam_j = self.lam_i, self.lam_j
        self.isqrt_i, self.isqrt_j = lam_isqrt[:, lam_i], lam_isqrt[:, lam_j]
        self.lam_avg = (lam[:, lam_i] + lam[:, lam_j]) / 2.0
        self.neg_lam2 = (-(lam ** 2))[:, lam_i] * self.eye
        return {}

    def step(self) -> dict:
        """One predictor-corrector step of every problem.  On a breakdown nothing
        changes, and the result maps the position of each problem that broke
        down to its message."""
        blocks, cap, tau, kappa, b_vec = self.blocks, self.cap, self.tau, self.kappa, self.b_vec
        Rp, Rg, mu = self.Rp, self.Rg, self.mu
        B, d = self.y.shape

        failed = self.nt_scaling()
        if failed:
            return failed
        lam_avg, neg_lam2 = self.lam_avg, self.neg_lam2

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

        def congruence(R, R_b, out, out_b, transpose: bool) -> None:
            """out = sym(G' R G), or sym(G R G') with ``transpose``, of every
            block and g R g of the cap, R and out packed, R_b and out_b their
            views."""
            for blk, Rb, Ob in zip(blocks, R_b, out_b):
                P = blk.G @ Rb @ blk.Gt if transpose else blk.Gt @ Rb @ blk.G
                np.add(P, P.mT, out=Ob)
            np.multiply(cap.g * R[:, -1], cap.g, out=out[:, -1])
            out *= self.half

        # the scaled dual residuals, G' Rd G, of both Newton solves
        GRG = self.GRG
        for blk, R, O in zip(blocks, self.Rd_b, self.GRG_b):
            np.matmul(blk.Gt @ R, blk.G, out=O)
        np.multiply(cap.g * self.Rd[:, -1], cap.g, out=GRG[:, -1])
        u_dir = cho_solve_each(g_vec + b_vec)
        # equals (q_cc - g'M^-1 g) + b'M^-1 b, nonnegative in exact arithmetic;
        # clamp away the cancellation noise that appears at convergence
        denom_const = np.maximum(q_cc - np.vecdot(g_vec - b_vec, u_dir), 0.0)
        # the same for both Newton solves, so only the predictor can break down
        denominator = kappa + tau * denom_const
        broken = (denominator <= 0) | ~np.isfinite(denominator)
        if broken.any():
            return _broken(broken, "singular reduced system (predictor)")

        def newton(eta, sigma_mu, corr, r_tk):
            """One Newton solve of the reduced systems: (dX, dS) into ``dXS``
            and (dXhat, dShat) into ``dh``; returns dy, dtau and dkappa."""
            Rhat = neg_lam2
            if sigma_mu is not None:
                # a zero sigma_mu is not added, which leaves -0.0 off the diagonal
                shifted = Rhat + sigma_mu[:, None] * self.eye
                unshifted = sigma_mu == 0
                Rhat = np.where(unshifted[:, None], Rhat, shifted) if unshifted.any() else shifted
            if corr is not None:
                Rhat = Rhat - corr
            Qhat = Rhat / lam_avg
            R = np.add(Qhat, eta[:, None] * GRG, out=self.R)
            anorm = np.zeros((B, d))
            cdot = np.zeros(B)
            # svec of every Gram-form block's R in one pass, as ``svec`` forms it
            rsv = R.take(self.svec_at, axis=1) * self.svec_scale
            for blk, Rb, part in zip(blocks, self.R_b, self.svec_parts):
                a_b, c_b = (blk.pull_back(Rb) if part is None
                            else blk.pull_back_svec(rsv[:, part[0]:part[1]]))
                anorm += a_b
                cdot += c_b
            anorm += cap.u * R[:, -1, None]
            cdot += cap.chat * R[:, -1]
            v_dir = cho_solve_each(-eta[:, None] * Rp - anorm)
            dtau = (r_tk - tau * (-eta * Rg - cdot - np.vecdot(g_vec - b_vec, v_dir))) / denominator
            dy = v_dir + u_dir * dtau[:, None]
            dkappa = (r_tk - kappa * dtau) / tau
            (dX, dS), (dXh, dSh) = self.dXS, self.dh
            np.add(-eta[:, None] * self.Rd - self.linear(dy), self.C * dtau[:, None], out=dS)
            congruence(dS, self.dS_b, dSh, self.dSh_b, False)
            np.subtract(Qhat, dSh, out=dXh)
            congruence(dXh, self.dXh_b, dX, self.dX_b, True)
            return dy, dtau, dkappa

        def max_step(dtau, dkappa):
            # -1/w for the most negative eigenvalue w is the smallest -1/w of
            # all, because rounding keeps 1/w monotone
            E = np.multiply(self.isqrt_i * self.dh, self.isqrt_j, out=self.E)
            w = np.zeros(B)
            with np.errstate(invalid="ignore"):
                for Eb in self.E_b:
                    # both directions in one call
                    e = eigvalsh(Eb)[:, 0]
                    w = np.minimum(w, np.minimum(e[:B], e[B:]))
            w = np.minimum(w, np.minimum(E[0, :, -1], E[1, :, -1]))
            # the step at which 1 + a w, tau + a dtau or kappa + a dkappa reaches
            # 0; a slice that LAPACK failed on has NaN eigenvalues, and its
            # problem's step is NaN
            v, dv = np.array([np.ones(B), tau, kappa]), np.array([w, dtau, dkappa])
            down = dv < 0
            step = np.where(down, -v / np.where(down, dv, -1.0), np.inf).min(axis=0)
            return np.where(np.isnan(w), np.nan, step)

        _, dtau_a, dkap_a = newton(np.ones(B), None, None, -tau * kappa)
        a_aff = np.minimum(1.0, max_step(dtau_a, dkap_a))
        XS_a = self.XS + a_aff[:, None] * self.dXS
        mu_aff = (self.sums(XS_a[0] * XS_a[1])
                  + (tau + a_aff * dtau_a) * (kappa + a_aff * dkap_a)) / (self.nu + 1)
        # Python's float power: numpy's vectorized power may round an element
        # differently depending on where it sits in the array
        sigma = np.array([min(1.0, max(0.0, r)) ** 3 for r in (mu_aff / mu).tolist()])

        # the predictor's corrector term; the corrector's directions then take
        # the predictor's arrays
        corr = self.corr
        for dXh, dSh, O in zip(self.dXh_b, self.dSh_b, self.corr_b):
            P = dXh @ dSh
            np.add(P, P.mT, out=O)
        np.multiply(self.dh[0, :, -1], self.dh[1, :, -1], out=corr[:, -1])
        corr *= self.half
        r_tk = sigma * mu - tau * kappa - dtau_a * dkap_a
        dy_c, dtau_c, dkap_c = newton(1.0 - sigma, sigma * mu, corr, r_tk)
        alpha = np.minimum(1.0, STEP_FRACTION * max_step(dtau_c, dkap_c))
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
        self.XS += alpha[:, None] * self.dXS
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
