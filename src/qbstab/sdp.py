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
original problem data before the status is reported.

The solver is deterministic: identical inputs and configuration produce
identical iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .lmi import LmiBlock, SdpProblem, svec

__all__ = [
    "SolverConfig",
    "SdpSolution",
    "BlockFeasibilityReport",
    "solve",
    "kkt_residuals",
    "check_block_feasibility",
]

# fraction of the distance to the cone boundary taken by each corrector step
STEP_FRACTION = 0.98
# largest d s(s+1)/2 for which a block always forms its Schur share in Gram form
GRAM_MAX = 10_000
# a larger block takes the W form only if d s(s+1)/2 is this many times its nonzeros
W_MIN_SPARSITY = 32
# the tolerances of ``SdpSolution.relaxed`` are this many times the configured ones
RELAX_FACTOR = 10.0


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration limits for the embedded solver.

    ``objective_box`` caps c'x from above through a hidden scalar block so
    that problems with unbounded objective still terminate cleanly; set it
    to None to disable.  Ruiz-style block scaling (fixed 10 sweeps) is
    always applied before solving, and every solve keeps its per-iteration
    log in ``SdpSolution.history``.
    """

    feas_tol: float = 1e-8
    gap_tol: float = 1e-8
    max_iters: int = 200
    objective_box: float | None = 1e8

    def __post_init__(self):
        if not (0 < self.feas_tol < np.inf and 0 < self.gap_tol < np.inf):
            raise ValueError("tolerances must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SdpSolution:
    """Solver output.

    ``status`` is one of Optimal, Infeasible, NumericalFailure, IterLimit.
    At Optimal, ``x`` is the maximizing decision vector and ``Z`` holds one
    PSD dual matrix per block.  At Infeasible, ``Z`` holds the normalized
    improving-ray certificate (<F0, Z> = 1).  ``history`` holds one
    (mu, primal residual, dual residual, step length) tuple per completed
    interior-point step.

    ``relaxed`` is the Optimal or Infeasible solution at the first iterate
    that passed a test only with tolerances ``RELAX_FACTOR`` times looser,
    else None.  Tolerances never change an iterate, so after NumericalFailure
    or IterLimit it is what a re-solve with those tolerances would return.
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
    relaxed: SdpSolution | None = None


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
    lams = tuple(_lambda_max(blk.evaluate(x)) for blk in problem.blocks)
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
    Fx = [blk.evaluate(x) for blk in problem.blocks]
    return _residuals(problem.blocks, np.asarray(problem.c, dtype=float), x, Fx, solution.Z)


def _lambda_max(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_sym(M))[-1])


def _residuals(blocks, c, x, Fx, Z) -> tuple[float, float, float]:
    """(primal, dual, gap) of ``kkt_residuals``, given Fx[b] = F0_b + sum_k x_k F_k_b."""
    primal = 0.0
    dual_vec = -c
    dual_obj = 0.0
    for blk, Fxb, Zb in zip(blocks, Fx, Z):
        f0_norm = float(np.linalg.norm(blk.F0, "fro"))
        primal = max(primal, max(0.0, _lambda_max(Fxb)) / (1.0 + f0_norm))
        dual_vec = dual_vec + blk.adjoint(Zb)
        dual_obj += float(np.sum(-blk.F0 * Zb))
    dual = float(np.max(np.abs(dual_vec))) / (1.0 + float(np.max(np.abs(c), initial=0.0)))
    p_obj = float(c @ x)
    gap = abs(p_obj - dual_obj) / (1.0 + abs(p_obj) + abs(dual_obj))
    return primal, dual, gap


# --------------------------------------------------------------------------
# the interior-point solver
# --------------------------------------------------------------------------


class _Block:
    """A scaled LMI block and its per-iteration NT quantities.

    The block's share of the Schur complement, (<G'F_kG, G'F_lG>)_kl, is
    formed in one of two ways, chosen by size and sparsity, both from
    ``LmiBlock.congruence`` and so with no dense copy of F.  The Gram form
    forms U U' from the rows U_k = svec(G'F_kG), d^2 s(s+1)/4 multiply-adds
    in one BLAS call.  It is symmetric positive semidefinite as computed and
    consistent with the right-hand sides taken from the same U, so every
    block whose U has at most ``GRAM_MAX`` entries uses it; there both forms
    take tens of microseconds.  The W form, ``LmiBlock.schur`` with
    W = G G', costs d s^2 r plus the nonzeros of F times d, the latter
    through a sparse product.  A larger block uses it only when U has at
    least ``W_MIN_SPARSITY`` times as many entries as F has nonzeros.  Stacked
    systems are far past that (330 to 420 at n = 40, where the W form takes
    0.14 to 0.26 of the Gram form's time); a dense A and H are not (about 2,
    where it takes 3.2 to 3.5 times as long at n = 15 to 30).
    """

    __slots__ = ("lmi", "C", "size", "X", "S", "G", "lam", "Chat", "U", "W")

    def __init__(self, lmi: LmiBlock):
        self.lmi = lmi
        self.C = -lmi.F0
        self.size = lmi.size
        self.X = np.eye(self.size)
        self.S = np.eye(self.size)
        full = lmi.d * self.size * (self.size + 1) // 2
        gram = full <= GRAM_MAX or full < W_MIN_SPARSITY * lmi.nnz
        # column-major, as svec returns it, so that U U' takes the same BLAS path
        self.U = np.empty((lmi.d, full // lmi.d), order="F") if gram else None

    def set_scaling(self, G: np.ndarray, lam: np.ndarray) -> None:
        self.G, self.lam = G, lam
        self.Chat = G.T @ self.C @ G
        if self.U is not None:
            for ks, GFG in self.lmi.congruence(G.T, G):
                self.U[ks] = svec(GFG)
        else:
            self.W = G @ G.T

    def schur(self) -> tuple[np.ndarray, np.ndarray, float]:
        """(M_b, g_b, q_b): the Schur share, F*(G Chat G') and |Chat|_F^2."""
        if self.U is not None:
            csv = svec(self.Chat)
            return self.U @ self.U.T, self.U @ csv, float(csv @ csv)
        return (self.lmi.schur(self.W), self.lmi.adjoint(self.G @ self.Chat @ self.G.T),
                float(np.sum(self.Chat * self.Chat)))

    def pull_back(self, R: np.ndarray) -> tuple[np.ndarray, float]:
        """(F*(G R G'), <Chat, R>) for a symmetric R in the scaled space."""
        if self.U is not None:
            rsv = svec(R)
            return self.U @ rsv, float(svec(self.Chat) @ rsv)
        return self.lmi.adjoint(self.G @ R @ self.G.T), float(np.sum(self.Chat * R))


def _sym(M: np.ndarray) -> np.ndarray:
    return (M + M.T) / 2.0


def _ruiz_scale(blocks, c, sweeps: int = 10):
    """Ruiz-style scaling: scaled copies of ``blocks``, variable scales gamma
    and block scales beta."""
    d = c.shape[0]
    gamma = np.ones(d)
    beta = np.ones(len(blocks))
    F0s = [np.array(blk.F0, dtype=float) for blk in blocks]
    vals = [np.array(blk.vals, dtype=float) for blk in blocks]
    for _ in range(sweeps):
        r = np.zeros(d)
        for V in vals:
            r = np.maximum(r, np.abs(V).max(axis=(1, 2)))
        g = 1.0 / np.sqrt(np.where(r > 0, r, 1.0))
        for V in vals:
            V *= g[:, None, None]
        gamma *= g
        for b, (F0, V) in enumerate(zip(F0s, vals)):
            s = max(float(np.abs(F0).max()), float(np.abs(V).max()))
            sb = 1.0 / np.sqrt(s) if s > 0 else 1.0
            F0 *= sb
            V *= sb
            beta[b] *= sb
    scaled = [LmiBlock(F0=F0, rows=blk.rows, vals=V) for F0, V, blk in zip(F0s, vals, blocks)]
    return scaled, gamma, beta


def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve the block-LMI maximization.  See module docstring for the contract."""
    if config is None:
        config = SolverConfig()
    d = problem.d
    c = np.asarray(problem.c, dtype=float).reshape(-1)
    scaled, gamma, beta = _ruiz_scale(problem.blocks, c)

    c_sc = gamma * c
    s_obj = 1.0 / max(1.0, float(np.max(np.abs(c_sc), initial=0.0)))
    c_sc = c_sc * s_obj

    if config.objective_box is not None:
        # hidden cap c'x <= objective_box, in scaled variables, row-normalized
        boxval = s_obj * config.objective_box
        rownorm = max(1.0, float(np.max(np.abs(c_sc), initial=0.0)), abs(boxval))
        scaled.append(LmiBlock(F0=np.array([[-boxval / rownorm]]),
                               rows=np.zeros((d, 1), dtype=int),
                               vals=(c_sc / rownorm).reshape(d, 1, 1)))

    # the user blocks come first; zip with beta skips the cap
    blocks = [_Block(lmi) for lmi in scaled]
    b_vec = c_sc
    nu = sum(blk.size for blk in blocks)

    y = np.zeros(d)
    tau, kappa = 1.0, 1.0

    history = []
    status, message = "IterLimit", ""
    x_best = np.zeros(d)
    Z_best = [np.zeros_like(blk.F0) for blk in problem.blocks]
    resid_best = (np.inf, np.inf, np.inf)
    obj_best = float("nan")
    obj_max_seen = -np.inf
    iters_done = 0
    relaxed = None
    feas_loose, gap_loose = RELAX_FACTOR * config.feas_tol, RELAX_FACTOR * config.gap_tol
    ray_scale = max(1.0, float(np.max(np.abs(c), initial=0.0)))

    def unscale_report(Rd):
        """Original-space (x, Z, residuals, objective) for the current iterate."""
        x_orig = gamma * (y / tau)
        Zs = [b * blk.X / (tau * s_obj) for blk, b in zip(blocks, beta)]
        # Rd = F(y) + S - C tau in scaled data, so F(x) = (Rd - S) / (tau beta)
        Fx = [(R - blk.S) / (tau * b) for R, blk, b in zip(Rd, blocks, beta)]
        resid = _residuals(problem.blocks, c, x_orig, Fx, Zs)
        return x_orig, Zs, resid, float(c @ x_orig)

    for it in range(config.max_iters):
        iters_done = it + 1
        # The homogeneous model is invariant under positive scaling of the
        # whole iterate; renormalize when it drifts (infeasible problems push
        # the ray components to grow while tau -> 0).
        big = max(tau, kappa, max(float(np.abs(blk.X).max()) for blk in blocks),
                  max(float(np.abs(blk.S).max()) for blk in blocks),
                  float(np.max(np.abs(y), initial=0.0)))
        if big > 1e4:
            y /= big
            tau /= big
            kappa /= big
            for blk in blocks:
                blk.X = blk.X / big
                blk.S = blk.S / big

        Rp = sum(blk.lmi.adjoint(blk.X) for blk in blocks) - b_vec * tau
        Rd = [blk.lmi.linear(y) + blk.S - blk.C * tau for blk in blocks]
        CX = sum(float(np.sum(blk.C * blk.X)) for blk in blocks)
        Rg = CX - float(b_vec @ y) + kappa
        mu = (sum(float(np.sum(blk.X * blk.S)) for blk in blocks) + tau * kappa) / (nu + 1)

        ray_Z, ray_q = _ray_certificate(problem.blocks, blocks, beta)
        if ray_Z is not None and ray_q <= feas_loose * ray_scale:
            ray_message = f"improving ray with max |<F_k, Z>| = {ray_q:.2e}"
            if ray_q <= config.feas_tol * ray_scale:
                status, message, Z_best = "Infeasible", ray_message, ray_Z
                resid_best, obj_best = (0.0, 0.0, 0.0), float("nan")
                break
            if relaxed is None:
                relaxed = SdpSolution("Infeasible", x_best, ray_Z, float("nan"), 0.0, 0.0, 0.0,
                                      it + 1, ray_message, list(history))

        iterate_scale = max(float(np.abs(blk.X).max()) for blk in blocks)
        if tau > 1e-14 * max(1.0, iterate_scale):
            x_orig, Zs, resid, p_obj = unscale_report(Rd)
            if np.isfinite(p_obj):
                obj_max_seen = max(obj_max_seen, p_obj)
            if (resid[0] <= config.feas_tol and resid[1] <= config.feas_tol
                    and resid[2] <= config.gap_tol):
                status, message = "Optimal", ""
                x_best, Z_best, resid_best, obj_best = x_orig, Zs, resid, p_obj
                break
            if (relaxed is None and resid[0] <= feas_loose and resid[1] <= feas_loose
                    and resid[2] <= gap_loose):
                relaxed = SdpSolution("Optimal", x_orig, Zs, p_obj, *resid, it + 1,
                                      history=list(history))
            if max(resid) < max(resid_best):
                x_best, Z_best, resid_best, obj_best = x_orig, Zs, resid, p_obj
        else:
            resid = resid_best

        # Nesterov-Todd scaling point per block
        try:
            for blk in blocks:
                Lx = np.linalg.cholesky(blk.X)
                Ls = np.linalg.cholesky(blk.S)
                _, sv, Vt = np.linalg.svd(Ls.T @ Lx)
                if sv[-1] <= 0 or not np.all(np.isfinite(sv)):
                    raise np.linalg.LinAlgError("degenerate NT scaling")
                blk.set_scaling(Lx @ (Vt.T / np.sqrt(sv)), sv)
        except np.linalg.LinAlgError as exc:
            status, message = "NumericalFailure", f"NT scaling failed: {exc}"
            break

        # an NT scaling that overflows shows up here; it is reported below
        with np.errstate(over="ignore", invalid="ignore"):
            M, g_vec, q_cc = blocks[0].schur()
            for blk in blocks[1:]:
                M_b, g_b, q_b = blk.schur()
                M += M_b
                g_vec += g_b
                q_cc += q_b
        if not (np.all(np.isfinite(M)) and np.all(np.isfinite(g_vec)) and np.isfinite(q_cc)):
            status, message = "NumericalFailure", "Schur complement not finite"
            break
        factor = None
        ridge = 0.0
        for _ in range(3):
            try:
                factor = cho_factor(M if ridge == 0 else M + ridge * np.eye(d), lower=True)
                break
            except np.linalg.LinAlgError:
                ridge = max(ridge * 100.0, 1e-14 * max(1.0, float(np.trace(M)) / d))
        if factor is None:
            status, message = "NumericalFailure", "Schur complement not positive definite"
            break
        u_dir = cho_solve(factor, g_vec + b_vec)
        # equals (q_cc - g'M^-1 g) + b'M^-1 b, nonnegative in exact arithmetic;
        # clamp away the cancellation noise that appears at convergence
        denom_const = max(q_cc - float((g_vec - b_vec) @ u_dir), 0.0)

        def newton(eta, sigma_mu, corr_blocks, r_tk):
            """One Newton solve of the reduced system; None on breakdown."""
            Qhats = []
            anorm = np.zeros(d)
            cdot = 0.0
            for bi, blk in enumerate(blocks):
                lam = blk.lam
                Rhat = -np.diag(lam ** 2)
                if sigma_mu:
                    Rhat = Rhat + sigma_mu * np.eye(blk.size)
                if corr_blocks is not None:
                    Rhat = Rhat - corr_blocks[bi]
                Qhat = Rhat / ((lam[:, None] + lam[None, :]) / 2.0)
                Qhats.append(Qhat)
                a_b, c_b = blk.pull_back(Qhat + eta * (blk.G.T @ Rd[bi] @ blk.G))
                anorm += a_b
                cdot += c_b
            v_dir = cho_solve(factor, -eta * Rp - anorm)
            denominator = kappa + tau * denom_const
            if denominator <= 0 or not np.isfinite(denominator):
                return None
            dtau = (r_tk - tau * (-eta * Rg - cdot - float((g_vec - b_vec) @ v_dir))) / denominator
            dy = v_dir + u_dir * dtau
            dkappa = (r_tk - kappa * dtau) / tau
            dS, dX, dXh, dSh = [], [], [], []
            for bi, blk in enumerate(blocks):
                dSb = _sym(-eta * Rd[bi] - blk.lmi.linear(dy) + blk.C * dtau)
                dSh_b = _sym(blk.G.T @ dSb @ blk.G)
                dXh_b = _sym(Qhats[bi] - dSh_b)
                dXb = _sym(blk.G @ dXh_b @ blk.G.T)
                dS.append(dSb)
                dX.append(dXb)
                dXh.append(dXh_b)
                dSh.append(dSh_b)
            return dy, dS, dX, dXh, dSh, dtau, dkappa

        def max_step(dXh, dSh, dtau, dkappa):
            amax = np.inf
            for bi, blk in enumerate(blocks):
                lam_h = 1.0 / np.sqrt(blk.lam)
                for D in (dXh[bi], dSh[bi]):
                    w = float(np.linalg.eigvalsh(lam_h[:, None] * D * lam_h[None, :])[0])
                    if w < 0:
                        amax = min(amax, -1.0 / w)
            if dtau < 0:
                amax = min(amax, -tau / dtau)
            if dkappa < 0:
                amax = min(amax, -kappa / dkappa)
            return amax

        aff = newton(1.0, 0.0, None, -tau * kappa)
        if aff is None:
            status, message = "NumericalFailure", "singular reduced system (predictor)"
            break
        _, dS_a, dX_a, dXh_a, dSh_a, dtau_a, dkap_a = aff
        a_aff = min(1.0, max_step(dXh_a, dSh_a, dtau_a, dkap_a))
        ip = sum(float(np.sum((blk.X + a_aff * dX_a[bi]) * (blk.S + a_aff * dS_a[bi])))
                 for bi, blk in enumerate(blocks))
        mu_aff = (ip + (tau + a_aff * dtau_a) * (kappa + a_aff * dkap_a)) / (nu + 1)
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3

        corr = [_sym(dXh_a[bi] @ dSh_a[bi]) for bi in range(len(blocks))]
        r_tk = sigma * mu - tau * kappa - dtau_a * dkap_a
        comb = newton(1.0 - sigma, sigma * mu, corr, r_tk)
        if comb is None:
            status, message = "NumericalFailure", "singular reduced system (corrector)"
            break
        dy_c, dS_c, dX_c, dXh_c, dSh_c, dtau_c, dkap_c = comb
        alpha = min(1.0, STEP_FRACTION * max_step(dXh_c, dSh_c, dtau_c, dkap_c))
        if alpha < 1e-13 or not np.isfinite(alpha):
            status, message = "NumericalFailure", "step length collapsed"
            break

        y = y + alpha * dy_c
        tau += alpha * dtau_c
        kappa += alpha * dkap_c
        for bi, blk in enumerate(blocks):
            blk.X = _sym(blk.X + alpha * dX_c[bi])
            blk.S = _sym(blk.S + alpha * dS_c[bi])
        if not (np.isfinite(tau) and tau > 0 and np.isfinite(kappa) and kappa > 0):
            status, message = "NumericalFailure", "tau/kappa left the cone"
            break
        history.append((mu, resid[0], resid[1], alpha))

    if status == "IterLimit":
        message = f"no convergence in {config.max_iters} iterations"
    if (status in ("IterLimit", "NumericalFailure") and config.objective_box is not None
            and np.isfinite(obj_max_seen) and obj_max_seen >= 0.5 * config.objective_box):
        message += ("; objective reached the internal objective_box cap "
                    "(problem unbounded above?)")
    objective = obj_best if status != "Infeasible" else float("nan")
    return SdpSolution(status, x_best, Z_best, objective, *resid_best, iters_done, message,
                       history, relaxed)


def _ray_certificate(user_blocks, blocks, beta):
    """The current iterate as a candidate improving ray: (Z, eta), Z None if unfit.

    The candidate ray is normalized to unit total trace, then checked on the
    original data:  eta = max_k |sum_b <F_k, Z_b>|  must be below a fixed
    fraction of  phi = sum_b <F0_b, Z_b> >= 1e-10, and the caller accepts it
    when eta is also below its tolerance times max(1, |c|_inf).  Such a
    certificate proves there is no feasible point with |x|_1 < phi/eta, so
    the ratio guard (1e-5) rules out false positives for any problem whose
    feasible set lives at sane magnitudes.
    """
    Zs = [b * blk.X for blk, b in zip(blocks, beta)]
    total = sum(float(np.trace(Z)) for Z in Zs)
    if not np.isfinite(total) or total <= 0:
        return None, np.inf
    Zs = [Z / total for Z in Zs]
    phi = sum(float(np.sum(ub.F0 * Z)) for ub, Z in zip(user_blocks, Zs))
    if not np.isfinite(phi) or phi < 1e-10:
        return None, np.inf
    Ag = sum(ub.adjoint(Z) for ub, Z in zip(user_blocks, Zs))
    eta = float(np.max(np.abs(Ag), initial=0.0))
    return (Zs if eta <= 1e-5 * phi else None), eta
