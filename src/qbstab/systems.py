"""Quadratic-bilinear (QB) system containers and transformations.

A QB system is

    dx/dt = A x + H (x kron x) + sum_j D_j x u_j + B u

with state x in R^n and input u in R^m.  The quadratic coefficient matrix
H is n-by-n^2; its column i*n + j (0-based) multiplies the monomial
x_i * x_j, so the i-th n-by-n block of H (the blockwise H_i) is
``H[:, i*n:(i+1)*n]``.  H is kept symmetric in the Kronecker sense,
H(x1 kron x2) = H(x2 kron x1), which leaves the dynamics unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EquilibriumError, SchemaError

__all__ = [
    "QBSystem",
    "ValidationReport",
    "symmetrize_quadratic",
    "symmetry_defect",
    "validate",
    "eval_dynamics",
    "shift_equilibrium",
    "close_loop",
    "stack",
    "system_from_dict",
    "system_to_dict",
    "load_system",
    "save_system",
]


def _as_matrix(value, rows: int, cols: int, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (rows, cols):
        raise DimensionError(f"{name} must be {rows}x{cols}, got {arr.shape}")
    return arr


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QBSystem:
    """Immutable coefficient container for a quadratic-bilinear system.

    Parameters
    ----------
    A : (n, n) array
        Linear drift.
    H : (n, n*n) array
        Quadratic coefficients in Kronecker column order (column i*n + j
        multiplies x_i*x_j, 0-based).
    B : (n, m) array, optional
        Input matrix.  Omit (or pass an n-by-0 array) for autonomous systems.
    D : sequence of (n, n) arrays, optional
        Bilinear coefficients, one matrix per input channel.

    Every coefficient must be finite; a ValueError names the first matrix
    that is not.
    """

    A: np.ndarray
    H: np.ndarray
    B: np.ndarray = field(default=None)
    D: tuple = ()

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise DimensionError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        H = _as_matrix(self.H, n, n * n, "H")
        B = self.B
        if B is None:
            B = np.zeros((n, 0))
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {B.shape}")
        m = B.shape[1]
        if m > n:
            raise DimensionError(f"need m <= n, got m={m}, n={n}")
        D = tuple(_as_matrix(Dj, n, n, f"D[{j}]") for j, Dj in enumerate(self.D))
        if len(D) != m:
            raise DimensionError(f"expected {m} bilinear matrices, got {len(D)}")
        for name, M in (("A", A), ("H", H), ("B", B), *((f"D[{j}]", Dj) for j, Dj in enumerate(D))):
            if not np.isfinite(M).all():
                raise ValueError(f"{name} must be finite")
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "H", _readonly(H))
        object.__setattr__(self, "B", _readonly(B))
        object.__setattr__(self, "D", tuple(_readonly(Dj) for Dj in D))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def is_autonomous(self) -> bool:
        return self.m == 0

    def h_tensor(self) -> np.ndarray:
        """H reshaped to (n, n, n): ``h_tensor()[a, i, j]`` multiplies x_i*x_j in row a."""
        n = self.n
        return self.H.reshape(n, n, n)

    def h_block(self, i: int) -> np.ndarray:
        """The i-th n-by-n block of H (0-based)."""
        n = self.n
        return self.H[:, i * n:(i + 1) * n]


@dataclass(frozen=True)
class ValidationReport:
    """Structural and spectral diagnostics for a QBSystem."""

    h_symmetric: bool
    max_symmetry_defect: float
    a_hurwitz: bool
    spectral_abscissa: float


def symmetrize_quadratic(H_raw: np.ndarray, n: int) -> np.ndarray:
    """Symmetrize a quadratic coefficient matrix without changing the dynamics.

    Averages column i*n + j with column j*n + i.  The result satisfies
    H(x1 kron x2) = H(x2 kron x1) and agrees with ``H_raw`` on x kron x.
    A mirrored pair whose sum overflows gives an infinite entry, which
    ``QBSystem`` rejects as not finite.
    """
    H_raw = np.asarray(H_raw, dtype=float)
    if H_raw.shape != (n, n * n):
        raise DimensionError(f"H must be {n}x{n * n}, got {H_raw.shape}")
    T = H_raw.reshape(n, n, n)
    with np.errstate(over="ignore"):
        return ((T + T.transpose(0, 2, 1)) / 2.0).reshape(n, n * n)


def symmetry_defect(H: np.ndarray, n: int) -> float:
    """Max absolute columnwise defect |H_i e_j - H_j e_i| of the symmetry
    property; inf where a difference overflows."""
    H = np.asarray(H, dtype=float)
    if H.shape != (n, n * n):
        raise DimensionError(f"H must be {n}x{n * n}, got {H.shape}")
    T = H.reshape(n, n, n)
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(T - T.transpose(0, 2, 1)))) if n > 0 else 0.0


def validate(sys: QBSystem) -> ValidationReport:
    """Check H symmetry and whether A is Hurwitz.

    Never raises on mathematically bad systems; everything is reported as
    flags.  The Hurwitz check is informational (LMI feasibility is the real
    certificate); the threshold on the spectral abscissa is exactly zero.
    """
    n = sys.n
    defect = symmetry_defect(sys.H, n)
    scale = 1.0 + float(np.max(np.abs(sys.H))) if sys.H.size else 1.0
    h_symmetric = defect <= 1e-10 * scale
    eigs = np.linalg.eigvals(sys.A)
    abscissa = float(np.max(eigs.real))
    return ValidationReport(
        h_symmetric=h_symmetric,
        max_symmetry_defect=defect,
        a_hurwitz=abscissa < 0.0,
        spectral_abscissa=abscissa,
    )


def _column_field(sys: QBSystem, buf: np.ndarray):
    """The field [A H] [x; x kron x] of the autonomous part of ``sys`` at the
    states in the columns of buf[:n], as a function of its output array: a
    call writes x kron x into buf[n:] (row n + i*n + j holds x_i x_j) and
    returns [A H] @ buf, (n, N)."""
    W = np.hstack((sys.A, sys.H))
    n, N = sys.n, buf.shape[1]
    x, xx = buf[:n], buf[n:].reshape(n, n, N)
    rows, cols = x[:, None, :], x[None, :, :]

    def field(out: np.ndarray | None = None) -> np.ndarray:
        np.multiply(rows, cols, out=xx)
        return np.matmul(W, buf, out=out)

    return field


def eval_dynamics(sys: QBSystem, x: np.ndarray, u: np.ndarray | None = None) -> np.ndarray:
    """Evaluate dx/dt = A x + H(x kron x) + sum_j D_j x u_j + B u.

    x is one state, shape (n,), or a batch of states, shape (N, n); u, when
    given, has the matching shape (m,) or (N, m).  Omitting u means u = 0.
    The autonomous part is ``_column_field``: the states as columns and
    [A H] [x; x kron x] as one product, the arithmetic of the RK4 audits.
    """
    n = sys.n
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != n:
        raise DimensionError(f"x must have shape ({n},) or (N, {n}), got {x.shape}")
    buf = np.empty((n + n * n, x.size // n))
    buf[:n] = x.reshape(-1, n).T
    f = _column_field(sys, buf)().T.reshape(x.shape)
    if u is None:
        return f
    u = np.asarray(u, dtype=float)
    if u.shape != x.shape[:-1] + (sys.m,):
        raise DimensionError(f"u must have shape {x.shape[:-1] + (sys.m,)}, got {u.shape}")
    f = f + u @ sys.B.T
    for j, Dj in enumerate(sys.D):
        f = f + (x @ Dj.T) * u[..., j, None]
    return f


def shift_equilibrium(sys: QBSystem, x_e: np.ndarray, tol: float | None = None) -> QBSystem:
    """Move a nonzero equilibrium of an autonomous system to the origin.

    For z = x - x_e the dynamics become dz/dt = A' z + H (z kron z) with
    A' = A + 2 H (I_n kron x_e).  Raises EquilibriumError when x_e is not an
    equilibrium within ``tol`` (default 1e-8 * (1 + |x_e|)).
    """
    if not sys.is_autonomous:
        raise DimensionError("shift_equilibrium requires an autonomous system (m = 0)")
    x_e = np.asarray(x_e, dtype=float).reshape(-1)
    if x_e.shape[0] != sys.n:
        raise DimensionError(f"x_e must have length {sys.n}")
    if tol is None:
        tol = 1e-8 * (1.0 + float(np.linalg.norm(x_e)))
    residual = float(np.linalg.norm(eval_dynamics(sys, x_e)))
    if not residual <= tol:
        raise EquilibriumError(
            f"x_e is not an equilibrium: residual {residual:.3e} exceeds tol {tol:.3e}"
        )
    T = sys.h_tensor()
    A_shift = sys.A + 2.0 * np.einsum("acs,s->ac", T, x_e)
    return QBSystem(A=A_shift, H=sys.H)


def close_loop(sys: QBSystem, K: np.ndarray) -> QBSystem:
    """Close the loop with u = K x, returning an autonomous quadratic system.

    A_cl = A + B K and H_cl is the symmetrized sum of H with the bilinear
    contribution sum_j D_j ((e_j^T K) kron I_n), so that the closed-loop
    vector field equals ``eval_dynamics(sys, x, K @ x)`` for every x.  A
    finite K whose products overflow gives a closed loop that ``QBSystem``
    rejects as not finite.
    """
    if sys.m < 1:
        raise DimensionError("close_loop requires at least one input (m >= 1)")
    K = _as_matrix(K, sys.m, sys.n, "K")
    with np.errstate(over="ignore", invalid="ignore"):
        A_cl = sys.A + sys.B @ K
        T = sys.h_tensor().copy()
        Dstack = np.stack(sys.D)  # (m, n, n)
        # D_j ((e_j^T K) kron I_n) adds K[j, i] * D_j[a, s] to the (a, i, s) entry.
        T += np.einsum("ji,jas->ais", K, Dstack)
        H_cl = symmetrize_quadratic(T.reshape(sys.n, sys.n * sys.n), sys.n)
    return QBSystem(A=A_cl, H=H_cl)


def stack(sys: QBSystem, k: int) -> QBSystem:
    """Replicate the system k times block-diagonally (independent copies).

    The stacked system has n' = k*n states and m' = k*m inputs; copy r
    evolves exactly like the original on its own state/input slice.
    """
    if k < 1:
        raise DimensionError(f"stack count must be >= 1, got {k}")
    if k == 1:
        return sys
    n, m = sys.n, sys.m
    N = k * n
    A_s = np.zeros((N, N))
    T_s = np.zeros((N, N, N))
    B_s = np.zeros((N, k * m))
    D_s = []
    T = sys.h_tensor()
    for r in range(k):
        sl = slice(r * n, (r + 1) * n)
        A_s[sl, sl] = sys.A
        T_s[sl, sl, sl] = T
        if m:
            B_s[sl, r * m:(r + 1) * m] = sys.B
            for j in range(m):
                Dj = np.zeros((N, N))
                Dj[sl, sl] = sys.D[j]
                D_s.append(Dj)
    return QBSystem(A=A_s, H=T_s.reshape(N, N * N), B=B_s, D=tuple(D_s))


# ---------------------------------------------------------------------------
# JSON serialization.  Schema:
#   {"n": int, "m": int, "A": [[...]], "H": [[...]] | {"triplets": [[row, i, j, value], ...]},
#    "B": [[...]], "D": [[[...]], ...]}
# Indices in triplets are 0-based; the (row, i, j) triplet sets the
# coefficient of x_i*x_j in equation `row` (column i*n + j of dense H).
# H may be supplied unsymmetrized; the loader symmetrizes it and returns the
# pre-symmetrization defect alongside the system.
# ---------------------------------------------------------------------------


def _holds_bool(value) -> bool:
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(v) for v in value)
    return isinstance(value, bool)


def _finite_array(value, name: str) -> np.ndarray:
    """A JSON number or nested list as a float array; SchemaError unless
    every entry is a finite number.  JSON true/false is not a number, also
    where numpy would cast it next to numbers."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise SchemaError(f"{name} must be a numeric array: {exc}") from exc
    if arr.dtype.kind not in "iuf" or _holds_bool(value):
        raise SchemaError(f"{name} must hold only numbers")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{name} must hold only finite numbers")
    return arr


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; SchemaError on anything else, 2.0 and true too."""
    if type(value) is not int:
        raise SchemaError(f"{name} must be an integer, got {value!r}")
    return value


def _densify_h(spec, n: int) -> np.ndarray:
    if isinstance(spec, dict):
        if "triplets" not in spec:
            raise SchemaError("H object form requires a 'triplets' key")
        H = np.zeros((n, n * n))
        for entry in spec["triplets"]:
            triplet = _finite_array(entry, "H triplet")
            if triplet.shape != (4,):
                raise SchemaError(f"H triplet must be [row, i, j, value], got {entry!r}")
            if not np.all(triplet[:3] == np.floor(triplet[:3])):
                raise SchemaError(f"H triplet indices must be integers: {entry!r}")
            row, i, j = (int(v) for v in triplet[:3])
            if not (0 <= row < n and 0 <= i < n and 0 <= j < n):
                raise SchemaError(f"H triplet index out of range: {entry!r}")
            with np.errstate(over="ignore"):
                H[row, i * n + j] += triplet[3]
        if not np.isfinite(H).all():
            raise SchemaError("H triplets of one entry must sum to a finite number")
        return H
    H = _finite_array(spec, "H")
    if H.shape != (n, n * n):
        raise SchemaError(f"H must be {n}x{n * n}, got {H.shape}")
    return H


def system_from_dict(data: dict) -> tuple[QBSystem, float]:
    """Build a QBSystem from its JSON dict form.

    Returns the system (with H symmetrized) and the max symmetry defect of
    the raw H as given in the document.
    """
    try:
        n = _json_int(data["n"], "n")
        m = _json_int(data.get("m", 0), "m")
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad or missing 'n'/'m': {exc}") from exc
    if n < 1 or m < 0:
        raise SchemaError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    if "A" not in data or "H" not in data:
        raise SchemaError("system document requires 'A' and 'H'")
    A = _finite_array(data["A"], "A")
    if A.shape != (n, n):
        raise SchemaError(f"A must be {n}x{n}, got {A.shape}")
    H_raw = _densify_h(data["H"], n)
    defect = symmetry_defect(H_raw, n)
    H = symmetrize_quadratic(H_raw, n)
    if m > 0:
        if "B" not in data or "D" not in data:
            raise SchemaError("m > 0 requires 'B' and 'D'")
        B = _finite_array(data["B"], "B")
        D = _finite_array(data["D"], "D")
        if D.shape[:1] != (m,):
            raise SchemaError(f"expected {m} D matrices, got an array of shape {D.shape}")
    else:
        B, D = np.zeros((n, 0)), []
    try:
        sys = QBSystem(A=A, H=H, B=B, D=tuple(D))
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
    return sys, defect


def system_to_dict(sys: QBSystem) -> dict:
    data = {
        "n": sys.n,
        "m": sys.m,
        "A": sys.A.tolist(),
        "H": sys.H.tolist(),
    }
    if sys.m:
        data["B"] = sys.B.tolist()
        data["D"] = [Dj.tolist() for Dj in sys.D]
    return data


def _read_json(path):
    """The document in a JSON file; SchemaError unless it is UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc


def _write_json(path, doc: dict) -> None:
    """Write ``doc`` as indented JSON with a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_system(path) -> tuple[QBSystem, float]:
    """Load a system JSON file; see ``system_from_dict``."""
    return system_from_dict(_read_json(path))


def save_system(sys: QBSystem, path) -> None:
    _write_json(path, system_to_dict(sys))
