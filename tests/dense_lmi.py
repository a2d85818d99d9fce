"""Dense references for the row-compressed LMI blocks of ``qbstab.lmi``.

The tests compare every structured operator against these: ``svec_basis``
spells the svec convention out as an explicit basis, ``dense_stack``
expands a block to its (d, s, s) stack of F_k, and ``block_from_dense``
builds a block from such a stack.
"""

import numpy as np

from qbstab.lmi import LmiBlock, _padded_rows, _svec_index


def svec_basis(n: int) -> np.ndarray:
    """Stacked symmetric basis E_k with P = sum_k x_k E_k for x = svec(P)."""
    i, j, scale = _svec_index(n)
    k = np.arange(i.shape[0])
    E = np.zeros((i.shape[0], n, n))
    E[k, i, j] = 1.0 / scale
    E[k, j, i] = E[k, i, j]
    return E


def block_from_dense(F0: np.ndarray, F: np.ndarray) -> LmiBlock:
    """Block from a dense (d, s, s) stack of symmetric F_k."""
    F0 = np.asarray(F0, dtype=float)
    F = np.asarray(F, dtype=float)
    if F.ndim != 3 or F.shape[1:] != F0.shape:
        raise ValueError("malformed problem: F stack shape mismatch")
    rows = _padded_rows(np.any(F != 0, axis=2))
    return LmiBlock(F0=F0, rows=rows, vals=np.take_along_axis(F, rows[:, :, None], axis=1))


def dense_stack(blk: LmiBlock) -> np.ndarray:
    """The (d, s, s) stack of F_k of ``blk``."""
    F = np.zeros((blk.d, blk.size, blk.size))
    F[np.arange(blk.d)[:, None], blk.rows] = blk.vals
    return F
