"""Serial sparse triangular solves on CSC factors.

Column-oriented substitution: after ``x[j]`` is known, column ``j``'s
off-diagonal entries are scattered into the right-hand side — one NumPy
gather/scatter per column, O(nnz) total, for one right-hand side (n,) or
a block of them (n, nrhs).  These sweeps are the readable reference the
block engine's level-set schedule (:mod:`repro.factor.solveplan`) is
tested against, and the solve path of the column-kernel configurations.
The transpose solves iterate with dot products instead (used by the
1-norm condition estimator, which needs ``A^{-T}`` applications).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix

__all__ = [
    "solve_lower_csc",
    "solve_upper_csc",
    "solve_lower_t_csc",
    "solve_upper_t_csc",
]


def _check(a, b):
    if a.nrows != a.ncols:
        raise ValueError("triangular solve requires a square matrix")
    b = np.array(b, dtype=np.result_type(a.nzval, np.asarray(b), np.float64),
                 copy=True)
    if b.ndim not in (1, 2) or b.shape[0] != a.ncols:
        raise ValueError("right-hand side must be (n,) or (n, nrhs)")
    return b


def solve_lower_csc(l: CSCMatrix, b, unit_diagonal: bool = False):
    """x with L x = b; L's columns must have the diagonal entry first."""
    x = _check(l, b)
    colptr, rowind = l.colptr, l.rowind
    nzval = l.nzval if x.ndim == 1 else l.nzval[:, None]   # per row of x
    n = l.ncols
    for j in range(n):
        lo, hi = colptr[j], colptr[j + 1]
        if lo == hi or rowind[lo] != j:
            raise ZeroDivisionError(f"missing diagonal in L column {j}")
        xj = x[j] if unit_diagonal else x[j] / nzval[lo]
        x[j] = xj
        if hi > lo + 1 and (x.ndim == 2 or xj != 0.0):
            x[rowind[lo + 1:hi]] -= nzval[lo + 1:hi] * xj
    return x


def solve_upper_csc(u: CSCMatrix, b):
    """x with U x = b; U's columns must have the diagonal entry last."""
    x = _check(u, b)
    colptr, rowind = u.colptr, u.rowind
    nzval = u.nzval if x.ndim == 1 else u.nzval[:, None]
    for j in range(u.ncols - 1, -1, -1):
        lo, hi = colptr[j], colptr[j + 1]
        if lo == hi or rowind[hi - 1] != j:
            raise ZeroDivisionError(f"missing diagonal in U column {j}")
        xj = x[j] / nzval[hi - 1]
        x[j] = xj
        if hi - 1 > lo and (x.ndim == 2 or xj != 0.0):
            x[rowind[lo:hi - 1]] -= nzval[lo:hi - 1] * xj
    return x


def solve_lower_t_csc(l: CSCMatrix, b, unit_diagonal: bool = False):
    """x with L^T x = b (inner-product form, back to front)."""
    x = _check(l, b)
    colptr, rowind, nzval = l.colptr, l.rowind, l.nzval
    for j in range(l.ncols - 1, -1, -1):
        lo, hi = colptr[j], colptr[j + 1]
        if lo == hi or rowind[lo] != j:
            raise ZeroDivisionError(f"missing diagonal in L column {j}")
        s = x[j]
        if hi > lo + 1:
            s -= nzval[lo + 1:hi] @ x[rowind[lo + 1:hi]]
        x[j] = s if unit_diagonal else s / nzval[lo]
    return x


def solve_upper_t_csc(u: CSCMatrix, b):
    """x with U^T x = b (inner-product form, front to back)."""
    x = _check(u, b)
    colptr, rowind, nzval = u.colptr, u.rowind, u.nzval
    for j in range(u.ncols):
        lo, hi = colptr[j], colptr[j + 1]
        if lo == hi or rowind[hi - 1] != j:
            raise ZeroDivisionError(f"missing diagonal in U column {j}")
        s = x[j]
        if hi - 1 > lo:
            s -= nzval[lo:hi - 1] @ x[rowind[lo:hi - 1]]
        x[j] = s / nzval[hi - 1]
    return x
