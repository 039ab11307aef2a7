"""Independent correctness gate: recompute the componentwise backward
error of every returned ``x`` on the original ``A, b`` with plain numpy
(no call into ``repro``'s own residual code), outside the timed interval.
"""

from __future__ import annotations

import numpy as np

GATE_BERR = 1e-12


def gate_berr(a, x, b) -> float:
    """``max_i |b - A x|_i / (|A||x| + |b|)_i`` for a CSC matrix ``a``
    (attributes ``ncols``/``nrows``/``colptr``/``rowind``/``nzval``);
    ``inf`` for a missing, mis-shaped or non-finite ``x``."""
    if x is None:
        return float("inf")
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.shape != (a.ncols,) or not np.all(np.isfinite(x)):
        return float("inf")
    cols = np.repeat(np.arange(a.ncols), np.diff(a.colptr))
    terms = a.nzval * x[cols]
    ax = np.bincount(a.rowind, weights=terms, minlength=a.nrows)
    denom = np.bincount(a.rowind, weights=np.abs(terms),
                        minlength=a.nrows) + np.abs(b)
    resid = np.abs(b - ax)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(resid == 0.0, 0.0, resid / denom)
    return float(np.max(ratio)) if ratio.size else 0.0


def op_failed(op) -> bool:
    """An operation fails if it raised or returned a structured error
    (``op.error``), or if any of its solutions misses the gate."""
    if op.error is not None:
        return True
    op.gate_berr = max(gate_berr(a, x, b) for a, b, x in op.systems)
    return not op.gate_berr <= GATE_BERR
