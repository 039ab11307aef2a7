"""The ``reference`` backend: the repo's historical loops, bit for bit.

Every method body here is the pre-refactor kernel moved verbatim from
its original call site (``factor/supernodal.py``, ``factor/blockpivot.py``,
``pdgstrs/*``), with only the flop accounting added.  This backend is
the default: all tier-1 numerical tests (and the ``SAME_PATTERN``
bit-identical refactorization contract) run against it, so its
arithmetic must never change.  New performance work goes into a *new*
backend, compared against this one.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import (
    KernelBackend,
    _as_submatrix,
    gemm_flops,
    lu_flops,
    trsm_flops,
)

__all__ = ["ReferenceBackend"]


def _perturbed_pivot(p, thresh, dtype):
    """``±thresh`` keeping the pivot's sign (phase, when complex).

    The real branch is the historical expression unchanged; the complex
    branch mirrors ``factor/gesp.py``'s phase-preserving replacement
    (``p >= 0.0`` raises TypeError on complex inputs).
    """
    if np.issubdtype(dtype, np.complexfloating):
        return p / abs(p) * thresh if p != 0.0 else dtype.type(thresh)
    return thresh if p >= 0.0 else -thresh


class ReferenceBackend(KernelBackend):
    """Pure-Python/NumPy loops — the numerical ground truth."""

    name = "reference"

    # ---- factorization kernels -------------------------------------- #

    def lu_nopivot(self, d, thresh):
        w = d.shape[0]
        replaced = []
        for k in range(w):
            p = d[k, k]
            if thresh > 0.0:
                if abs(p) < thresh:
                    p = _perturbed_pivot(p, thresh, d.dtype)
                    d[k, k] = p
                    replaced.append(k)
            elif p == 0.0:
                raise ZeroDivisionError("zero pivot in diagonal block")
            if k + 1 < w:
                d[k + 1:, k] /= p
                d[k + 1:, k + 1:] -= np.outer(d[k + 1:, k], d[k, k + 1:])
        st = self.stats
        st.lu_calls += 1
        st.lu_flops += lu_flops(w)
        return replaced

    def lu_partial(self, d, thresh, pivot_threshold=1.0):
        w = d.shape[0]
        piv = np.arange(w, dtype=np.int64)
        replaced = []
        for k in range(w):
            col = d[k:, k]
            mloc = int(np.argmax(np.abs(col)))
            mval = abs(col[mloc])
            if mval > 0 and abs(d[k, k]) < pivot_threshold * mval:
                p = k + mloc
                if p != k:
                    d[[k, p], :] = d[[p, k], :]
                    piv[[k, p]] = piv[[p, k]]
            pval = d[k, k]
            if thresh > 0.0:
                if abs(pval) < thresh:
                    pval = _perturbed_pivot(pval, thresh, d.dtype)
                    d[k, k] = pval
                    replaced.append(k)
            elif pval == 0.0:
                raise ZeroDivisionError("zero pivot in diagonal block")
            if k + 1 < w:
                d[k + 1:, k] /= pval
                d[k + 1:, k + 1:] -= np.outer(d[k + 1:, k], d[k, k + 1:])
        st = self.stats
        st.lu_calls += 1
        st.lu_flops += lu_flops(w)
        return piv, replaced

    def trsm_upper(self, d, b):
        w = d.shape[0]
        for k in range(w):
            if k:
                b[:, k] -= b[:, :k] @ d[:k, k]
            b[:, k] /= d[k, k]
        st = self.stats
        st.trsm_calls += 1
        st.trsm_flops += trsm_flops(w, b.shape[0])
        return b

    def trsm_lower_unit(self, d, r):
        w = d.shape[0]
        for k in range(1, w):
            r[k, :] -= d[k, :k] @ r[:k, :]
        st = self.stats
        st.trsm_calls += 1
        st.trsm_flops += trsm_flops(w, r.shape[1])
        return r

    def gemm_update(self, l, u):
        st = self.stats
        st.gemm_calls += 1
        if u.ndim == 1:
            st.gemm_flops += gemm_flops(l.shape[0], l.shape[1], 1)
        else:
            st.gemm_flops += gemm_flops(l.shape[0], l.shape[1], u.shape[1])
        return l @ u

    def scatter_sub(self, tgt, rows, cols, src, src_rows=None,
                    src_cols=None):
        self.stats.scatter_calls += 1
        tgt[np.ix_(rows, cols)] -= _as_submatrix(src, src_rows, src_cols)

    # ---- SPA kernels -------------------------------------------------- #

    def spa_axpy(self, spa, rows, vals, xk):
        spa[rows] -= xk * vals
        self.stats.axpy_flops += 2 * len(rows)

    def col_scale(self, vals, pivot):
        self.stats.axpy_flops += len(vals)
        # cast the pivot down first so a wider scalar (e.g. a float64
        # pivot against a float32 column) cannot upcast the result
        return vals / vals.dtype.type(pivot)

    # ---- triangular-solve kernels ------------------------------------ #

    def diag_solve_lower_unit(self, d, x):
        w = d.shape[0]
        for jj in range(w):
            if jj:
                x[jj] -= d[jj, :jj] @ x[:jj]
        nrhs = 1 if x.ndim == 1 else x.shape[1]
        self.stats.solve_flops += w * w * nrhs
        return x

    def diag_solve_upper(self, d, x):
        w = d.shape[0]
        for jj in range(w - 1, -1, -1):
            if jj + 1 < w:
                x[jj] -= d[jj, jj + 1:] @ x[jj + 1:]
            x[jj] /= d[jj, jj]
        nrhs = 1 if x.ndim == 1 else x.shape[1]
        self.stats.solve_flops += w * w * nrhs
        return x
