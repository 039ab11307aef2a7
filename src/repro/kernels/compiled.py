"""The ``compiled`` backend: numba ``@njit`` loops for all 10 ops.

The reference loops are transcribed into nopython-mode kernels —
same elimination order, same update order — so results track the
reference to a few ulps (the cross-backend tests enforce the same
componentwise envelope as ``vectorized``).  All array allocation
happens in the Python wrappers; the jitted kernels are pure loops over
preallocated storage, which keeps them dtype-generic (float32/float64/
complex128 specializations compile on first use per dtype).

numba is an *optional* dependency (the ``[compiled]`` extra):

- when it imports, :data:`HAVE_NUMBA` is True and the registry
  registers a ``"compiled"`` instance at import;
- when it does not, this module still imports (``njit`` degrades to an
  identity decorator), :data:`HAVE_NUMBA` is False, nothing registers,
  and selecting ``"compiled"`` raises the structured
  :class:`~repro.kernels.base.UnknownBackendError` — the same graceful
  degradation as ``vectorized`` on scipy-free installs, except that a
  backend whose whole point is compilation is withheld rather than
  silently interpreted.

First call per (op, dtype) pays the JIT compilation; benchmarks warm
the backend up with one untimed replay before measuring.
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

try:  # optional [compiled] extra — never a hard dependency
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised on numba-free installs
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        """Identity decorator so the kernels below stay importable."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


__all__ = ["CompiledBackend", "HAVE_NUMBA"]


# ---- jitted kernels (pure loops, no allocation) ---------------------- #

@njit(cache=True)
def _lu_nopivot(d, thresh, replaced):  # pragma: no cover - jitted
    w = d.shape[0]
    nrep = 0
    for k in range(w):
        p = d[k, k]
        if thresh > 0.0:
            if abs(p) < thresh:
                if p != 0:
                    p = p / abs(p) * thresh
                else:
                    p = p + thresh
                d[k, k] = p
                replaced[nrep] = k
                nrep += 1
        elif p == 0:
            return k, nrep
        for i in range(k + 1, w):
            d[i, k] = d[i, k] / p
        for i in range(k + 1, w):
            m = d[i, k]
            for j in range(k + 1, w):
                d[i, j] = d[i, j] - m * d[k, j]
    return -1, nrep


@njit(cache=True)
def _lu_partial(d, thresh, pivot_threshold, piv,
                replaced):  # pragma: no cover - jitted
    w = d.shape[0]
    nrep = 0
    for k in range(w):
        mloc = k
        mval = abs(d[k, k])
        for i in range(k + 1, w):
            v = abs(d[i, k])
            if v > mval:
                mval = v
                mloc = i
        if mval > 0 and abs(d[k, k]) < pivot_threshold * mval:
            if mloc != k:
                for j in range(w):
                    tmp = d[k, j]
                    d[k, j] = d[mloc, j]
                    d[mloc, j] = tmp
                tp = piv[k]
                piv[k] = piv[mloc]
                piv[mloc] = tp
        p = d[k, k]
        if thresh > 0.0:
            if abs(p) < thresh:
                if p != 0:
                    p = p / abs(p) * thresh
                else:
                    p = p + thresh
                d[k, k] = p
                replaced[nrep] = k
                nrep += 1
        elif p == 0:
            return k, nrep
        for i in range(k + 1, w):
            d[i, k] = d[i, k] / p
        for i in range(k + 1, w):
            m = d[i, k]
            for j in range(k + 1, w):
                d[i, j] = d[i, j] - m * d[k, j]
    return -1, nrep


@njit(cache=True)
def _trsm_upper(d, b):  # pragma: no cover - jitted
    w = d.shape[0]
    m = b.shape[0]
    for k in range(w):
        for i in range(m):
            acc = b[i, k]
            for j in range(k):
                acc -= b[i, j] * d[j, k]
            b[i, k] = acc / d[k, k]


@njit(cache=True)
def _trsm_lower_unit(d, r):  # pragma: no cover - jitted
    w = d.shape[0]
    n = r.shape[1]
    for k in range(1, w):
        for c in range(n):
            acc = r[k, c]
            for j in range(k):
                acc -= d[k, j] * r[j, c]
            r[k, c] = acc


@njit(cache=True)
def _gemm(l, u, out):  # pragma: no cover - jitted
    m, kk = l.shape
    n = u.shape[1]
    for i in range(m):
        for k in range(kk):
            lik = l[i, k]
            for j in range(n):
                out[i, j] += lik * u[k, j]


@njit(cache=True)
def _gemv(l, u, out):  # pragma: no cover - jitted
    m, kk = l.shape
    for i in range(m):
        acc = out[i]
        for k in range(kk):
            acc += l[i, k] * u[k]
        out[i] = acc


@njit(cache=True)
def _scatter_sub(tgt, rows, cols, sub):  # pragma: no cover - jitted
    for a in range(rows.shape[0]):
        i = rows[a]
        for b in range(cols.shape[0]):
            tgt[i, cols[b]] -= sub[a, b]


@njit(cache=True)
def _spa_axpy(spa, rows, vals, xk):  # pragma: no cover - jitted
    for a in range(rows.shape[0]):
        spa[rows[a]] -= xk * vals[a]


@njit(cache=True)
def _col_scale(vals, pivot, out):  # pragma: no cover - jitted
    for i in range(vals.shape[0]):
        out[i] = vals[i] / pivot


@njit(cache=True)
def _diag_lower_unit_1(d, x):  # pragma: no cover - jitted
    w = d.shape[0]
    for jj in range(1, w):
        acc = x[jj]
        for j in range(jj):
            acc -= d[jj, j] * x[j]
        x[jj] = acc


@njit(cache=True)
def _diag_lower_unit_2(d, x):  # pragma: no cover - jitted
    w = d.shape[0]
    n = x.shape[1]
    for jj in range(1, w):
        for c in range(n):
            acc = x[jj, c]
            for j in range(jj):
                acc -= d[jj, j] * x[j, c]
            x[jj, c] = acc


@njit(cache=True)
def _diag_upper_1(d, x):  # pragma: no cover - jitted
    w = d.shape[0]
    for jj in range(w - 1, -1, -1):
        acc = x[jj]
        for j in range(jj + 1, w):
            acc -= d[jj, j] * x[j]
        x[jj] = acc / d[jj, jj]


@njit(cache=True)
def _diag_upper_2(d, x):  # pragma: no cover - jitted
    w = d.shape[0]
    n = x.shape[1]
    for jj in range(w - 1, -1, -1):
        for c in range(n):
            acc = x[jj, c]
            for j in range(jj + 1, w):
                acc -= d[jj, j] * x[j, c]
            x[jj, c] = acc / d[jj, jj]


# ---- the backend ----------------------------------------------------- #

class CompiledBackend(KernelBackend):
    """numba nopython-mode loops for every op."""

    name = "compiled"

    def __init__(self):
        if not HAVE_NUMBA:
            raise RuntimeError(
                "the 'compiled' kernel backend requires numba — install "
                "the [compiled] extra")
        super().__init__()

    # ---- factorization kernels --------------------------------------- #

    def lu_nopivot(self, d, thresh):
        buf = np.empty(d.shape[0], dtype=np.int64)
        zero_at, nrep = _lu_nopivot(d, float(thresh), buf)
        if zero_at >= 0:
            raise ZeroDivisionError("zero pivot in diagonal block")
        st = self.stats
        st.lu_calls += 1
        st.lu_flops += lu_flops(d.shape[0])
        return [int(i) for i in buf[:nrep]]

    def lu_partial(self, d, thresh, pivot_threshold=1.0):
        w = d.shape[0]
        piv = np.arange(w, dtype=np.int64)
        buf = np.empty(w, dtype=np.int64)
        zero_at, nrep = _lu_partial(d, float(thresh),
                                    float(pivot_threshold), piv, buf)
        if zero_at >= 0:
            raise ZeroDivisionError("zero pivot in diagonal block")
        st = self.stats
        st.lu_calls += 1
        st.lu_flops += lu_flops(w)
        return piv, [int(i) for i in buf[:nrep]]

    def trsm_upper(self, d, b):
        if b.size:
            _trsm_upper(d, b)
        st = self.stats
        st.trsm_calls += 1
        st.trsm_flops += trsm_flops(d.shape[0], b.shape[0])
        return b

    def trsm_lower_unit(self, d, r):
        if r.size:
            _trsm_lower_unit(d, r)
        st = self.stats
        st.trsm_calls += 1
        st.trsm_flops += trsm_flops(d.shape[0], r.shape[1])
        return r

    def gemm_update(self, l, u):
        st = self.stats
        st.gemm_calls += 1
        if u.ndim == 1:
            st.gemm_flops += gemm_flops(l.shape[0], l.shape[1], 1)
            out = np.zeros(l.shape[0], dtype=np.result_type(l, u))
            _gemv(l, u, out)
        else:
            st.gemm_flops += gemm_flops(l.shape[0], l.shape[1], u.shape[1])
            out = np.zeros((l.shape[0], u.shape[1]),
                           dtype=np.result_type(l, u))
            _gemm(l, u, out)
        return out

    def scatter_sub(self, tgt, rows, cols, src, src_rows=None,
                    src_cols=None):
        self.stats.scatter_calls += 1
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        sub = _as_submatrix(src, src_rows, src_cols)
        if sub.ndim != 2 or sub.shape != (rows.size, cols.size):
            sub = np.ascontiguousarray(
                np.broadcast_to(sub, (rows.size, cols.size)))
        _scatter_sub(tgt, rows, cols, sub)

    # ---- SPA kernels -------------------------------------------------- #

    def spa_axpy(self, spa, rows, vals, xk):
        _spa_axpy(spa, np.asarray(rows, dtype=np.int64), vals,
                  spa.dtype.type(xk))
        self.stats.axpy_flops += 2 * len(rows)

    def col_scale(self, vals, pivot):
        self.stats.axpy_flops += len(vals)
        out = np.empty_like(vals)
        _col_scale(vals, vals.dtype.type(pivot), out)
        return out

    # ---- triangular-solve kernels ------------------------------------ #

    def diag_solve_lower_unit(self, d, x):
        if x.ndim == 1:
            _diag_lower_unit_1(d, x)
            nrhs = 1
        else:
            _diag_lower_unit_2(d, x)
            nrhs = x.shape[1]
        self.stats.solve_flops += d.shape[0] * d.shape[0] * nrhs
        return x

    def diag_solve_upper(self, d, x):
        if x.ndim == 1:
            _diag_upper_1(d, x)
            nrhs = 1
        else:
            _diag_upper_2(d, x)
            nrhs = x.shape[1]
        self.stats.solve_flops += d.shape[0] * d.shape[0] * nrhs
        return x
