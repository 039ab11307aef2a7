"""``repro.kernels`` — the dense block operations, written once.

The paper's performance argument is that static pivoting turns sparse LU
into a *fixed schedule of dense block operations* — Figure 8's diagonal
factor, two panel triangular solves and one rank-b update — and that the
Mflop rate comes from those operations, not from the sparse bookkeeping
around them.  This module is that list: every dense operation the block
engines (:mod:`repro.factor.supernodal`, :mod:`repro.factor.blockpivot`,
:mod:`repro.pdgstrf`, :mod:`repro.pdgstrs`) perform is one plain
function here (:data:`OPS`), the flop formulas live next to them
(counted once, inside the op), and there is one implementation of each —
docs/KERNELS.md records the measurements that retired the second one.

Contract (docs/KERNELS.md has the table):

- Ops mutate their array arguments **in place** where the docstring says
  so, and keep their dtype (fp32 factors never silently upcast).
- Ops bump the calling thread's :class:`KernelStats` (:func:`stats`)
  unconditionally — plain integer adds.  A factorization runs on one
  thread, snapshots the stats around itself and publishes the delta as
  ``factors.flops`` and, through :func:`kernel_counters`, the
  ``kernel.*`` counters; two running at once never see each other's
  increments.
- The arithmetic is the historical loops **bit for bit**:
  ``tests/test_kernels.py`` keeps a frozen copy of each and compares
  op by op and through whole factorizations.  Engines call the ops
  through the module (``kernels.trsm_upper(d, b)``), so that test swaps
  an op with ``monkeypatch.setattr(repro.kernels, ...)``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

#: the dense ops — the first column of docs/KERNELS.md's table (docs
#: lint 7 holds the two together)
OPS = ("lu_nopivot", "lu_partial", "trsm_upper", "trsm_lower_unit",
       "gemm_update", "diag_solve_lower_unit", "diag_solve_upper")

__all__ = ["OPS", "KernelStats", "stats", "kernel_counters",
           "lu_flops", "trsm_flops", "gemm_flops", *OPS]


# --------------------------------------------------------------------- #
# flop formulas — the single source of truth for dense-op accounting
# --------------------------------------------------------------------- #

def lu_flops(w: int) -> int:
    """LU of a dense w×w block without pivoting: ``2w³/3`` (integer)."""
    return 2 * w ** 3 // 3


def trsm_flops(w: int, m: int) -> int:
    """Triangular panel solve against a w×w block with m solved vectors
    (rows of an L panel or columns of a U panel): ``m·w²``."""
    return m * w * w


def gemm_flops(m: int, k: int, n: int) -> int:
    """Dense product (m×k)·(k×n): ``2·m·k·n``."""
    return 2 * m * k * n


# --------------------------------------------------------------------- #
# per-thread accounting
# --------------------------------------------------------------------- #

@dataclass
class KernelStats:
    """One thread's op/flop accumulator.

    Plain integer fields bumped inside the ops; factorization wrappers
    snapshot before/after and publish the delta (``flops_since`` /
    ``counter_delta``), so accounting stays here without a per-op tracer
    call.  ``axpy_flops`` is bumped by the column oracle's two SPA
    helpers (:mod:`repro.factor.gesp`).
    """

    lu_calls: int = 0
    lu_flops: int = 0
    trsm_calls: int = 0
    trsm_flops: int = 0
    gemm_calls: int = 0
    gemm_flops: int = 0
    axpy_flops: int = 0
    solve_flops: int = 0

    def add(self, other: "KernelStats"):
        """Count ``other``'s calls and flops too — the static totals of
        a batched run (:class:`repro.factor.blockplan.Run`), whose
        width-1 rounds run as array lines, not as calls."""
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)

    def snapshot(self) -> "KernelStats":
        """A copy, for a later ``flops_since``/``counter_delta``."""
        return replace(self)

    def flops_since(self, snap: "KernelStats") -> int:
        """Total flops executed since ``snap`` (lu + trsm + gemm + axpy +
        solve — everything with a flop cost)."""
        return sum(getattr(self, f) - getattr(snap, f)
                   for f in ("lu_flops", "trsm_flops", "gemm_flops",
                             "axpy_flops", "solve_flops"))

    def counter_delta(self, snap: "KernelStats") -> dict:
        """The cataloged ``kernel.*`` counter increments since ``snap``."""
        return {
            "kernel.lu_calls": self.lu_calls - snap.lu_calls,
            "kernel.trsm_calls": self.trsm_calls - snap.trsm_calls,
            "kernel.gemm_calls": self.gemm_calls - snap.gemm_calls,
            "kernel.gemm_flops": self.gemm_flops - snap.gemm_flops,
        }


_LOCAL = threading.local()


def stats() -> KernelStats:
    """The calling thread's accumulator (service worker threads share
    this module, not their counts)."""
    try:
        return _LOCAL.stats
    except AttributeError:
        _LOCAL.stats = st = KernelStats()
        return st


@contextmanager
def kernel_counters():
    """Publish this thread's ``kernel.*`` counter deltas for one region.

    Snapshots :func:`stats` on entry and, on exit, emits the increments
    through the ambient tracer (:func:`repro.obs.add`) — zero-cost when
    tracing is disabled, one add per nonzero counter otherwise.
    """
    from repro.obs import add

    st = stats()
    snap = st.snapshot()
    try:
        yield snap
    finally:
        for name, val in st.counter_delta(snap).items():
            if val:
                add(name, val)


# --------------------------------------------------------------------- #
# factorization ops (paper Figure 8)
# --------------------------------------------------------------------- #

def _perturbed_pivot(p, thresh, dtype):
    """``±thresh`` keeping the pivot's sign (phase, when complex).

    The real branch is the historical expression unchanged; the complex
    branch mirrors ``factor/gesp.py``'s phase-preserving replacement
    (``p >= 0.0`` raises TypeError on complex inputs).
    """
    if np.issubdtype(dtype, np.complexfloating):
        return p / abs(p) * thresh if p != 0.0 else dtype.type(thresh)
    return thresh if p >= 0.0 else -thresh


def lu_nopivot(d, thresh):
    """In-place LU without pivoting of the dense diagonal block ``d``
    (packed: strictly-lower L with implicit unit diagonal, upper U).
    Pivots smaller than ``thresh`` are replaced by ``±thresh`` (GESP
    step (3)); ``thresh=0`` disables replacement and a zero pivot raises
    ``ZeroDivisionError``.  Returns the list of replaced local pivot
    indices."""
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
            d[k + 1:, k + 1:] -= d[k + 1:, k, None] * d[k, None, k + 1:]
    st = stats()
    st.lu_calls += 1
    st.lu_flops += lu_flops(w)
    return replaced


def lu_partial(d, thresh, pivot_threshold=1.0):
    """In-place LU of ``d`` with threshold partial pivoting within the
    block (paper §5 mixed pivoting).  Returns ``(piv, replaced)`` where
    ``piv[k]`` is the original local row now in position k."""
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
            d[k + 1:, k + 1:] -= d[k + 1:, k, None] * d[k, None, k + 1:]
    st = stats()
    st.lu_calls += 1
    st.lu_flops += lu_flops(w)
    return piv, replaced


def trsm_upper(d, b):
    """Solve ``X · U_kk = B`` in place (B: rows × w); only the upper
    triangle of the packed ``d`` is referenced.  Returns ``b``."""
    w = d.shape[0]
    for k in range(w):
        if k:
            b[:, k] -= b[:, :k] @ d[:k, k]
        b[:, k] /= d[k, k]
    st = stats()
    st.trsm_calls += 1
    st.trsm_flops += trsm_flops(w, b.shape[0])
    return b


def trsm_lower_unit(d, r):
    """Solve ``L_kk · X = R`` in place (R: w × cols); only the
    strictly-lower triangle of ``d`` (unit L) is referenced.
    Returns ``r``."""
    w = d.shape[0]
    for k in range(1, w):
        r[k, :] -= d[k, :k] @ r[:k, :]
    st = stats()
    st.trsm_calls += 1
    st.trsm_flops += trsm_flops(w, r.shape[1])
    return r


def gemm_update(l, u):
    """Dense product ``L @ U`` (the rank-b update's GEMM, also the solve
    layers' block·vector products).  Returns a new array."""
    st = stats()
    st.gemm_calls += 1
    st.gemm_flops += gemm_flops(l.shape[0], l.shape[1],
                                1 if u.ndim == 1 else u.shape[1])
    return l @ u


# --------------------------------------------------------------------- #
# triangular-solve ops (block forward / back substitution)
# --------------------------------------------------------------------- #

def diag_solve_lower_unit(d, x):
    """Solve ``L_kk y = x`` in place against the packed block's unit
    lower triangle; ``x`` is (w,) or (w, nrhs).  Returns ``x``."""
    w = d.shape[0]
    for jj in range(w):
        if jj:
            x[jj] -= d[jj, :jj] @ x[:jj]
    stats().solve_flops += w * w * (1 if x.ndim == 1 else x.shape[1])
    return x


def diag_solve_upper(d, x):
    """Solve ``U_kk y = x`` in place against the packed block's upper
    triangle (diagonal included); ``x`` is (w,) or (w, nrhs).
    Returns ``x``."""
    w = d.shape[0]
    for jj in range(w - 1, -1, -1):
        if jj + 1 < w:
            x[jj] -= d[jj, jj + 1:] @ x[jj + 1:]
        x[jj] /= d[jj, jj]
    stats().solve_flops += w * w * (1 if x.ndim == 1 else x.shape[1])
    return x
