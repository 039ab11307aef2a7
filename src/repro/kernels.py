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
- A C-ordered float64 block wider than one column goes to the LAPACK /
  BLAS numpy itself loaded (``ctypes``, no scipy): ``lu_nopivot`` keeps
  ``dgetrf``'s factors where the static pivot held inside the block,
  the trsms and the diagonal solves are ``dtrsm`` — backward stable,
  not the loops' bits.  All else runs the historical loops **bit for
  bit**:
  ``tests/test_kernels.py`` keeps a frozen copy of each and compares
  op by op and through whole factorizations.  Engines call the ops
  through the module (``kernels.trsm_upper(d, b)``), so that test swaps
  an op with ``monkeypatch.setattr(repro.kernels, ...)`` — except on the
  two bound paths below, which make the ops' ``dgetrf`` / ``dtrsm`` calls
  without the op, so a swapped op does not see them.  Both are taken
  only where ``_BLAS`` is (read when a sweep is built and on every
  serial factorization): with ``_BLAS`` monkeypatched to None (the
  tests' ``no_blas``) every call goes through the ops again.
- A static sweep, whose operands are fixed per layout, binds an op once
  (``bind_<op>``, sharing one :class:`Binder`): the op's own LAPACK /
  BLAS call on pre-resolved operands, counted once per run by the sweep,
  or else the op itself.
- The serial block engine binds once per plan: each float64 supernode
  wider than one column that a step takes alone runs from its
  ``BlockPlan.lone`` entry, ``dgetrf`` / ``dtrsm`` at flat offsets from
  the values' address, with the op's verdict (:func:`lu_kept`; a reject
  takes :func:`lu_fallback`) and counts added once per run.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

#: the dense ops — the first column of docs/KERNELS.md's table (docs
#: lint 7 holds the two together)
OPS = ("lu_nopivot", "lu_partial", "trsm_upper", "trsm_lower_unit",
       "gemm_update", "diag_solve_lower_unit", "diag_solve_upper")

__all__ = ["OPS", "KernelCounts", "KernelStats", "stats", "kernel_counters",
           "lu_flops", "trsm_flops", "gemm_flops", *OPS, "lu_kept",
           "lu_fallback", "Binder", "bind_lu_nopivot",
           "bind_trsm_upper", "bind_trsm_lower_unit",
           "bind_diag_solve_lower_unit", "bind_diag_solve_upper"]


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
class KernelCounts:
    """The ops' calls and flops (also what a batched step counts)."""

    lu_calls: int = 0
    lu_flops: int = 0
    trsm_calls: int = 0
    trsm_flops: int = 0
    gemm_calls: int = 0
    gemm_flops: int = 0
    axpy_flops: int = 0
    solve_flops: int = 0


@dataclass
class KernelStats(KernelCounts):
    """One thread's op/flop accumulator.

    Plain integer fields bumped inside the ops; factorization wrappers
    snapshot before/after and publish the delta (``flops_since`` /
    ``counter_delta``), so accounting stays here without a per-op tracer
    call.  ``axpy_flops`` is bumped by the column oracle's two SPA
    helpers (:mod:`repro.factor.gesp`); ``lu_lapack`` / ``lu_fallbacks``
    count the blocks whose ``dgetrf`` factors were kept / rejected.
    """

    lu_lapack: int = 0
    lu_fallbacks: int = 0

    def add(self, other: KernelCounts):
        """Count ``other``'s calls and flops too — the static totals of
        a batched step (:class:`repro.factor.blockplan.Run`), whose
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
            "kernel.lu_lapack": self.lu_lapack - snap.lu_lapack,
            "kernel.lu_fallbacks": self.lu_fallbacks - snap.lu_fallbacks,
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
# LAPACK / BLAS of the OpenBLAS numpy links, through ctypes
# --------------------------------------------------------------------- #

def _bind():
    """``(dgetrf, dtrsm)`` of numpy's own OpenBLAS (numpy ≥ 2 wheels:
    ``libscipy_openblas64_``, 64-bit ints, row-major LAPACKE / CBLAS), or
    None: every op runs its loop."""
    site = os.path.dirname(os.path.dirname(np.__file__))
    for path in (glob.glob(f"{site}/numpy.libs/libscipy_openblas64_*")
                 + glob.glob(f"{site}/numpy/.dylibs/libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(path)
            getrf, trsm = lib.scipy_LAPACKE_dgetrf64_, lib.scipy_cblas_dtrsm64_
        except (OSError, AttributeError):
            continue
        i64, ptr, enum = ctypes.c_int64, ctypes.c_void_p, ctypes.c_int
        getrf.restype, getrf.argtypes = i64, [enum, i64, i64, ptr, i64, ptr]
        trsm.restype, trsm.argtypes = None, [enum] * 5 + [
            i64, i64, ctypes.c_double, ptr, i64, ptr, i64]
        return getrf, trsm
    return None


_BLAS = _bind()
_CHAR = ctypes.c_char.from_buffer


def _blas(d, x, n):
    """``_BLAS`` if ``d`` is n×n (n > 1: width 1 keeps the division),
    ``x`` is 2-D with one dimension n, nonempty and written in place, and
    both are C-ordered float64, else None."""
    return _BLAS if (_BLAS and n > 1 and d.shape == (n, n) and x.ndim == 2
                     and x.size and d.dtype == x.dtype == np.float64
                     and d.flags.c_contiguous and x.flags.c_contiguous
                     and x.flags.writeable) else None


def _addr(x):
    """``x.ctypes.data`` at a fifth of the cost, when ``x`` is writable."""
    return ctypes.byref(_CHAR(x)) if x.flags.writeable else x.ctypes.data


# A static sweep (repro.pdgstrf / repro.pdgstrs) binds each op once per
# layout: ``bind_<op>(..., binder)`` returns ``(fn, args)``, the op's own
# LAPACK / BLAS call on pre-resolved operands where ``_blas`` admits them
# (their calls and flops added to ``binder.counts``, for the caller to add
# once per run with ``KernelStats.add``), else ``(op, operands)``, which
# counts itself.

class _Ptr:
    """An array's address as ctypes passes it (``_as_parameter_``),
    holding the array so the address stays valid: ≈ 90 B, where
    ``ndarray.ctypes.data_as`` keeps ≈ 870 B per pointer alive."""

    __slots__ = ("array", "_as_parameter_")

    def __init__(self, x):
        self.array, self._as_parameter_ = x, x.ctypes.data


class Binder:
    """What one sweep's bindings share: the ``counts`` its bound calls add
    once per run, one pointer per array (a diagonal block is the left
    operand of every trsm of its K) and one ``dgetrf`` scratch block and
    pivot vector per width (a sweep factors one block at a time)."""

    def __init__(self):
        self.counts, self._ptrs, self._lu = KernelStats(), {}, {}

    def ptr(self, x):
        """``x``'s :class:`_Ptr`, made once (it holds ``x``, so the id
        stays ``x``'s)."""
        if (p := self._ptrs.get(id(x))) is None:
            p = self._ptrs[id(x)] = _Ptr(x)
        return p

    def lu(self, w):
        """``(lu, piv, identity, args)``: a w×w scratch block, the pivot
        vector, ``dgetrf``'s pivots when it interchanges nothing, and its
        argument list factoring the scratch in place."""
        if (scratch := self._lu.get(w)) is None:
            lu, piv = np.empty((w, w)), np.empty(w, dtype=np.int64)
            scratch = self._lu[w] = (lu, piv, list(range(1, w + 1)), (
                101, w, w, self.ptr(lu), w, self.ptr(piv)))
        return scratch

    def dtrsm(self, side, uplo, diag, d, b):
        """``dtrsm``'s arguments solving against ``d`` in place of ``b``
        (row-major, no transpose, alpha 1), as the ops pass them."""
        return (101, side, uplo, 111, diag, *b.shape, 1.0, self.ptr(d),
                d.shape[0], self.ptr(b), b.shape[1])


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
    indices.  ``dgetrf``'s factors of a copy are kept when it made no
    interchange and left no pivot below ``thresh`` (an LU without
    pivoting, to rounding), else the loop runs on the untouched block."""
    w = d.shape[0]
    st = stats()
    if blas := _blas(d, d, w):
        lu, piv = d.copy(), np.empty(w, dtype=np.int64)
        if lu_kept(blas[0](101, w, w, _addr(lu), w, _addr(piv)),  # row-major
                   piv, list(range(1, w + 1)), lu.diagonal(), thresh):
            d[...] = lu
            st.lu_lapack += 1
            st.lu_calls += 1
            st.lu_flops += lu_flops(w)
            return []
        st.lu_fallbacks += 1
    replaced = _lu_loop(d, thresh)
    st.lu_calls += 1
    st.lu_flops += lu_flops(w)
    return replaced


def lu_kept(info, piv, identity, diagonal, thresh):
    """``dgetrf``'s verdict on a block: kept when it returned 0, made no
    interchange (``piv`` is ``identity``, 1-based) and left no pivot of
    ``diagonal`` below ``thresh``.  A NaN pivot compares false, so it
    rejects the block (Python's ``min`` would skip it).  Over a block's few
    pivots, ``all`` takes half the time of ``abs(diagonal).min()``."""
    return (info == 0 and piv.tolist() == identity
            and all(abs(u) >= thresh for u in diagonal.tolist()))


def lu_fallback(d, thresh):
    """:func:`lu_nopivot`'s loop on a block whose ``dgetrf`` factors a
    bound call rejected (``d`` untouched): counted as that call's fallback,
    whose ``lu_calls`` / ``lu_flops`` / ``lu_lapack`` its binder already
    added — ``lu_lapack`` is taken back once the loop is through, so a
    ``ZeroDivisionError`` leaves the op's own delta."""
    st = stats()
    st.lu_fallbacks += 1
    replaced = _lu_loop(d, thresh)
    st.lu_lapack -= 1
    return replaced


def _lu_loop(d, thresh):
    """The historical LU without pivoting of ``d``, in place, uncounted."""
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
    return replaced


def bind_lu_nopivot(d, binder):
    """:func:`lu_nopivot` of ``d`` bound once: ``fn(*args, thresh)``.  The
    verdict is the op's and checked on every call, since it depends on the
    values: a rejected block takes the op's loop (:func:`lu_fallback`)."""
    w = d.shape[0]
    if not _blas(d, d, w):
        return lu_nopivot, (d,)
    counts = binder.counts
    counts.lu_calls += 1
    counts.lu_lapack += 1
    counts.lu_flops += lu_flops(w)
    return _lu_bound, (d, *binder.lu(w), _BLAS[0])


def _lu_bound(d, lu, piv, identity, args, getrf, thresh):
    lu[...] = d
    if lu_kept(getrf(*args), piv, identity, lu.diagonal(), thresh):
        d[...] = lu
        return []
    return lu_fallback(d, thresh)


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
    if blas := _blas(d, b, b.shape[1]):  # row-major, Right, Upper, N, NonUnit
        blas[1](101, 142, 121, 111, 131, b.shape[0], w, 1.0,
                _addr(d), w, _addr(b), w)
    else:
        for k in range(w):
            if k:
                b[:, k] -= b[:, :k] @ d[:k, k]
            b[:, k] /= d[k, k]
    st = stats()
    st.trsm_calls += 1
    st.trsm_flops += trsm_flops(w, b.shape[0])
    return b


def bind_trsm_upper(d, b, binder):
    """:func:`trsm_upper` of ``d`` and ``b`` bound once: ``fn(*args)``."""
    if not _blas(d, b, b.shape[1]):
        return trsm_upper, (d, b)
    binder.counts.trsm_calls += 1
    binder.counts.trsm_flops += trsm_flops(d.shape[0], b.shape[0])
    return _BLAS[1], binder.dtrsm(142, 121, 131, d, b)


def trsm_lower_unit(d, r):
    """Solve ``L_kk · X = R`` in place (R: w × cols); only the
    strictly-lower triangle of ``d`` (unit L) is referenced.
    Returns ``r``."""
    w = d.shape[0]
    if blas := _blas(d, r, r.shape[0]):  # row-major, Left, Lower, N, Unit
        blas[1](101, 141, 122, 111, 132, w, r.shape[1], 1.0,
                _addr(d), w, _addr(r), r.shape[1])
    else:
        for k in range(1, w):
            r[k, :] -= d[k, :k] @ r[:k, :]
    st = stats()
    st.trsm_calls += 1
    st.trsm_flops += trsm_flops(w, r.shape[1])
    return r


def bind_trsm_lower_unit(d, r, binder):
    """:func:`trsm_lower_unit` of ``d`` and ``r`` bound once:
    ``fn(*args)``."""
    if not _blas(d, r, r.shape[0]):
        return trsm_lower_unit, (d, r)
    binder.counts.trsm_calls += 1
    binder.counts.trsm_flops += trsm_flops(d.shape[0], r.shape[1])
    return _BLAS[1], binder.dtrsm(141, 122, 132, d, r)


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

def _columns(x):
    """``x`` as (w, nrhs): a 1-D right-hand side is a (w, 1) view."""
    return x[:, None] if x.ndim == 1 else x


def diag_solve_lower_unit(d, x):
    """Solve ``L_kk y = x`` in place against the packed block's unit
    lower triangle; ``x`` is (w,) or (w, nrhs).  Returns ``x``."""
    w, b = d.shape[0], _columns(x)
    if blas := _blas(d, b, b.shape[0]):  # row-major, Left, Lower, N, Unit
        blas[1](101, 141, 122, 111, 132, w, b.shape[1], 1.0,
                _addr(d), w, _addr(b), b.shape[1])
    else:
        for jj in range(1, w):
            x[jj] -= d[jj, :jj] @ x[:jj]
    stats().solve_flops += w * w * b.shape[1]
    return x


def bind_diag_solve_lower_unit(d, x, binder):
    """:func:`diag_solve_lower_unit` of ``d`` and ``x`` bound once:
    ``fn(*args)``."""
    b = _columns(x)
    if not _blas(d, b, b.shape[0]):
        return diag_solve_lower_unit, (d, x)
    binder.counts.solve_flops += b.size * b.shape[0]
    return _BLAS[1], binder.dtrsm(141, 122, 132, d, b)


def diag_solve_upper(d, x):
    """Solve ``U_kk y = x`` in place against the packed block's upper
    triangle (diagonal included); ``x`` is (w,) or (w, nrhs).  A zero on
    the diagonal takes the loop: its division warns (``RuntimeWarning``)
    where ``dtrsm`` would not.  Returns ``x``."""
    w, b = d.shape[0], _columns(x)
    if (blas := _blas(d, b, b.shape[0])) and \
            np.count_nonzero(d.diagonal()) == w:
        # row-major, Left, Upper, N, NonUnit
        blas[1](101, 141, 121, 111, 131, w, b.shape[1], 1.0,
                _addr(d), w, _addr(b), b.shape[1])
    else:
        for jj in range(w - 1, -1, -1):
            if jj + 1 < w:
                x[jj] -= d[jj, jj + 1:] @ x[jj + 1:]
            x[jj] /= d[jj, jj]
    stats().solve_flops += w * w * b.shape[1]
    return x


def bind_diag_solve_upper(d, x, binder):
    """:func:`diag_solve_upper` of ``d`` and ``x`` bound once:
    ``fn(*args)``.  The zero-diagonal check is the op's, made on every
    call; a zero sends ``x`` through the op (its loop and warning)."""
    b = _columns(x)
    if not _blas(d, b, b.shape[0]):
        return diag_solve_upper, (d, x)
    binder.counts.solve_flops += b.size * b.shape[0]
    return _upper_bound, (d, x, _BLAS[1], binder.dtrsm(141, 121, 131, d, b))


def _upper_bound(d, x, trsm, args):
    if np.count_nonzero(d.diagonal()) == d.shape[0]:
        trsm(*args)
    else:
        diag_solve_upper(d, x)
        stats().solve_flops -= x.size * d.shape[0]
