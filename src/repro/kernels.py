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
  so and keep their operands' dtype on a direct call; the solvers store
  float64 or complex128 (:func:`repro.sparse.coo.value_dtype`).
- Ops bump the calling thread's :class:`KernelStats` (:func:`stats`);
  a factorization publishes its delta as ``factors.flops`` and, through
  :func:`kernel_counters`, the ``kernel.*`` counters, so two running at
  once never see each other's increments.
- A C-ordered float64 block wider than one column goes to the LAPACK /
  BLAS numpy itself loaded (``ctypes``, no scipy): ``dgetrf`` where the
  static pivot held inside the block, ``dtrsm`` for the solves — backward
  stable, not the loops' bits.  All else runs the historical loops **bit
  for bit** (``tests/test_kernels.py`` keeps frozen copies).  Engines
  reach an op through the module, so a test swaps one with
  ``monkeypatch.setattr(repro.kernels, ...)``; a float64 step list
  (below) makes the ops' calls, bit for bit, without the ops, unless
  ``_BLAS`` is monkeypatched to None (the tests' ``no_blas``).
- Each LAPACK / BLAS call is stated once, here: :func:`dgetrf` (the
  block saved first, restored when the op's verdict rejects it) and
  :func:`dtrsm_args`.  So is Figure 8: one supernode's step — diagonal
  factor, two panel solves, one product and one indexed subtract per
  update — is a :class:`Step` of store offsets; :func:`build_steps`
  counts a list (the serial plan's, one store; the sweep's, one per
  rank), :func:`bind_steps` resolves it once per plan's resident store
  or layout, :func:`run_steps` runs it; :func:`bind_dtrsm` binds diagonal solves.
"""

from __future__ import annotations

import ctypes
import glob
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

#: the dense ops — the first column of docs/KERNELS.md's table (docs
#: lint 7 holds the two together)
OPS = ("lu_nopivot", "lu_partial", "trsm_upper", "trsm_lower_unit",
       "gemm_update", "diag_solve_lower_unit", "diag_solve_upper")

__all__ = ["OPS", "KernelCounts", "KernelStats", "stats", "kernel_counters",
           "lu_flops", "trsm_flops", "gemm_flops", *OPS, "Scratch",
           "dgetrf", "dtrsm_args", "lu_fallback", "Step", "Steps",
           "build_steps", "bind_steps", "run_steps", "bind_dtrsm"]


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


class _Local(threading.local):
    """Per thread: the ops' :class:`KernelStats` and :class:`Scratch`."""

    def __init__(self):
        self.stats, self.scratch = KernelStats(), Scratch()


def stats() -> KernelStats:
    """The calling thread's accumulator (service worker threads share
    this module, not their counts)."""
    return _LOCAL.stats


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


#: ``dtrsm``'s side, uplo and diag for each op it runs (CBLAS codes):
#: X·U = B is Right / Upper / NonUnit, L·X = B Left / Lower / Unit and
#: U·X = B Left / Upper / NonUnit
_TRSM = {"trsm_upper": (142, 121, 131), "trsm_lower_unit": (141, 122, 132),
         "diag_solve_lower_unit": (141, 122, 132),
         "diag_solve_upper": (141, 121, 131)}


def dtrsm_args(op, m, n, dp, bp):
    """``op``'s ``dtrsm`` arguments: solve in place of the m×n C-ordered
    float64 block at address ``bp`` against the one at ``dp`` (n×n on the
    right, m×m on the left), row-major, no transpose, alpha 1."""
    side, uplo, diag = _TRSM[op]
    return (101, side, uplo, 111, diag, m, n, 1.0, dp,
            n if side == 142 else m, bp, n)


class Scratch(dict):
    """:func:`dgetrf`'s scratch per width w: the block saved before the
    call, the pivot vector and its address, and the pivots of no
    interchange.  Each thread holds one for its ops and its runs of step
    lists (each factors one block at a time)."""

    def __missing__(self, w):
        piv = np.empty(w, dtype=np.int64)
        self[w] = s = (np.empty(w * w), piv, piv.ctypes.data,
                       list(range(1, w + 1)))
        return s


_LOCAL = _Local()


def dgetrf(block, w, addr, scratch, thresh):
    """``dgetrf`` in place on the w×w C-ordered float64 block at ``addr``,
    its values (``block``, 1-D) saved into ``scratch`` first: True when the
    factors are kept (``info == 0``, no interchange, no pivot below
    ``thresh``: an LU without pivoting, to rounding; a NaN pivot fails
    ``all``, where ``min`` would skip it), else False, the block restored."""
    save, piv, pp, identity = scratch[w]
    save[:] = block
    if (_BLAS[0](101, w, w, addr, w, pp) == 0 and piv.tolist() == identity
            and all(abs(u) >= thresh for u in block[::w + 1].tolist())):
        return True
    block[:] = save
    return False


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
    indices.  :func:`dgetrf`'s factors are kept where its verdict keeps
    them, else the loop runs on the restored block."""
    w = d.shape[0]
    st = stats()
    if _blas(d, d, w):
        if dgetrf(d.reshape(-1), w, _addr(d), _LOCAL.scratch, thresh):
            st.lu_lapack += 1
            st.lu_calls += 1
            st.lu_flops += lu_flops(w)
            return []
        st.lu_fallbacks += 1
    replaced = _lu_loop(d, thresh)
    st.lu_calls += 1
    st.lu_flops += lu_flops(w)
    return replaced


def lu_fallback(d, thresh):
    """:func:`lu_nopivot`'s loop on a block whose :func:`dgetrf` factors
    :func:`run_steps` rejected (``d`` restored): counted as that call's
    fallback, whose ``lu_calls`` / ``lu_flops`` / ``lu_lapack`` are added
    for it once per run — ``lu_lapack`` is taken back once the loop is
    through, so a ``ZeroDivisionError`` leaves the op's own delta."""
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
    if _blas(d, b, b.shape[1]):
        _BLAS[1](*dtrsm_args("trsm_upper", *b.shape, _addr(d), _addr(b)))
    else:
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
    if _blas(d, r, r.shape[0]):
        _BLAS[1](*dtrsm_args("trsm_lower_unit", *r.shape, _addr(d), _addr(r)))
    else:
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

def _columns(x):
    """``x`` as (w, nrhs): a 1-D right-hand side is a (w, 1) view."""
    return x[:, None] if x.ndim == 1 else x


def diag_solve_lower_unit(d, x):
    """Solve ``L_kk y = x`` in place against the packed block's unit
    lower triangle; ``x`` is (w,) or (w, nrhs).  Returns ``x``."""
    w, b = d.shape[0], _columns(x)
    if _blas(d, b, w):
        _BLAS[1](*dtrsm_args("diag_solve_lower_unit", *b.shape, _addr(d),
                             _addr(b)))
    else:
        for jj in range(1, w):
            x[jj] -= d[jj, :jj] @ x[:jj]
    stats().solve_flops += w * w * b.shape[1]
    return x


def diag_solve_upper(d, x):
    """Solve ``U_kk y = x`` in place against the packed block's upper
    triangle (diagonal included); ``x`` is (w,) or (w, nrhs).  A zero on
    the diagonal takes the loop: its division warns (``RuntimeWarning``)
    where ``dtrsm`` would not.  Returns ``x``."""
    w, b = d.shape[0], _columns(x)
    if _blas(d, b, w) and np.count_nonzero(d.diagonal()) == w:
        _BLAS[1](*dtrsm_args("diag_solve_upper", *b.shape, _addr(d),
                             _addr(b)))
    else:
        for jj in range(w - 1, -1, -1):
            if jj + 1 < w:
                x[jj] -= d[jj, jj + 1:] @ x[jj + 1:]
            x[jj] /= d[jj, jj]
    stats().solve_flops += w * w * b.shape[1]
    return x


# --------------------------------------------------------------------- #
# Figure 8 as a step list, counted once and run by one runner
# --------------------------------------------------------------------- #

class Step(NamedTuple):
    """Supernode K's Figure 8 step, its operands offsets into the stores a
    run supplies: D_K (w×w) at ``d`` of store ``s``; the panels, each
    ``(op, store, offset, rows, cols, blocks)``, solved against it by
    ``op`` (``trsm_upper`` an L panel, ``trsm_lower_unit`` a U panel);
    the updates ``(store, tgt, take, i, j, blocks)``: panel i times panel
    j, its ``take`` entries, row-major (None: all), subtracted at ``tgt``.
    A solve or product counts as ``blocks`` of the ops' calls."""
    k: int
    w: int
    s: int
    d: int
    panels: tuple
    updates: tuple


class Steps(NamedTuple):
    """A step list as :func:`build_steps` or :func:`bind_steps` made it."""
    steps: list         # Step (resolved: a tuple), or (members, run)
    counts: KernelStats  # what a run's calls off the ops count
    flops: list         # per store
    stores: tuple = ()


def build_steps(steps, nstores):
    """``steps`` — each a :class:`Step` or the serial plan's batched step
    ``(members, run)`` (:class:`repro.factor.blockplan.Run`) — with what
    a run's calls off the ops count and each store's flops."""
    counts, flops = KernelStats(), [0] * nstores
    for k, w, s, d, panels, updates in (x for x in steps if type(x) is Step):
        c = KernelStats(1, lu_flops(w), lu_lapack=int(w > 1))
        flops[s] += c.lu_flops
        for _, p, _, m, n, b in panels:
            c.trsm_calls += b
            c.trsm_flops += (f := trsm_flops(w, m * n // w))
            flops[p] += f
        for t, _, _, i, j, b in updates:
            c.gemm_calls += b
            c.gemm_flops += (f := gemm_flops(panels[i][3], w, panels[j][4]))
            flops[t] += f
        counts.add(c)
    return Steps(steps, counts, flops)


def bind_steps(steps, stores):
    """:func:`build_steps`' ``steps`` resolved against ``stores``, which
    the result holds: a :class:`Step` as ``(k, w, diag, dp, panels,
    updates)`` — D_K (1-D) and its address (None unless float64), the
    panels ``(op, view, blocks, dtrsm args)``, the updates ``(store, tgt,
    take, view i, view j, blocks)``; a batched step as it stands."""
    f64, base = stores[0].dtype == np.float64, [s.ctypes.data for s in stores]
    out = []
    for step in steps.steps:
        if type(step) is Step:
            k, w, s, d, panels, updates = step
            dp = base[s] + 8 * d if f64 else None
            panels = [(op, stores[p][o:o + m * n].reshape(m, n), b,
                       f64 and dtrsm_args(op, m, n, dp, base[p] + 8 * o))
                      for op, p, o, m, n, b in panels]
            step = (k, w, stores[s][d:d + w * w], dp, panels,
                    [(stores[t], tgt, take, panels[i][1], panels[j][1], b)
                     for t, tgt, take, i, j, b in updates])
        out.append(step)
    return steps._replace(steps=out, stores=tuple(stores))


def run_steps(steps, factor_diag, thresh=None):
    """Run :func:`bind_steps`' ``steps``; ``factor_diag(k, d)`` factors
    D_K, a 2-D view, in place.  With static pivoting's ``thresh``, float64
    stores and LAPACK / BLAS, each step runs bit for bit its ops, counted
    once after the last step (not after a raise): wider than one column,
    :func:`dgetrf` with the op's verdict (``factor_diag(k, d, lu_fallback)``
    on a reject), both ``dtrsm``, ``@``; one column wide, alone or batched
    (docs/ALGORITHMS.md), a pivot not above ``thresh`` goes to
    ``factor_diag`` as if alone, then the L panel is divided by it.  Else
    (other dtypes, ``no_blas``, ``thresh`` None) the ops run on views."""
    st, scratch, flat = stats(), _LOCAL.scratch, steps.stores[0]
    raw = thresh is not None and _BLAS and flat.dtype == np.float64
    for step in steps.steps:
        if len(step) == 2:                      # batched: (members, run)
            members, (dpos, bpos, bpiv, lpos, upos, tgt, counts) = step
            for j in (~(abs(flat.take(dpos)) > thresh)).nonzero()[0].tolist():
                p = int(dpos[j])
                factor_diag(members[j], flat[p:p + 1].reshape(1, 1))
                st.lu_calls -= 1                # counts has it too
            if tgt.size:
                flat[bpos] /= flat.take(bpiv)
                np.subtract.at(flat, tgt, flat.take(lpos) * flat.take(upos))
            st.add(counts)
            continue
        k, w, diag, dp, panels, updates = step
        if not raw:
            factor_diag(k, d := diag.reshape(w, w))
            for op, view, blocks, _ in panels:
                globals()[op](d, view)
                st.trsm_calls += blocks - 1
        elif w > 1:
            if not dgetrf(diag, w, dp, scratch, thresh):
                factor_diag(k, diag.reshape(w, w), lu_fallback)
            for _, _, _, args in panels:
                _BLAS[1](*args)
        else:                                   # the unit 1 × 1 U solve: none
            if not abs(diag[0]) > thresh:
                factor_diag(k, diag.reshape(1, 1))
                st.lu_calls -= 1                # counts has it too
            for op, view, _, _ in panels:
                if op == "trsm_upper":
                    view /= diag[0]
        for store, tgt, take, l, u, blocks in updates:
            if raw:
                upd = (l @ u).ravel()
            else:
                upd = gemm_update(l, u).ravel()
                st.gemm_calls += blocks - 1
            store[tgt] -= upd if take is None else upd[take]
    if raw:
        st.add(steps.counts)


# --------------------------------------------------------------------- #
# a diagonal solve bound once, for a static substitution sweep
# --------------------------------------------------------------------- #

def bind_dtrsm(op, d, x, counts):
    """``op`` — a ``diag_solve_*`` — of ``d`` and ``x`` bound once:
    ``fn(*args)``, its ``dtrsm`` at the operands' addresses where ``_blas``
    admits them, the flops added to ``counts`` for the sweep's run to add
    once (the run holds what it bound), else the op, which counts itself.
    ``diag_solve_upper``'s zero-diagonal check is made on every call; a
    zero sends ``x`` through the op (its loop and warning)."""
    b, w = _columns(x), d.shape[0]
    if not _blas(d, b, w):
        return globals()[op], (d, x)
    counts.solve_flops += b.size * w
    args = dtrsm_args(op, *b.shape, d.ctypes.data, b.ctypes.data)
    return ((_bound_upper, (d, x, args)) if op == "diag_solve_upper"
            else (_BLAS[1], args))


def _bound_upper(d, x, args):
    if np.count_nonzero(d.diagonal()) == d.shape[0]:
        _BLAS[1](*args)
    else:
        diag_solve_upper(d, x)
        stats().solve_flops -= x.size * d.shape[0]
