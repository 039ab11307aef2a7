"""The dense-kernel contract: one protocol behind every factor/solve hot path.

The paper's whole performance argument is that static pivoting turns
sparse LU into a *schedule of dense block kernels* — Figure 8's diagonal
factor, panel triangular solves, and rank-b update — and that the Mflop
rate comes from those kernels, not from the sparse bookkeeping around
them.  This module pins that boundary down as a protocol:
:class:`KernelBackend` declares every dense operation the factorization
and solve layers are allowed to perform, the flop formulas live next to
the ops (one place, counted once), and implementations register with
:mod:`repro.kernels.registry` so callers select a backend by name.

Contract highlights (see docs/KERNELS.md for the full text):

- Ops mutate their array arguments **in place** where the signature says
  so, exactly like the historical loops they replaced.
- Every backend owns one :class:`KernelStats` accumulator *per thread*;
  ops bump it unconditionally (plain integer adds — cheap enough for
  the hot path).  Factorization wrappers snapshot the stats around a run
  and publish the delta as the ``kernel.*`` counters and the
  ``factors.flops`` total; a factorization runs on one thread, so two
  running at once never see each other's increments.
- The ``reference`` backend reproduces the pre-refactor loops
  **bit for bit**; any new backend must match it to a few ulps
  (``tests/test_kernels.py`` enforces both).
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelBackend",
    "KernelStats",
    "UnknownBackendError",
    "lu_flops",
    "trsm_flops",
    "gemm_flops",
]


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
# stats + errors
# --------------------------------------------------------------------- #

@dataclass
class KernelStats:
    """Per-backend, per-thread op/flop accumulator.

    Plain integer fields bumped inside the ops; factorization wrappers
    snapshot before/after and publish the delta (``flops_since`` /
    ``counter_delta``), so accounting stays centralized in the kernel
    layer without a per-op tracer call.
    """

    lu_calls: int = 0
    lu_flops: int = 0
    trsm_calls: int = 0
    trsm_flops: int = 0
    gemm_calls: int = 0
    gemm_flops: int = 0
    scatter_calls: int = 0
    axpy_flops: int = 0
    solve_flops: int = 0

    _FIELDS = ("lu_calls", "lu_flops", "trsm_calls", "trsm_flops",
               "gemm_calls", "gemm_flops", "scatter_calls", "axpy_flops",
               "solve_flops")

    def snapshot(self) -> tuple:
        """Current values, for a later ``flops_since``/``counter_delta``."""
        return (self.lu_calls, self.lu_flops, self.trsm_calls,
                self.trsm_flops, self.gemm_calls, self.gemm_flops,
                self.scatter_calls, self.axpy_flops, self.solve_flops)

    def flops_since(self, snap: tuple) -> int:
        """Total flops executed since ``snap`` (lu + trsm + gemm + axpy +
        solve — everything with a flop cost)."""
        cur = self.snapshot()
        return ((cur[1] - snap[1]) + (cur[3] - snap[3])
                + (cur[5] - snap[5]) + (cur[7] - snap[7])
                + (cur[8] - snap[8]))

    def counter_delta(self, snap: tuple) -> dict:
        """The cataloged ``kernel.*`` counter increments since ``snap``."""
        cur = self.snapshot()
        return {
            "kernel.lu_calls": cur[0] - snap[0],
            "kernel.trsm_calls": cur[2] - snap[2],
            "kernel.gemm_calls": cur[4] - snap[4],
            "kernel.gemm_flops": cur[5] - snap[5],
        }


class UnknownBackendError(ValueError):
    """A kernel backend name that is not in the registry.

    Structured: carries the offending ``name`` and the tuple of
    ``registered`` names, and lists them in the message so a CLI user
    sees their options immediately.
    """

    def __init__(self, name, registered):
        self.name = name
        self.registered = tuple(registered)
        super().__init__(
            f"unknown kernel backend {name!r}; registered backends: "
            f"{', '.join(self.registered) or '(none)'}")


# --------------------------------------------------------------------- #
# the protocol
# --------------------------------------------------------------------- #

class KernelBackend(ABC):
    """Every dense block operation the factor/solve layers may perform.

    In-place semantics follow the historical kernels: ``lu_*`` factor
    ``d`` in place, ``trsm_*`` overwrite the panel argument,
    ``diag_solve_*`` overwrite the RHS slice, ``scatter_sub`` subtracts
    into the target block.
    """

    #: registry name; subclasses override
    name: str = "abstract"

    def __init__(self):
        self._local = threading.local()

    @property
    def stats(self) -> KernelStats:
        """The calling thread's accumulator (backends are registered
        singletons shared by every service worker thread)."""
        try:
            return self._local.stats
        except AttributeError:
            self._local.stats = stats = KernelStats()
            return stats

    # ---- factorization kernels -------------------------------------- #

    @abstractmethod
    def lu_nopivot(self, d, thresh):
        """In-place LU without pivoting of the dense diagonal block ``d``
        (packed: strictly-lower L with implicit unit diagonal, upper U).
        Pivots smaller than ``thresh`` are replaced by ``±thresh`` (GESP
        step (3)); ``thresh=0`` disables replacement and a zero pivot
        raises ``ZeroDivisionError``.  Returns the list of replaced local
        pivot indices."""

    @abstractmethod
    def lu_partial(self, d, thresh, pivot_threshold=1.0):
        """In-place LU of ``d`` with threshold partial pivoting within
        the block (paper §5 mixed pivoting).  Returns ``(piv, replaced)``
        where ``piv[k]`` is the original local row now in position k."""

    @abstractmethod
    def trsm_upper(self, d, b):
        """Solve ``X · U_kk = B`` in place (B: rows × w); only the upper
        triangle of the packed ``d`` is referenced.  Returns ``b``."""

    @abstractmethod
    def trsm_lower_unit(self, d, r):
        """Solve ``L_kk · X = R`` in place (R: w × cols); only the
        strictly-lower triangle of ``d`` (unit L) is referenced.
        Returns ``r``."""

    @abstractmethod
    def gemm_update(self, l, u):
        """Dense product ``L @ U`` (the rank-b update's GEMM, also the
        solve layers' block·vector products).  Returns a new array."""

    @abstractmethod
    def scatter_sub(self, tgt, rows, cols, src, src_rows=None,
                    src_cols=None):
        """``tgt[rows × cols] -= src[src_rows × src_cols]`` where
        ``rows``/``cols`` are integer index arrays into ``tgt`` and
        ``src_rows``/``src_cols`` (optional index/bool arrays or slices)
        select the matching submatrix of ``src``.  The masked
        scatter-subtract of Figure 8 step (3)."""

    # ---- SPA (column algorithm) kernels ------------------------------ #

    @abstractmethod
    def spa_axpy(self, spa, rows, vals, xk):
        """``spa[rows] -= xk * vals`` — one left-looking column update."""

    @abstractmethod
    def col_scale(self, vals, pivot):
        """``vals / pivot`` elementwise (the L-column gather scale).
        Returns a new array."""

    # ---- triangular-solve kernels ------------------------------------ #

    @abstractmethod
    def diag_solve_lower_unit(self, d, x):
        """Solve ``L_kk y = x`` in place against the packed block's unit
        lower triangle; ``x`` is (w,) or (w, nrhs).  Returns ``x``."""

    @abstractmethod
    def diag_solve_upper(self, d, x):
        """Solve ``U_kk y = x`` in place against the packed block's upper
        triangle (diagonal included); ``x`` is (w,) or (w, nrhs).
        Returns ``x``."""

    def __repr__(self):
        return f"<KernelBackend {self.name!r}>"


def _as_submatrix(src, src_rows, src_cols):
    """Shared helper: select src[src_rows, src_cols] with optional axes."""
    if src_rows is not None:
        src = src[src_rows]
    if src_cols is not None:
        src = src[:, src_cols]
    return src
