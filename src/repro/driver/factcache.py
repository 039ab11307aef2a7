"""The factorization cache: pattern-keyed reuse plans.

The whole point of GESP (paper §1, §3) is that static pivoting makes
every structure — row/column permutations, fill pattern, supernode
partition, block-cyclic layout, communication schedule — computable
*once* and reusable across factorizations of matrices with the same
sparsity pattern.  This module is where that reuse lives: a
:class:`PatternPlan` captures everything one pipeline run derived, a
module-level :class:`FactorizationCache` keys plans on the sparsity
pattern fingerprint (plus the option fields that shape the plan), and
the drivers consult it when ``GESPOptions.fact`` asks for
``SAME_PATTERN`` / ``SAME_PATTERN_SAME_ROWPERM`` reuse — the direct
descendant of SuperLU_DIST's ``Fact`` option.

What each mode reuses is decided in exactly one place,
:func:`repro.driver.pipeline.preprocess` (docs/REFACTORIZATION.md has
the full contract): ``SAME_PATTERN`` factors are **bit-identical** to a
cold factorization, ``SAME_PATTERN_SAME_ROWPERM`` trades possibly stale
scalings (which refinement absorbs) for skipping MC64, and a structure
mismatch raises :class:`~repro.sparse.ops.PatternMismatchError` — never
garbage factors.

The cache is a bounded LRU and thread-safe; the simulator and benchmark
harness share it process-wide through :data:`FACTOR_CACHE`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.obs import add
from repro.sparse.ops import ValueMap
from repro.symbolic.fill import SymbolicLU

__all__ = [
    "PatternPlan",
    "FactorizationCache",
    "CacheStats",
    "FACTOR_CACHE",
    "get_factorization_cache",
    "serial_plan_key",
    "dist_plan_key",
]


@dataclass
class PatternPlan:
    """One pattern's reusable factorization plan.

    Structural fields (``perm_c``, ``symbolic``, ``block_plan``,
    ``part``, ``dag``, ``schedule``) are valid for *any* matrix with this
    fingerprint; ``perm_r``/``dr``/``dc`` were computed from the values
    of the run that created the plan and are only reused under
    ``SAME_PATTERN_SAME_ROWPERM`` (or verified against a recomputation
    under ``SAME_PATTERN``).  ``value_map`` is the gather that applies
    ``perm_r`` and ``perm_c`` to new values, valid whenever they are.
    """

    fingerprint: str
    key: tuple
    perm_r: np.ndarray
    perm_c: np.ndarray
    dr: np.ndarray
    dc: np.ndarray
    value_map: ValueMap
    symbolic: SymbolicLU
    # serial extras: the block engine's static schedule (None when the
    # options select the column kernel)
    block_plan: object = None
    sym_blockpivot: SymbolicLU | None = None
    # distributed extras (present on "dist" plans only)
    part: object = None
    dag: object = None
    schedule: dict | None = None


class CacheStats(NamedTuple):
    """Snapshot of one cache's accounting.

    ``evictions`` counts plans dropped by the LRU bound since the last
    ``clear()``; a warm pattern evicted under churn will cost a fresh
    cold analysis on its next request (``factor.reuse_misses`` rises in
    step), so a service sizing its cache watches this number.
    """

    hits: int
    misses: int
    size: int
    maxsize: int
    evictions: int = 0


class FactorizationCache:
    """Bounded, thread-safe LRU of :class:`PatternPlan` by plan key.

    The key already contains the pattern fingerprint plus every option
    field that shapes the plan (ordering choices, grid shape, block
    sizes), so a lookup hit is always structurally valid — value-level
    validity is the fact-mode's contract, not the cache's.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._plans: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def lookup(self, key: tuple) -> PatternPlan | None:
        """The plan stored under ``key``, or None (counted as a miss)."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self._misses += 1
            else:
                self._plans.move_to_end(key)
                self._hits += 1
        add("cache.hits" if plan is not None else "cache.misses", 1)
        return plan

    def store(self, plan: PatternPlan) -> PatternPlan:
        """Insert (or refresh) a plan; evicts the LRU entry when full."""
        evicted = 0
        with self._lock:
            self._plans[plan.key] = plan
            self._plans.move_to_end(plan.key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted:
            add("cache.evictions", evicted)
        return plan

    def snapshot(self) -> list[PatternPlan]:
        """The stored plans, LRU-oldest first (a consistent copy).

        The warm-start spool (:mod:`repro.service.shard.spool`) iterates
        this to persist plans across process restarts.
        """
        with self._lock:
            return list(self._plans.values())

    def clear(self):
        with self._lock:
            self._plans.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(hits=self._hits, misses=self._misses,
                              size=len(self._plans), maxsize=self.maxsize,
                              evictions=self._evictions)

    def __len__(self):
        with self._lock:
            return len(self._plans)

    def __contains__(self, key):
        with self._lock:
            return key in self._plans


#: The process-wide cache every driver consults by default.  Tests that
#: need isolation construct a private :class:`FactorizationCache` and
#: pass it to the solver, or call ``FACTOR_CACHE.clear()``.
FACTOR_CACHE = FactorizationCache()


def get_factorization_cache() -> FactorizationCache:
    """The module-level cache (one per process)."""
    return FACTOR_CACHE


def serial_plan_key(fingerprint: str, opts) -> tuple:
    """Cache key for the serial :class:`~repro.driver.GESPSolver` —
    the fingerprint plus every option that shapes the plan, ``col_perm``
    as the engine resolves it (so ``None`` shares its value's entries)."""
    from repro.driver.gesp_driver import GESPSolver   # imports this module

    return ("serial", fingerprint, opts.equilibrate, opts.row_perm,
            opts.scale_diagonal, GESPSolver.resolve_col_perm(opts),
            opts.symbolic_method)


def dist_plan_key(fingerprint: str, opts, grid, max_block_size: int,
                  dense_tail_threshold: float,
                  edag_prune: bool) -> tuple:
    """Cache key for the distributed driver: the serial fields (the
    distributed engine's ``col_perm``) plus everything that shapes the
    partition, layout, and schedule."""
    from repro.driver.dist_driver import DistributedGESPSolver

    return ("dist", fingerprint, opts.equilibrate, opts.row_perm,
            opts.scale_diagonal, DistributedGESPSolver.resolve_col_perm(opts),
            grid.nprow, grid.npcol, int(max_block_size),
            float(dense_tail_threshold), bool(edag_prune))
