"""Same-pattern coalescing: turn a drained burst into block solves.

The whole point of static pivoting is that one analysis serves many
numeric factorizations (paper §1, §3); the batcher is where the service
cashes that in.  Requests coalesce when they would share *all* numeric
work — same sparsity pattern, same plan-shaping options, same values,
same numeric (pivoting/refinement) options — which the service encodes
as one tuple:

    group_key = (serial_plan_key(pattern_fingerprint, options),
                 values_signature,
                 factor_options_key + solve_options_key)

``serial_plan_key`` is exactly the :mod:`repro.driver.factcache` cache
key, so "coalescible" and "plan-cache compatible" can never drift apart;
the values signature (a blake2b of the nonzero values) splits same-
pattern-different-values requests into separate batches that still share
the pattern's anchor through ``SAME_PATTERN_SAME_ROWPERM``
refactorization — the warm path, just not the same block solve.  The third component covers
every ``GESPOptions`` field that changes the numeric answer without
shaping the plan: the pivot-replacement policy (which changes the
factors) and the refinement controls (which change what "converged"
certifies).  Without it, a request with a stricter ``refine_eps`` could
be folded into a batch refined against a looser target and reported
converged against a contract it never met.

Pure functions, deterministic: groups keep first-arrival order, members
keep queue order, oversize groups split into ``max_batch`` chunks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.driver.factcache import serial_plan_key
from repro.service.queue import QueuedRequest
from repro.sparse.ops import pattern_fingerprint

__all__ = [
    "Batch",
    "coalesce",
    "factor_options_key",
    "group_key",
    "solve_options_key",
    "values_signature",
]


def values_signature(a) -> str:
    """blake2b digest of the matrix's nonzero values (pattern excluded —
    the pattern is already pinned by the plan key)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(a.nzval.tobytes())
    return h.hexdigest()


def factor_options_key(options) -> tuple:
    """The ``GESPOptions`` fields that change the numeric *factors* but
    not the plan: two solves that differ here can share orderings and
    symbolic analysis, never a factorization."""
    return (options.replace_tiny_pivots, options.tiny_pivot_scale,
            options.aggressive_pivot_replacement,
            options.diag_block_pivoting)


def solve_options_key(options) -> tuple:
    """The ``GESPOptions`` fields that change the *solve* (refinement
    target, step cap, residual precision) but not the factors."""
    return (options.refine, options.refine_max_steps, options.refine_eps,
            options.refine_stagnation, options.extra_precision_residual)


def group_key(a, options) -> tuple:
    """The coalescing key of one (matrix, options) pair."""
    return (serial_plan_key(pattern_fingerprint(a), options),
            values_signature(a),
            factor_options_key(options) + solve_options_key(options))


@dataclass
class Batch:
    """One unit of worker-pool work: entries sharing a ``group_key``.

    All members have the same matrix (pattern *and* values) and the
    same plan-shaping *and* numeric options, so the worker runs one
    factorization — cold for a pattern the service has not seen, on the
    pattern's anchor (``SAME_PATTERN_SAME_ROWPERM``) when a solver exists
    with other values or another pivot policy, none at all when both
    match — and one ``solve_multi`` over the stacked right-hand sides.
    """

    key: tuple
    entries: list

    @property
    def width(self) -> int:
        return len(self.entries)

    @property
    def plan_key(self) -> tuple:
        """The factcache plan key shared by every member."""
        return self.key[0]

    @property
    def pattern_fingerprint(self) -> str:
        """The sparsity-pattern fingerprint inside the plan key."""
        return self.key[0][1]

    @property
    def values_sig(self) -> str:
        return self.key[1]

    @property
    def matrix(self):
        return self.entries[0].matrix

    @property
    def options(self):
        return self.entries[0].options


def coalesce(entries: list[QueuedRequest],
             max_batch: int) -> list[Batch]:
    """Group drained entries into batches, preserving arrival order.

    Deterministic: batches are ordered by their group's first arrival,
    members by queue order, and a group wider than ``max_batch`` splits
    into consecutive chunks (each chunk is its own batch — the later
    chunks still reuse the factorization through the pattern state, they
    just solve in a second block).
    """
    if max_batch < 1:
        raise ValueError("max_batch must be >= 1")
    groups: dict[tuple, list] = {}
    for e in entries:
        groups.setdefault(e.group_key, []).append(e)
    batches = []
    for key, members in groups.items():
        for i in range(0, len(members), max_batch):
            batches.append(Batch(key=key, entries=members[i:i + max_batch]))
    return batches
