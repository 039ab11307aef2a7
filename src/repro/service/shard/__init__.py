"""Sharded multi-process serving tier (see docs/SHARDING.md).

``repro.service.shard`` layers an N-process tier over the in-process
:class:`~repro.service.server.SolveService`:

- :mod:`.routing` — rendezvous (HRW) pattern-affinity hashing and the
  hot-pattern replication tracker;
- :mod:`.messages` — the picklable messages that carry requests (RHS
  included) in and responses (solutions included) back;
- :mod:`.spool` — warm-start persistence of ``PatternPlan``s;
- :mod:`.worker` — the spawn entry point: one inner ``SolveService``
  per process;
- :mod:`.router` — :class:`ShardedSolveService`, the caller-facing
  tier (same surface as ``SolveService``).
"""

from repro.service.shard.router import ShardedSolveService
from repro.service.shard.routing import (
    HotPatternTracker,
    rendezvous_rank,
    route,
)
from repro.service.shard.spool import load_plans, save_plans, spool_path

__all__ = [
    "HotPatternTracker",
    "ShardedSolveService",
    "load_plans",
    "rendezvous_rank",
    "route",
    "save_plans",
    "spool_path",
]
