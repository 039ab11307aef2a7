"""repro.service — the GESP pipeline as a concurrent solve service.

Static pivoting's economics (one symbolic analysis, many numeric
factorizations — paper §1) only pay off when many solves actually share
the work.  This package is the serving layer that makes that happen for
*concurrent* callers: requests are admitted through a bounded queue
(backpressure), coalesced by pattern into multi-RHS block solves run by
one service thread, and individually certified — with failed members
retried through the :mod:`repro.recovery` ladder.

Module map:

- :mod:`~repro.service.api` — requests, responses, futures, config,
  structured errors
- :mod:`~repro.service.queue` — bounded admission queue: deadline
  eviction, tenant priority ordering, token-bucket quota
- :mod:`~repro.service.batcher` — same-pattern coalescing into batches
- :mod:`~repro.service.server` — :class:`SolveService`, tying it all
  together
- :mod:`~repro.service.client` — blocking client
- :mod:`~repro.service.shard` — the sharded multi-process tier
  (:class:`ShardedSolveService`): pattern-affinity routing over N
  worker processes, each running its own ``SolveService``

See docs/SERVICE.md for the request lifecycle and semantics, and
docs/SHARDING.md for the multi-process tier.
"""

from repro.service.api import (
    DeadlineExceeded,
    PendingSolve,
    QuotaExceeded,
    ServiceClosed,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    ShardDied,
    SolveRequest,
    SolveResponse,
    UnknownMatrixError,
)
from repro.service.client import ServiceClient
from repro.service.server import SolveService
from repro.service.shard import ShardedSolveService

__all__ = [
    "DeadlineExceeded",
    "PendingSolve",
    "QuotaExceeded",
    "ServiceClient",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloaded",
    "ShardDied",
    "ShardedSolveService",
    "SolveRequest",
    "SolveResponse",
    "SolveService",
    "UnknownMatrixError",
]
