"""The messages that cross the router <-> shard process boundary.

Everything is one of the small picklable dataclasses below, sent over
``multiprocessing`` queues: a request's matrix (or its registered key)
and its right-hand side ``b`` travel inside its :class:`SubmitMsg`, and
the solution comes back inside the :class:`ResultMsg`'s response.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = [
    "DrainMsg",
    "PauseMsg",
    "ReadyMsg",
    "RegisterMsg",
    "ResultMsg",
    "StatsMsg",
    "SubmitMsg",
]


# --------------------------------------------------------------------- #
# router -> worker
# --------------------------------------------------------------------- #


@dataclass
class RegisterMsg:
    """Install a matrix under ``key`` in the shard's inner service."""

    key: str
    matrix: object                     # CSCMatrix (picklable)


@dataclass
class SubmitMsg:
    """One routed request.

    ``deadline_remaining`` is the request's *remaining* budget at send
    time, paired with ``t_sent_wall`` (``time.time()`` — the one clock
    comparable across processes) so the worker charges transit time
    against the budget instead of silently restarting it: the relative
    ``SolveRequest.deadline`` field alone would lose the time the
    message spent in the pipe.
    """

    router_id: str                     # tier-unique completion key
    request_id: str                    # caller-visible id, echoed back
    matrix: object                     # registered key (str) or CSCMatrix
    b: object = None                   # float64 right-hand side
    options: object = None             # GESPOptions or None
    deadline_remaining: float | None = None
    t_sent_wall: float = field(default_factory=time.time)
    tenant: str = ""                   # SLO-class name (accounting only —
    priority: int | None = None        # quota/tier resolve at the router)

    def remaining_deadline(self) -> float | None:
        """Budget left on arrival: the sent budget minus transit time
        (clamped at 0 so an overdue request expires, never solves)."""
        if self.deadline_remaining is None:
            return None
        return max(0.0, self.deadline_remaining
                   - (time.time() - self.t_sent_wall))


@dataclass
class DrainMsg:
    """Graceful shutdown: finish everything accepted, spool plans,
    reply with a final :class:`StatsMsg`, exit 0."""


@dataclass
class PauseMsg:
    """Test/ops hook: stall the worker's receive loop for ``seconds``
    (lets tests fill a shard's admission window deterministically)."""

    seconds: float


# --------------------------------------------------------------------- #
# worker -> router
# --------------------------------------------------------------------- #


@dataclass
class ReadyMsg:
    """Worker is up: inner service started, spool (if any) preloaded."""

    shard_id: int
    pid: int
    spool_loaded: int = 0              # plans preloaded from the spool


@dataclass
class ResultMsg:
    """One completed request: the inner service's
    :class:`SolveResponse`, solution included."""

    shard_id: int
    router_id: str
    response: object


@dataclass
class StatsMsg:
    """Final accounting of a draining worker: the inner service's
    counters, its factorization-cache stats, and spool activity."""

    shard_id: int
    counters: dict
    cache_hits: int = 0
    cache_misses: int = 0
    spool_saved: int = 0
