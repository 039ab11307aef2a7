"""Bounded admission queue: backpressure, deadlines, tenant priority.

The queue is the only place requests wait, and it is *bounded*: an
``offer`` against a full queue first evicts entries whose deadline has
already passed (they could never be answered in time anyway — shedding
them is strictly better than shedding the newcomer), then — if the
queue is still full and the newcomer outranks the lowest-priority
waiter — displaces that waiter, and only then raises
:class:`~repro.service.api.ServiceOverloaded`.  Memory therefore stays
O(capacity) no matter how hard the service is hammered, and a slow
consumer surfaces as structured rejections instead of unbounded growth
— the classic load-shedding contract.

Ordering: :meth:`AdmissionQueue.drain` returns entries highest
``priority`` first, FIFO within a priority level (a strict priority
queue, seq-stamped at admission).  All-default-priority traffic is
plain FIFO, so the priority machinery costs untenanted callers nothing
observable.  Displacement is what keeps the ordering meaningful under
a full queue: without it, a low-priority flood that filled the queue
first would shed every high-priority arrival at the door — exactly the
starvation the SLO tiers exist to prevent (docs/WORKLOADS.md).

Policy only: the queue never completes futures or touches solvers.  The
server owns the side effects (rejection responses, counters) and feeds
on :meth:`AdmissionQueue.drain`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from dataclasses import dataclass
from typing import NamedTuple

from repro.service.api import (
    PendingSolve,
    ServiceClosed,
    ServiceOverloaded,
    SolveRequest,
)

__all__ = ["AdmissionQueue", "OfferOutcome", "QueuedRequest", "TokenBucket"]


class TokenBucket:
    """Deterministic token bucket: ``rate`` tokens/s, capacity ``burst``.

    Purely a function of the timestamps handed to :meth:`try_take` —
    no internal clock — so replaying a recorded workload replays the
    exact same admission decisions (the bit-reproducibility contract
    the workload benchmarks assert).  Starts full.
    """

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float, burst: float = 1.0):
        if not rate > 0:
            raise ValueError("rate must be > 0 tokens/s")
        if not burst >= 1.0:
            raise ValueError("burst must be >= 1 token")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last: float | None = None

    def try_take(self, now: float) -> bool:
        """Spend one token refilled up to ``now``; False = shed."""
        if self._last is not None and now > self._last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self._last) * self.rate)
        self._last = now if self._last is None else max(self._last, now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass
class QueuedRequest:
    """One admitted request plus everything the batcher groups on.

    ``group_key`` is the full coalescing key (plan key + values
    signature — see :func:`repro.service.batcher.coalesce`);
    ``deadline`` is *absolute* (same clock as ``t_enqueued``), computed
    once at admission from the request's relative budget.  ``priority``
    is the resolved queue priority (request override, else tenant
    class, else 0) and ``tenant`` the SLO-class name for accounting.
    """

    request: SolveRequest
    pending: PendingSolve
    matrix: object                       # resolved CSCMatrix
    group_key: tuple
    options: object                      # resolved GESPOptions
    t_enqueued: float
    deadline: float | None = None        # absolute; None = no deadline
    priority: int = 0
    tenant: str = ""

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline

    def waited(self, now: float) -> float:
        return now - self.t_enqueued


class OfferOutcome(NamedTuple):
    """What one successful :meth:`AdmissionQueue.offer` shed to admit.

    ``expired`` are entries whose deadline had already passed (the
    caller rejects them with ``DeadlineExceeded``); ``displaced`` are
    live lower-priority entries bumped by a higher-priority newcomer
    against a full queue (rejected with ``ServiceOverloaded`` — from
    their caller's view the queue *was* full)."""

    expired: list
    displaced: list


class _State:
    __slots__ = ("heap", "closed")

    def __init__(self):
        # entries as (-priority, seq, entry): heapq pops the highest
        # priority first, FIFO (by admission seq) within a level
        self.heap: list = []
        self.closed = False


class AdmissionQueue:
    """Priority queue of :class:`QueuedRequest` bounded at ``capacity``.

    Thread-safe.  Producers call :meth:`offer`; the one service thread
    blocks in :meth:`drain`.  ``close()`` wakes it and makes further
    offers raise :class:`~repro.service.api.ServiceClosed`.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._state = _State()
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)

    def __len__(self):
        with self._lock:
            return len(self._state.heap)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._state.closed

    def offer(self, entry: QueuedRequest, now: float) -> OfferOutcome:
        """Admit ``entry`` or raise :class:`ServiceOverloaded`
        (:class:`~repro.service.api.ServiceClosed` after :meth:`close`).

        Returns an :class:`OfferOutcome` with the already-expired
        entries evicted to make room and the lower-priority entry
        displaced by a higher-priority newcomer (at most one); the
        caller owns completing both groups with their structured
        rejections.
        """
        with self._nonempty:
            if self._state.closed:
                raise ServiceClosed()
            expired: list = []
            displaced: list = []
            heap = self._state.heap
            if len(heap) >= self.capacity:
                kept = []
                for item in heap:
                    (expired if item[2].expired(now)
                     else kept).append(item)
                heapq.heapify(kept)
                self._state.heap = heap = kept
            if len(heap) >= self.capacity:
                # still full: a strictly higher-priority newcomer bumps
                # the lowest-priority (latest-arrived among ties) waiter
                worst = max(heap)      # max of (-prio, seq) = worst
                if -worst[0] < entry.priority:
                    heap.remove(worst)
                    heapq.heapify(heap)
                    displaced.append(worst[2])
                else:
                    raise ServiceOverloaded(self.capacity, len(heap))
            heapq.heappush(heap, (-entry.priority, next(self._seq), entry))
            self._nonempty.notify()
            return OfferOutcome([item[2] for item in expired], displaced)

    def drain(self, timeout: float | None = None,
              max_items: int | None = None) -> list[QueuedRequest]:
        """Remove and return queued entries, best-priority first.

        Blocks up to ``timeout`` for the first entry (``None`` blocks
        until an entry arrives or the queue closes); never blocks for
        more than the first.  Returns ``[]`` on timeout or closure.
        """
        with self._nonempty:
            if not self._state.heap and not self._state.closed:
                self._nonempty.wait(timeout)
            return self._take(max_items)

    def drain_nowait(self,
                     max_items: int | None = None) -> list[QueuedRequest]:
        """Like :meth:`drain` with a zero timeout."""
        with self._lock:
            return self._take(max_items)

    def _take(self, max_items):
        heap = self._state.heap
        n = len(heap) if max_items is None else min(max_items, len(heap))
        return [heapq.heappop(heap)[2] for _ in range(n)]

    def close(self):
        """Stop admission and wake the service thread (idempotent).  Entries
        still queued remain drainable so the server can reject or finish
        them explicitly."""
        with self._nonempty:
            self._state.closed = True
            self._nonempty.notify_all()
