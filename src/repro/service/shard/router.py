"""The sharded serving tier: pattern-affinity routing over N processes.

:class:`ShardedSolveService` presents the same surface as the
in-process :class:`~repro.service.server.SolveService` — ``submit`` /
``register_matrix`` / ``stats`` / context manager — but fans requests
out to N ``multiprocessing`` (spawn) worker processes, each running its
own inner ``SolveService`` with a private factorization cache.  The
driving observation is the REFACTORIZATION contract: a pattern's warm
state (its ``PatternPlan``) is the expensive thing, so the router hashes
every request's ``pattern_fingerprint`` with rendezvous hashing and all
traffic for a pattern lands on one shard.  N shards then hold N disjoint
warm working sets and the tier scales with patterns, not with luck.

Responsibilities split three ways:

- **caller threads** (``submit``): pass the front door the in-process
  service uses (:class:`~repro.service.server.FrontDoor`: request
  checks, registry, tenant quota, counters), route by the pattern
  fingerprint (the HRW top rank — one shard per pattern), enforce the
  shard's in-flight window (``config.queue_capacity`` — a full shard
  sheds with :class:`ServiceOverloaded` carrying the shard id while the
  others keep admitting), and ship a :class:`SubmitMsg` carrying the
  request's matrix (or key) and right-hand side;
- the **response pump** thread: drains the single shared response
  queue and completes futures with the responses, solutions inside;
- the **monitor** thread: watches worker liveness; a dead shard has its
  in-flight requests failed with :class:`ShardDied` (structured — a
  crash is an answer, never a hang) and is respawned; the spool
  directory makes the respawn warm.

Every spawn, the first included, replays the matrix registry before any
request can reach the shard.  Every queue the tier opens is closed and
its feeder joined by the tier, never left to the garbage collector.

Determinism: routing is a pure function of (fingerprint, shard set),
and each pattern is served by one inner ``SolveService`` under exactly
the single-process semantics — solutions are bit-identical to the
in-process service, with coalescing on or off (an answer does not depend
on its batch-mates), which tests/test_shard.py asserts.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from queue import Empty

import multiprocessing as mp

import numpy as np

from repro.obs import Span, Tracer, get_tracer
from repro.service.api import (
    PendingSolve,
    ServiceClosed,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    ShardDied,
    SolveRequest,
    SolveResponse,
)
from repro.service.server import FrontDoor
from repro.service.shard.messages import (
    DrainMsg,
    PauseMsg,
    ReadyMsg,
    RegisterMsg,
    ResultMsg,
    StatsMsg,
    SubmitMsg,
)
from repro.service.shard.routing import route
from repro.service.shard.worker import shard_main
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import pattern_fingerprint

__all__ = ["ShardedSolveService"]

# seconds a shard gets to come up, and to drain at close
_START_TIMEOUT = 120.0

# what every stats() answers, zero included
_COUNTERS = ("service.shard.requests", "service.shard.completed",
             "service.shard.rejected_overload", "service.shard.deaths",
             "service.shard.respawns")


def _retire(q):
    """Close ``q`` and join its feeder thread now, rather than leave both
    to a garbage collection at an arbitrary point.  The process that read
    it is gone, so what it left unread is drained first: a feeder must
    never block on a full pipe."""
    try:
        while True:
            q.get(timeout=0.05)
    except (Empty, EOFError, OSError):
        pass
    q.close()
    q.join_thread()


class _Shard:
    """Router-side bookkeeping for one worker process."""

    __slots__ = ("id", "lock", "process", "request_q", "ready", "drained",
                 "stats", "draining", "dead", "spool_loaded", "routed",
                 "completed", "pid")

    def __init__(self, shard_id: int):
        self.id = shard_id
        self.lock = threading.Lock()   # guards process/request_q/dead
        self.process = None
        self.request_q = None
        self.ready = threading.Event()
        self.drained = threading.Event()
        self.stats: StatsMsg | None = None
        self.draining = False
        self.dead = False
        self.spool_loaded = 0
        self.routed = 0
        self.completed = 0             # answers pumped back to callers
        self.pid = None


class ShardedSolveService:
    """N-process serving tier with pattern-affinity routing.

    Parameters
    ----------
    shards:
        Worker process count (>= 1).
    config:
        The :class:`ServiceConfig` every worker's inner ``SolveService``
        runs with.  Its ``queue_capacity`` also bounds the requests in
        flight to one shard (admitted by the router, not yet answered):
        a full shard rejects with :class:`ServiceOverloaded` (carrying
        ``shard``) while the other shards keep admitting.
    spool_dir:
        Warm-start spool directory shared by all shards (see
        :mod:`repro.service.shard.spool`); ``None`` disables
        persistence.
    tracer:
        A :class:`repro.obs.Tracer` to attach the ``service/shards``
        span to; defaults to the ambient tracer of the constructing
        thread when one is installed.
    auto_start:
        Spawn the shards immediately (pass False to register matrices
        and tenants first, then call :meth:`start`).
    """

    def __init__(self, shards: int = 2, config: ServiceConfig | None = None,
                 spool_dir=None, tracer: Tracer | None = None,
                 auto_start: bool = True):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = (config or ServiceConfig()).validate()
        self.spool_dir = str(spool_dir) if spool_dir is not None else None
        if tracer is None:
            ambient = get_tracer()
            tracer = ambient if ambient.enabled else None
        self._tracer = tracer
        self._span: Span | None = None

        self._ctx = mp.get_context("spawn")
        self._response_q = None
        self._shards = [_Shard(i) for i in range(shards)]
        self._door = FrontDoor(_COUNTERS)

        # router id -> (PendingSolve, shard id): the answers still owed
        self._inflight: dict[str, tuple[PendingSolve, int]] = {}
        self._inflight_count = [0] * shards
        self._inflight_lock = threading.Lock()

        self._seq = itertools.count()
        self._state_lock = threading.Lock()
        self._started = False
        self._pump_stop = threading.Event()
        self._monitor_stop = threading.Event()
        self._pump = None
        self._monitor = None
        if auto_start:
            self.start()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def shards(self) -> int:
        return len(self._shards)

    def start(self) -> "ShardedSolveService":
        """Spawn the worker processes and wait until every shard's
        inner service is up (idempotent)."""
        with self._state_lock:
            if self._door.closed:
                raise ServiceClosed()
            if self._started:
                return self
            self._started = True
        if self._tracer is not None:
            span = Span("service/shards", t_start=self._tracer.clock())
            span.attrs.update(shards=self.shards,
                              queue_capacity=self.config.queue_capacity,
                              spool=self.spool_dir or "")
            self._span = span
            self._tracer.current.children.append(span)
        self._response_q = self._ctx.Queue()
        self._pump = threading.Thread(target=self._pump_loop,
                                      name="repro-shard-pump", daemon=True)
        self._pump.start()
        for shard in self._shards:
            self._spawn(shard)
        for shard in self._shards:
            if not shard.ready.wait(_START_TIMEOUT):
                self.close()
                raise ServiceError(
                    f"shard {shard.id} did not come up within "
                    f"{_START_TIMEOUT:.0f}s")
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="repro-shard-monitor",
                                         daemon=True)
        self._monitor.start()
        return self

    def _spawn(self, shard: _Shard):
        """Start (or restart) one worker process on a fresh request
        queue.  The registry is replayed into it under the shard's lock,
        the lock ``register_matrix`` broadcasts under, so the worker
        holds every registered matrix before any request reaches it.
        The queue a respawn replaces is retired."""
        request_q = self._ctx.Queue()
        process = self._ctx.Process(
            target=shard_main,
            args=(shard.id, self.config, request_q, self._response_q,
                  self.spool_dir),
            name=f"repro-shard-{shard.id}", daemon=True)
        shard.ready.clear()
        with shard.lock:
            for key, a in self._door.matrices():
                request_q.put(RegisterMsg(key=key, matrix=a))
            process.start()
            old_q, shard.request_q = shard.request_q, request_q
            shard.process = process
            shard.dead = False
        if old_q is not None:
            _retire(old_q)

    def close(self):
        """Graceful drain: every shard finishes what it accepted, spools
        its plans, reports final stats, and exits (idempotent)."""
        if not self._door.close():
            return
        self._monitor_stop.set()
        if self._monitor is not None:
            self._monitor.join()
        for shard in self._shards:
            with shard.lock:
                shard.draining = True
                if not shard.dead and shard.request_q is not None:
                    shard.request_q.put(DrainMsg())
        for shard in self._shards:
            if shard.process is None:
                continue
            shard.process.join(timeout=_START_TIMEOUT)
            if shard.process.is_alive():   # pragma: no cover - stuck shard
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            if not shard.drained.is_set():
                # died (or was killed) mid-drain: its in-flight requests
                # get the structured failure, not a hang
                self._fail_inflight(shard.id, shard.process.exitcode)
        # let the pump absorb every already-sent result, then stop it
        deadline = time.monotonic() + 5.0
        while self._inflight and time.monotonic() < deadline:
            time.sleep(0.05)
        self._pump_stop.set()
        if self._pump is not None:
            self._pump.join()
        for shard in self._shards:
            with shard.lock:
                request_q, shard.request_q = shard.request_q, None
            if request_q is not None:
                _retire(request_q)
        if self._response_q is not None:
            _retire(self._response_q)
        # anything still unanswered belongs to a shard that vanished
        self._fail_inflight()
        if self._span is not None:
            self._finish_span()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # admission + routing (caller threads)
    # ------------------------------------------------------------------ #

    def register_matrix(self, key: str, a: CSCMatrix):
        """Register ``a`` under ``key`` on every shard (a shard spawned
        later gets it with the registry's replay).  Raises
        :class:`ServiceClosed` once the tier is closed."""
        self._door.register_matrix(key, a)
        msg = RegisterMsg(key=key, matrix=a)
        for shard in self._shards:
            with shard.lock:
                if not shard.dead and shard.request_q is not None:
                    shard.request_q.put(msg)
        return self

    def register_tenant(self, spec):
        """Register a tenant SLO class tier-wide.

        Quota, priority and deadline tier resolve *here*, at the
        router — one global token bucket per tenant, not one per shard,
        so a tenant's provisioned rate means the same thing at any
        shard count.  Shards receive the already-resolved priority and
        remaining deadline plus the tenant name for accounting."""
        self._door.register_tenant(spec)
        return self

    def submit(self, request: SolveRequest) -> PendingSolve:
        """Route one request to its pattern's shard; returns the future.

        Raises :class:`ServiceOverloaded` (that shard's in-flight window
        is full — the rejection names the shard), :class:`ShardDied`
        (routed to a shard in its respawn gap),
        :class:`ServiceClosed`, ``TypeError`` for a complex system
        (the tier's transport is float64), or — for a keyed request —
        :class:`~repro.service.api.UnknownMatrixError` / ``ValueError``
        (:meth:`SolveRequest.resolve_matrix`), before a message exists.
        """
        if not self._started:
            raise ServiceClosed()
        matrix = self._door.resolve(request)
        if np.iscomplexobj(request.b) or np.iscomplexobj(matrix.nzval):
            raise TypeError(
                "the sharded tier is real-only (its messages carry "
                "float64); complex systems are served by the in-process "
                "SolveService")
        priority, deadline = self._door.admit(request, time.perf_counter())
        sid = route(pattern_fingerprint(matrix), range(self.shards))
        shard = self._shards[sid]

        router_id = f"r-{next(self._seq)}"
        pending = PendingSolve(request)
        capacity = self.config.queue_capacity
        with self._inflight_lock:
            if self._inflight_count[sid] >= capacity:
                self._door.count("service.shard.rejected_overload")
                raise ServiceOverloaded(capacity, self._inflight_count[sid],
                                        shard=sid)
            self._inflight_count[sid] += 1
            self._inflight[router_id] = (pending, sid)

        try:
            msg = SubmitMsg(
                router_id=router_id, request_id=request.request_id,
                matrix=request.matrix,
                b=np.ascontiguousarray(request.b, dtype=np.float64),
                options=request.options,
                deadline_remaining=deadline,
                tenant=request.tenant, priority=priority)
            with shard.lock:
                if shard.dead:
                    raise ShardDied(sid, None)
                if shard.request_q is None:    # retired by close()
                    raise ServiceClosed()
                shard.request_q.put(msg)
                shard.routed += 1
        except BaseException:
            with self._inflight_lock:
                if self._inflight.pop(router_id, None) is not None:
                    self._inflight_count[sid] -= 1
            raise
        self._door.count("service.shard.requests")
        return pending

    # ------------------------------------------------------------------ #
    # response pump
    # ------------------------------------------------------------------ #

    def _pump_loop(self):
        while True:
            try:
                msg = pickle.loads(self._response_q.get(timeout=0.1))
            except Empty:
                if self._pump_stop.is_set():
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - queue gone
                return
            if isinstance(msg, ResultMsg):
                self._on_result(msg)
            elif isinstance(msg, ReadyMsg):
                shard = self._shards[msg.shard_id]
                shard.spool_loaded = msg.spool_loaded
                shard.pid = msg.pid
                self._door.count("service.shard.spool_loaded", msg.spool_loaded)
                shard.ready.set()
            elif isinstance(msg, StatsMsg):
                shard = self._shards[msg.shard_id]
                shard.stats = msg
                self._door.count("service.shard.spool_saved", msg.spool_saved)
                shard.drained.set()

    def _on_result(self, msg: ResultMsg):
        with self._inflight_lock:
            entry = self._inflight.pop(msg.router_id, None)
            if entry is None:
                # already failed by the monitor (its shard was declared
                # dead while this answer was in the pipe)
                return
            pending, sid = entry
            self._inflight_count[sid] -= 1
        self._door.count("service.shard.completed")
        self._shards[sid].completed += 1    # pump thread only
        pending._complete(msg.response)

    # ------------------------------------------------------------------ #
    # liveness monitor
    # ------------------------------------------------------------------ #

    def _monitor_loop(self):
        while not self._monitor_stop.wait(0.05):
            for shard in self._shards:
                if shard.process is None or shard.draining or shard.dead:
                    continue
                if not shard.process.is_alive():
                    self._on_shard_death(shard)

    def _on_shard_death(self, shard: _Shard):
        with shard.lock:
            if shard.dead:
                return
            shard.dead = True
            exitcode = shard.process.exitcode
        # not ready again until the replacement's handshake — before any
        # in-flight future completes, so a caller that sees ShardDied and
        # then wait_ready() is guaranteed to wait for the new process
        shard.ready.clear()
        self._door.count("service.shard.deaths")
        self._fail_inflight(shard.id, exitcode)
        if not self._door.closed:
            self._door.count("service.shard.respawns")
            self._spawn(shard)

    def _fail_inflight(self, shard_id: int | None = None, exitcode=None):
        """Answer every request in flight to ``shard_id`` (to any shard
        when None) with the structured :class:`ShardDied` failure: the
        tier never hangs a caller."""
        with self._inflight_lock:
            victims = [self._inflight.pop(rid) for rid, (_, sid)
                       in list(self._inflight.items())
                       if shard_id in (None, sid)]
            for _, sid in victims:
                self._inflight_count[sid] -= 1
        for pending, sid in victims:
            pending._complete(SolveResponse(
                request_id=pending.request.request_id,
                error=ShardDied(sid, exitcode)))

    # ------------------------------------------------------------------ #
    # test/ops hooks
    # ------------------------------------------------------------------ #

    def pause_shard(self, shard_id: int, seconds: float):
        """Stall one shard's receive loop (deterministic overload /
        death-window setup for tests and drills)."""
        shard = self._shards[shard_id]
        with shard.lock:
            if shard.dead or shard.request_q is None:
                raise ShardDied(shard_id, None)
            shard.request_q.put(PauseMsg(seconds=float(seconds)))

    def shard_pid(self, shard_id: int) -> int | None:
        """The worker process id of one shard (None before ready)."""
        return self._shards[shard_id].pid

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Block until every (re)spawned shard is up again."""
        ok = True
        for shard in self._shards:
            ok = shard.ready.wait(timeout) and ok
        return ok

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Router counters plus (after ``close``) the summed inner
        ``service.*`` counters of every drained shard."""
        counters = self._door.stats()
        counters["shards"] = self.shards
        with self._inflight_lock:
            counters["inflight"] = len(self._inflight)
        for shard in self._shards:
            if shard.stats is not None:
                for key, value in shard.stats.counters.items():
                    if isinstance(value, (int, float)):
                        counters[key] = counters.get(key, 0) + value
        return counters

    def shard_stats(self) -> dict[int, StatsMsg]:
        """Per-shard final :class:`StatsMsg` (populated by ``close``)."""
        return {s.id: s.stats for s in self._shards if s.stats is not None}

    def _finish_span(self):
        clock = self._tracer.clock()
        for shard in self._shards:
            child = Span(f"shard[{shard.id}]", t_start=self._span.t_start)
            child.t_end = clock
            child.attrs.update(routed=shard.routed,
                               completed=shard.completed,
                               spool_loaded=shard.spool_loaded)
            if shard.stats is not None:
                child.attrs.update(
                    cache_hits=shard.stats.cache_hits,
                    cache_misses=shard.stats.cache_misses,
                    spool_saved=shard.stats.spool_saved)
            self._span.children.append(child)
        self._span.t_end = clock
