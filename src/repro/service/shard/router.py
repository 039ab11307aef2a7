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

- **caller threads** (``submit``): resolve the pattern fingerprint,
  route (HRW top rank, or the less-loaded replica for hot patterns),
  enforce per-shard admission (bounded in-flight window — a full shard
  sheds with :class:`ServiceOverloaded` carrying the shard id while the
  others keep admitting), and ship a :class:`SubmitMsg` carrying the
  request's matrix (or key) and right-hand side;
- the **response pump** thread: drains the single shared response
  queue and completes futures with the responses, solutions inside;
- the **monitor** thread: watches worker liveness; a dead shard has its
  in-flight requests failed with :class:`ShardDied` (structured — a
  crash is an answer, never a hang) and is respawned with its matrix
  registry replayed; the spool directory makes the respawn warm.

Determinism: routing is a pure function of (fingerprint, shard set),
and each request is solved by one inner ``SolveService`` under exactly
the single-process semantics — solutions are bit-identical to the
in-process service, with coalescing on or off (an answer does not depend
on its batch-mates), which tests/test_shard.py asserts.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from dataclasses import replace as _dc_replace
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
from repro.service.server import TenantAdmission
from repro.service.shard.messages import (
    DrainMsg,
    PauseMsg,
    ReadyMsg,
    RegisterMsg,
    ResultMsg,
    StatsMsg,
    SubmitMsg,
)
from repro.service.shard.routing import (
    HotPatternTracker,
    rendezvous_rank,
    route,
)
from repro.service.shard.worker import shard_main
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import pattern_fingerprint

__all__ = ["ShardedSolveService"]


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


class _Inflight:
    """One routed request the router still owes an answer for."""

    __slots__ = ("pending", "shard_id")

    def __init__(self, pending, shard_id):
        self.pending = pending
        self.shard_id = shard_id


class ShardedSolveService:
    """N-process serving tier with pattern-affinity routing.

    Parameters
    ----------
    shards:
        Worker process count (>= 1).
    config:
        The inner per-shard :class:`ServiceConfig` (each worker runs a
        full ``SolveService`` with these knobs; its ``queue_capacity``
        is overridden by ``per_shard_capacity``).
    per_shard_capacity:
        Bound on requests in flight to one shard (admitted by the
        router, not yet answered); a full shard rejects with
        :class:`ServiceOverloaded` (carrying ``shard``) while the other
        shards keep admitting.  Defaults to ``config.queue_capacity``.
    spool_dir:
        Warm-start spool directory shared by all shards (see
        :mod:`repro.service.shard.spool`); ``None`` disables
        persistence.
    hot_rps:
        Replication threshold: a pattern sustaining this many requests
        per second gets a second warm shard (its HRW runner-up) and
        subsequent requests go to the less-loaded replica.  ``None``
        (default) disables replication.
    respawn:
        Respawn dead shards (default True; tests disable to observe).
    cache_size:
        Each shard's private :class:`FactorizationCache` capacity.
    """

    def __init__(self, shards: int = 2, config: ServiceConfig | None = None,
                 per_shard_capacity: int | None = None,
                 spool_dir=None, hot_rps: float | None = None,
                 respawn: bool = True,
                 cache_size: int = 128, tracer: Tracer | None = None,
                 start_timeout: float = 120.0, auto_start: bool = True):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.config = (config or ServiceConfig()).validate()
        if per_shard_capacity is None:
            per_shard_capacity = self.config.queue_capacity
        if per_shard_capacity < 1:
            raise ValueError("per_shard_capacity must be >= 1")
        self.per_shard_capacity = int(per_shard_capacity)
        self.spool_dir = str(spool_dir) if spool_dir is not None else None
        self.respawn = respawn
        self.cache_size = int(cache_size)
        self.start_timeout = float(start_timeout)
        if tracer is None:
            ambient = get_tracer()
            tracer = ambient if ambient.enabled else None
        self._tracer = tracer
        self._span: Span | None = None

        # the config each worker process runs its inner service with:
        # its admission bound mirrors the router's per-shard window
        self._worker_config = _dc_replace(
            self.config, queue_capacity=self.per_shard_capacity)

        self._ctx = mp.get_context("spawn")
        self._response_q = None
        self._shards = [_Shard(i) for i in range(shards)]
        self._matrices: dict[str, CSCMatrix] = {}
        self._fingerprints: dict[str, str] = {}
        self._tenants = TenantAdmission(self._count)

        self._inflight: dict[str, _Inflight] = {}
        self._inflight_count = [0] * shards
        self._inflight_lock = threading.Lock()

        self._hot = HotPatternTracker(hot_rps=hot_rps)
        self._replicas: dict[str, list[int]] = {}

        self._obs_lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._seq = itertools.count()
        self._state_lock = threading.Lock()
        self._started = False
        self._closing = False
        self._closed = False
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
            if self._closing:
                raise ServiceClosed()
            if self._started:
                return self
            self._started = True
        if self._tracer is not None:
            span = Span("service/shards", t_start=self._tracer.clock())
            span.attrs.update(shards=self.shards,
                              per_shard_capacity=self.per_shard_capacity,
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
            if not shard.ready.wait(self.start_timeout):
                self.close()
                raise ServiceError(
                    f"shard {shard.id} did not come up within "
                    f"{self.start_timeout:.0f}s")
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="repro-shard-monitor",
                                         daemon=True)
        self._monitor.start()
        return self

    def _spawn(self, shard: _Shard, replay: bool = False):
        """Start (or restart) one worker process.  Registered matrices
        are replayed into the fresh request queue before the process is
        published, so a respawned shard sees them before any request."""
        request_q = self._ctx.Queue()
        if replay:
            with self._state_lock:
                registry = list(self._matrices.items())
            for key, a in registry:
                request_q.put(RegisterMsg(key=key, matrix=a))
        process = self._ctx.Process(
            target=shard_main,
            args=(shard.id, self._worker_config, request_q,
                  self._response_q, self.spool_dir, self.cache_size),
            name=f"repro-shard-{shard.id}", daemon=True)
        shard.ready.clear()
        process.start()
        with shard.lock:
            shard.request_q = request_q
            shard.process = process
            shard.dead = False

    def close(self):
        """Graceful drain: every shard finishes what it accepted, spools
        its plans, reports final stats, and exits (idempotent)."""
        with self._state_lock:
            if self._closing:
                return
            self._closing = True
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
            shard.process.join(timeout=self.start_timeout)
            if shard.process.is_alive():   # pragma: no cover - stuck shard
                shard.process.terminate()
                shard.process.join(timeout=5.0)
            if not shard.drained.is_set():
                # died (or was killed) mid-drain: its in-flight requests
                # get the structured failure, not a hang
                self._fail_shard_inflight(shard, shard.process.exitcode)
        # let the pump absorb every already-sent result, then stop it
        deadline = 5.0
        while deadline > 0 and self._live_inflight():
            time.sleep(0.05)
            deadline -= 0.05
        self._pump_stop.set()
        if self._pump is not None:
            self._pump.join()
        self._drain_leftovers()
        if self._span is not None:
            self._finish_span()
        with self._state_lock:
            self._closed = True

    def _live_inflight(self) -> int:
        with self._inflight_lock:
            return len(self._inflight)

    def _drain_leftovers(self):
        """Complete anything still unanswered after the drain (a shard
        that vanished without trace) — the tier never hangs a caller."""
        with self._inflight_lock:
            leftovers = list(self._inflight.items())
            self._inflight.clear()
            self._inflight_count = [0] * self.shards
        for _rid, entry in leftovers:
            entry.pending._complete(SolveResponse(
                request_id=entry.pending.request.request_id,
                error=ShardDied(entry.shard_id, None)))

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # admission + routing (caller threads)
    # ------------------------------------------------------------------ #

    def register_matrix(self, key: str, a: CSCMatrix):
        """Register ``a`` under ``key`` on *every* shard (replicas of a
        hot pattern must already hold the matrix when traffic shifts)."""
        if not isinstance(a, CSCMatrix) or a.nrows != a.ncols:
            raise ValueError("register_matrix requires a square CSCMatrix")
        with self._state_lock:
            if self._closing:
                raise ServiceClosed()
            self._matrices[key] = a
            self._fingerprints[key] = pattern_fingerprint(a)
        msg = RegisterMsg(key=key, matrix=a)
        for shard in self._shards:
            with shard.lock:
                if not shard.dead and shard.request_q is not None:
                    shard.request_q.put(msg)

    def register_tenant(self, spec):
        """Register a tenant SLO class tier-wide.

        Quota, priority and deadline tier resolve *here*, at the
        router — one global token bucket per tenant, not one per shard,
        so a tenant's provisioned rate means the same thing at any
        shard count.  Shards receive the already-resolved priority and
        remaining deadline plus the tenant name for accounting."""
        self._tenants.register(spec)
        return self

    def _resolve_fingerprint(self, request: SolveRequest) -> str:
        if isinstance(request.matrix, str):
            with self._state_lock:     # submit checked the key is known
                return self._fingerprints[request.matrix]
        return pattern_fingerprint(request.matrix)

    def _pick_shard(self, fingerprint: str) -> int:
        ids = range(self.shards)
        replicas = self._replicas.get(fingerprint)
        if replicas:
            # hot pattern: less-loaded replica, HRW rank breaking ties
            with self._inflight_lock:
                return min(replicas,
                           key=lambda s: (self._inflight_count[s],
                                          replicas.index(s)))
        return route(fingerprint, ids)

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
        with self._state_lock:
            if self._closing or not self._started:
                raise ServiceClosed()
        request.validate()
        with self._state_lock:
            matrix = request.resolve_matrix(self._matrices)
        if np.iscomplexobj(request.b) or np.iscomplexobj(matrix.nzval):
            raise TypeError(
                "the sharded tier is real-only (its messages carry "
                "float64); complex systems are served by the in-process "
                "SolveService")
        if not request.request_id:
            request.request_id = f"req-{next(self._seq)}"
        priority, deadline = self._tenants.admit(request, time.perf_counter())
        fingerprint = self._resolve_fingerprint(request)

        if self._hot.note(fingerprint) and self.shards > 1:
            ranked = rendezvous_rank(fingerprint, range(self.shards))
            self._replicas[fingerprint] = ranked[:2]
            self._count("service.shard.replicated")
        sid = self._pick_shard(fingerprint)
        shard = self._shards[sid]

        router_id = f"r-{next(self._seq)}"
        pending = PendingSolve(request)
        with self._inflight_lock:
            if self._inflight_count[sid] >= self.per_shard_capacity:
                self._count("service.shard.rejected_overload")
                raise ServiceOverloaded(self.per_shard_capacity,
                                        self._inflight_count[sid],
                                        shard=sid)
            self._inflight_count[sid] += 1
            entry = _Inflight(pending, sid)
            self._inflight[router_id] = entry

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
                shard.request_q.put(msg)
        except BaseException:
            with self._inflight_lock:
                if self._inflight.pop(router_id, None) is not None:
                    self._inflight_count[sid] -= 1
            raise
        with self._obs_lock:
            self._counters["service.shard.requests"] = \
                self._counters.get("service.shard.requests", 0) + 1
            shard.routed += 1
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
                self._count("service.shard.spool_loaded", msg.spool_loaded)
                shard.ready.set()
            elif isinstance(msg, StatsMsg):
                shard = self._shards[msg.shard_id]
                shard.stats = msg
                self._count("service.shard.spool_saved", msg.spool_saved)
                shard.drained.set()

    def _on_result(self, msg: ResultMsg):
        with self._inflight_lock:
            entry = self._inflight.pop(msg.router_id, None)
            if entry is not None:
                self._inflight_count[entry.shard_id] -= 1
        if entry is None:
            # already failed by the monitor (its shard was declared dead
            # while this answer was in the pipe)
            return
        self._count("service.shard.completed")
        self._shards[entry.shard_id].completed += 1    # pump thread only
        entry.pending._complete(msg.response)

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
        self._count("service.shard.deaths")
        self._fail_shard_inflight(shard, exitcode)
        if self.respawn and not self._closing:
            self._count("service.shard.respawns")
            self._spawn(shard, replay=True)

    def _fail_shard_inflight(self, shard: _Shard, exitcode):
        """Answer every in-flight request of ``shard`` with the
        structured :class:`ShardDied` failure."""
        with self._inflight_lock:
            victims = [(rid, e) for rid, e in self._inflight.items()
                       if e.shard_id == shard.id]
            for rid, _ in victims:
                del self._inflight[rid]
            self._inflight_count[shard.id] = 0
        for _rid, entry in victims:
            entry.pending._complete(SolveResponse(
                request_id=entry.pending.request.request_id,
                error=ShardDied(shard.id, exitcode)))

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

    def _count(self, name: str, value: float = 1):
        with self._obs_lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def stats(self) -> dict:
        """Router counters plus (after ``close``) the summed inner
        ``service.*`` counters of every drained shard."""
        with self._obs_lock:
            counters = dict(self._counters)
        counters.setdefault("service.shard.requests", 0)
        counters.setdefault("service.shard.completed", 0)
        counters.setdefault("service.shard.rejected_overload", 0)
        counters.setdefault("service.shard.deaths", 0)
        counters.setdefault("service.shard.respawns", 0)
        counters.setdefault("service.shard.replicated", 0)
        counters["shards"] = self.shards
        counters["replicated_patterns"] = len(self._replicas)
        tenants = self._tenants.counts()
        if tenants:
            counters["tenants"] = tenants
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
