"""The shard worker process: one ``SolveService`` behind two queues.

``shard_main`` is the ``multiprocessing`` (spawn) entry point.  Each
worker owns a private :class:`~repro.driver.factcache.FactorizationCache`
— warm for exactly the patterns the router's affinity hashing sends it —
and runs the unmodified in-process :class:`~repro.service.server.
SolveService` loop: admission, same-pattern coalescing into multi-RHS
block solves, per-member certification, recovery retries.  The process
boundary is pure transport; every serving semantic lives in the inner
service, so the sharded tier and the single-process service can never
drift apart behaviorally.

Request flow: the receive loop admits :class:`SubmitMsg`s (matrix and
RHS inside the message) into the inner service, and completion
callbacks — running on the inner service's thread — push a
:class:`ResultMsg` with the solution inside the response.  Every message
to the router is pickled before it is put, so a response that does not
pickle is answered with a structured error instead of being dropped on
the queue's feeder thread.  The receive loop never blocks on numerics
and keeps absorbing a burst while earlier requests factor, which is
what lets the inner service coalesce across the pipe.

Warm start: with a spool directory, plans are preloaded into the cache
before the first request (a respawned shard skips ``DOFACT`` for every
pattern it served before) and newly published plans are spooled after
each completion and again at drain.
"""

from __future__ import annotations

import os
import pickle
import threading
import time

from repro.driver.factcache import FactorizationCache
from repro.service.api import (
    DeadlineExceeded,
    ServiceError,
    ServiceOverloaded,
    SolveRequest,
    SolveResponse,
)
from repro.service.server import SolveService
from repro.service.shard import spool as _spool
from repro.service.shard.messages import (
    DrainMsg,
    PauseMsg,
    ReadyMsg,
    RegisterMsg,
    ResultMsg,
    StatsMsg,
    SubmitMsg,
)

__all__ = ["shard_main"]

# plans one shard's private FactorizationCache holds
_CACHE_SIZE = 128


class _ShardWorker:
    def __init__(self, shard_id, config, request_q, response_q,
                 spool_dir=None):
        self.shard_id = shard_id
        self.request_q = request_q
        self.response_q = response_q
        self.spool_dir = spool_dir
        self.cache = FactorizationCache(maxsize=_CACHE_SIZE)
        self.spool_loaded = 0
        if spool_dir is not None:
            self.spool_loaded = _spool.load_plans(spool_dir, self.cache)
        self._spooled = {p.key for p in self.cache.snapshot()}
        self._spool_lock = threading.Lock()
        self.spool_saved = 0
        self.service = SolveService(config, cache=self.cache)

    # ------------------------------------------------------------------ #

    def run(self):
        self._put(ReadyMsg(shard_id=self.shard_id, pid=os.getpid(),
                           spool_loaded=self.spool_loaded))
        while True:
            msg = self.request_q.get()
            if isinstance(msg, SubmitMsg):
                self._submit(msg)
            elif isinstance(msg, RegisterMsg):
                self.service.register_matrix(msg.key, msg.matrix)
            elif isinstance(msg, PauseMsg):
                time.sleep(msg.seconds)
            elif isinstance(msg, DrainMsg):
                break
        self.service.close()           # finishes everything admitted
        self._sync_spool()
        cs = self.cache.stats()
        self._put(StatsMsg(
            shard_id=self.shard_id, counters=self.service.stats(),
            cache_hits=cs.hits, cache_misses=cs.misses,
            spool_saved=self.spool_saved))

    def _put(self, msg):
        self.response_q.put(pickle.dumps(msg))

    # ------------------------------------------------------------------ #

    def _submit(self, msg: SubmitMsg):
        try:
            remaining = msg.remaining_deadline()
            if remaining is not None and remaining <= 0.0:
                # the budget died in the pipe: expire, never solve late
                self._respond(msg, SolveResponse(
                    request_id=msg.request_id,
                    error=DeadlineExceeded(
                        msg.deadline_remaining,
                        time.time() - msg.t_sent_wall)))
                return
            request = SolveRequest(
                matrix=msg.matrix, b=msg.b, deadline=remaining,
                options=msg.options, request_id=msg.request_id,
                tenant=msg.tenant, priority=msg.priority)
            pending = self.service.submit(request)
        except ServiceOverloaded as exc:
            self._respond(msg, SolveResponse(
                request_id=msg.request_id,
                error=ServiceOverloaded(exc.capacity, exc.pending,
                                        shard=self.shard_id)))
            return
        except ServiceError as exc:
            self._respond(msg, SolveResponse(
                request_id=msg.request_id, error=exc))
            return
        except Exception as exc:       # noqa: BLE001 — must answer
            self._respond(msg, SolveResponse(
                request_id=msg.request_id,
                error=ServiceError(f"shard admission failed: {exc!r}")))
            return
        pending.add_done_callback(
            lambda response: self._respond(msg, response))

    def _respond(self, msg: SubmitMsg, response: SolveResponse):
        """Ship one response (on the completing thread), pickled once,
        here, so a failure to serialize still answers the caller."""
        try:
            blob = pickle.dumps(ResultMsg(
                shard_id=self.shard_id, router_id=msg.router_id,
                response=response))
        except Exception as exc:       # noqa: BLE001 — unpicklable payload
            blob = pickle.dumps(ResultMsg(
                shard_id=self.shard_id, router_id=msg.router_id,
                response=SolveResponse(
                    request_id=msg.request_id,
                    error=ServiceError(
                        f"shard {self.shard_id} could not serialize the "
                        f"response: {exc!r}"))))
        self.response_q.put(blob)
        if self.spool_dir is not None:
            self._sync_spool()

    def _sync_spool(self):
        if self.spool_dir is None:
            return
        with self._spool_lock:
            try:
                self.spool_saved += _spool.save_plans(
                    self.spool_dir, self.cache.snapshot(), self._spooled)
            except OSError:            # disk trouble never fails a solve
                pass


def shard_main(shard_id, config, request_q, response_q, spool_dir=None):
    """Process entry point (spawn-safe: importable at module top level)."""
    _ShardWorker(shard_id, config, request_q, response_q,
                 spool_dir=spool_dir).run()
