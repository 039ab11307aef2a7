"""The concurrent solve service: admission → coalescing → block solve.

Request lifecycle (docs/SERVICE.md has the full walkthrough)::

    submit(SolveRequest) ──► AdmissionQueue (bounded; ServiceOverloaded
         │                      when full, expired entries evicted with
         │                      DeadlineExceeded to make room)
         ▼
    service thread ── takes at most max_batch entries, best priority
         │            first; sleeps what is left of batch_window for the
         │            oldest of them, then coalesces by (plan key, values
         │            signature, numeric options).  Everything else waits
         │            in the queue — bounded, priority-ordered,
         │            displaceable — while the batches below run
         ▼
    per batch, on that same thread:
         │          cold pattern → DOFACT: the whole pipeline; its transforms,
         │                         structures and value map become the
         │                         pattern's *anchor*; plan published
         │          new values   → SAME_PATTERN_SAME_ROWPERM: the anchor
         │                         moves the numbers, step (3) re-runs — no
         │                         equilibration, no MC64
         │          same values  → factors reused as-is (FACTORED)
         │        then ONE multi-RHS solve for the whole batch; a column its
         │        berr certificate rejects on an anchor matched on other
         │        values → one re-anchor (a SAME_PATTERN refactorization),
         │        then that column is solved again
         ▼
    per-request SolveReport — members still uncertified are retried
    individually through the repro.recovery ladder, opened on the
    resident factors; every future completes exactly once.

So a warm answer is a function of ``(A, b, anchor)``: certified or flagged
like every answer, but from factors scaled and permuted for the values
the pattern was last matched on (docs/REFACTORIZATION.md).

Threading model: caller threads admit (including the pattern
fingerprint); one service thread batches and solves.  The block engine
and the solve sweeps are hundreds of short numpy calls, so two threads
of numerics trade the GIL instead of overlapping (measured:
docs/SERVICE.md) — parallel numerics are the shard tier's job — and the
cost is that a cold analysis on one pattern delays warm requests on
another.  The ambient tracer is per-thread (:mod:`repro.obs.tracer`):
each traced batch collects into a private tracer whose finished span
tree is merged under the service span, and ``service.*`` counters are
written under one lock, since callers count admissions while the
service thread counts answers.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from contextlib import nullcontext

import numpy as np

from repro.driver.gesp_driver import GESPSolver, SolveReport
from repro.obs import Span, Tracer, get_tracer, use_tracer
from repro.service.api import (
    DeadlineExceeded,
    PendingSolve,
    QuotaExceeded,
    ServiceClosed,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    SolveRequest,
    SolveResponse,
)
from repro.service.batcher import (
    Batch,
    coalesce,
    factor_options_key,
    group_key,
)
from repro.service.queue import AdmissionQueue, QueuedRequest, TokenBucket
from repro.sparse.csc import CSCMatrix

__all__ = ["FACT_COUNTERS", "FrontDoor", "SolveService"]

_clock = time.perf_counter

# SolveResponse.fact -> the counter of answers that mode produced
FACT_COUNTERS = {
    "DOFACT": "service.fact_dofact",
    "SAME_PATTERN_SAME_ROWPERM": "service.fact_same_rowperm",
    "SAME_PATTERN": "service.fact_same_pattern",
    "FACTORED": "service.fact_factored",
}


def _column_reports(solver: GESPSolver, b_block) -> list[SolveReport]:
    """``solver.solve_multi(b_block)`` as one report per column."""
    res = solver.solve_multi(b_block)
    return [SolveReport(x=np.ascontiguousarray(res.x[:, t]),
                        berr=float(res.berrs[t]),
                        refine_steps=int(res.col_steps[t]),
                        converged=bool(res.col_converged[t]))
            for t in range(b_block.shape[1])]


class _TenantState:
    """Per-tenant SLO state: the spec, its quota bucket, its counts."""

    __slots__ = ("spec", "bucket", "counts")

    def __init__(self, spec):
        self.spec = spec
        rate = getattr(spec, "quota_rps", None)
        self.bucket = None if rate is None else TokenBucket(
            rate, getattr(spec, "quota_burst", 1.0) or 1.0)
        self.counts = {"requests": 0, "quota_shed": 0, "displaced": 0}


class FrontDoor:
    """What a request meets first, on either tier — :class:`SolveService`,
    or the sharded router in front of one per shard: the registered
    matrices and tenant classes, the checks ``submit`` runs before a
    queue or a message is touched, and the tier's counters.  A tenant's
    quota is charged here, so once, whichever tier holds the door.

    ``counters`` names the counters every ``stats()`` reports, zero
    included.  A span handed to :meth:`attach` mirrors every count from
    then on."""

    def __init__(self, counters=()):
        self._lock = threading.Lock()
        self._matrices: dict[str, CSCMatrix] = {}
        self._tenants: dict[str, _TenantState] = {}
        self._seq = 0
        self.closed = False
        self._counters: dict[str, float] = dict.fromkeys(counters, 0)
        self._span: Span | None = None

    def close(self) -> bool:
        """Admit and register nothing more; False if already closed."""
        with self._lock:
            was_closed, self.closed = self.closed, True
        return not was_closed

    def register_matrix(self, key: str, a: CSCMatrix):
        if not isinstance(a, CSCMatrix) or a.nrows != a.ncols:
            raise ValueError("register_matrix requires a square CSCMatrix")
        with self._lock:
            if self.closed:
                raise ServiceClosed()
            self._matrices[key] = a

    def matrices(self) -> list[tuple[str, CSCMatrix]]:
        """The registry's ``(key, matrix)`` pairs, oldest first."""
        with self._lock:
            return list(self._matrices.items())

    def register_tenant(self, spec):
        name = str(getattr(spec, "name", "") or "")
        if not name:
            raise ValueError("tenant spec needs a non-empty name")
        with self._lock:
            self._tenants[name] = _TenantState(spec)

    def resolve(self, request: SolveRequest) -> CSCMatrix:
        """Check ``request`` (:meth:`SolveRequest.validate`, then the
        registry for a keyed one), give it an id if it has none, and
        return its matrix.  Raises :class:`ServiceClosed`, ``TypeError``,
        ``ValueError`` or :class:`~repro.service.api.UnknownMatrixError`."""
        if self.closed:
            raise ServiceClosed()
        request.validate()
        with self._lock:
            matrix = request.resolve_matrix(self._matrices)
            if not request.request_id:
                self._seq += 1
                request.request_id = f"req-{self._seq}"
        return matrix

    def admit(self, request: SolveRequest, now: float):
        """Resolve the request's effective (priority, relative deadline)
        from its tenant class and charge the class's quota bucket;
        raises :class:`QuotaExceeded` when the bucket is dry."""
        with self._lock:
            tstate = self._tenants.get(request.tenant)
            if tstate is None:       # no tenant, or an unregistered name
                return int(request.priority or 0), request.deadline
            tstate.counts["requests"] += 1
            shed = (tstate.bucket is not None
                    and not tstate.bucket.try_take(now))
            tstate.counts["quota_shed"] += shed
        self.count("service.tenant_requests")
        if shed:
            self.count("service.tenant_quota_shed")
            raise QuotaExceeded(request.tenant, tstate.bucket.rate,
                                tstate.bucket.burst)
        priority, deadline = request.priority, request.deadline
        if priority is None:
            priority = getattr(tstate.spec, "priority", 0)
        if deadline is None:
            deadline = getattr(tstate.spec, "deadline", None)
        return int(priority or 0), deadline

    def displaced(self, tenant):
        """A higher-priority arrival bumped one of ``tenant``'s queued
        requests."""
        self.count("service.tenant_displaced")
        with self._lock:
            tstate = self._tenants.get(tenant)
            if tstate is not None:
                tstate.counts["displaced"] += 1

    def attach(self, span: Span):
        """Mirror the counters into ``span``, the ones so far included."""
        with self._lock:
            self._span = span
            span.counters.update(self._counters)

    def count(self, name: str, value=1):
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value
            if self._span is not None:
                c = self._span.counters
                c[name] = c.get(name, 0) + value

    def stats(self) -> dict:
        """The counters, plus ``tenants``:
        ``{tenant: {requests, quota_shed, displaced}}`` once a class is
        registered."""
        with self._lock:
            counters = dict(self._counters)
            if self._tenants:
                counters["tenants"] = {name: dict(st.counts)
                                       for name, st in self._tenants.items()}
        return counters


class _PatternState:
    """Per-pattern mutable state: the solver — whose ``perm_r``, ``Dr``,
    ``Dc``, ``perm_c``, symbolic structures and value map are the
    pattern's anchor — the values its factors are of, and the values the
    anchor was matched on."""

    __slots__ = ("solver", "values_sig", "anchor_sig")

    def __init__(self):
        self.solver: GESPSolver | None = None
        self.values_sig: str | None = None
        self.anchor_sig: str | None = None


class SolveService:
    """Factor-once-serve-many as a long-lived concurrent service.

    Parameters
    ----------
    config:
        A :class:`~repro.service.api.ServiceConfig` (defaults when
        omitted).
    cache:
        The :class:`~repro.driver.factcache.FactorizationCache` cold
        factorizations publish their plans to; the process-wide
        ``FACTOR_CACHE`` by default, ``False`` to disable publication.
    tracer:
        A :class:`repro.obs.Tracer` to attach the ``service`` span (and
        every batch's span tree) to; defaults to the ambient tracer of
        the constructing thread when one is installed.
    auto_start:
        Start the service thread immediately (pass False to stage
        requests first — tests use this to make queue behavior
        deterministic — then call :meth:`start`).

    Usage::

        with SolveService() as svc:
            pending = [svc.submit(SolveRequest(a, b)) for b in rhs_stream]
            reports = [p.result().result() for p in pending]
    """

    def __init__(self, config: ServiceConfig | None = None, cache=None,
                 tracer: Tracer | None = None, auto_start: bool = True):
        self.config = (config or ServiceConfig()).validate()
        if cache is None:
            from repro.driver.factcache import FACTOR_CACHE

            self._cache = FACTOR_CACHE
        else:
            self._cache = cache            # False disables publication
        if tracer is None:
            ambient = get_tracer()
            tracer = ambient if ambient.enabled else None
        self._tracer = tracer
        self._span: Span | None = None
        self._obs_lock = threading.Lock()     # the span's children
        # what every stats() answers, zero included: how each answer was
        # produced and what the warm path had to repair
        self._door = FrontDoor((*FACT_COUNTERS.values(),
                                "service.reanchored", "service.recovered"))
        self._queue = AdmissionQueue(self.config.queue_capacity)
        self._thread: threading.Thread | None = None
        self._patterns: dict[tuple, _PatternState] = {}
        self._state_lock = threading.Lock()
        self._started = False
        if auto_start:
            self.start()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self):
        """Start the service thread (idempotent)."""
        with self._state_lock:
            if self._started:
                return self
            if self._door.closed:
                raise ServiceClosed("cannot start a closed service")
            self._started = True
        if self._tracer is not None and self._span is None:
            span = Span("service", t_start=self._tracer.clock())
            span.attrs.update(queue_capacity=self.config.queue_capacity,
                              batch_window=self.config.batch_window,
                              max_batch=self.config.max_batch)
            self._span = span
            self._door.attach(span)
            self._tracer.current.children.append(span)
        self._thread = threading.Thread(target=self._serve_loop,
                                        name="repro-service", daemon=True)
        self._thread.start()
        return self

    def close(self):
        """Graceful shutdown: stop admission, finish everything queued,
        join the service thread (idempotent).  Requests still queued
        when the service was never started are rejected with
        ``ServiceClosed``."""
        if not self._door.close():
            return
        self._queue.close()
        if self._thread is not None:
            self._thread.join()
        for entry in self._queue.drain_nowait():
            entry.pending._complete(SolveResponse(
                request_id=entry.request.request_id,
                error=ServiceClosed("service closed before the request "
                                    "was dispatched")))
        if self._span is not None:
            self._span.t_end = self._tracer.clock()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # admission (caller threads)
    # ------------------------------------------------------------------ #

    def register_matrix(self, key: str, a: CSCMatrix):
        """Register ``a`` under ``key`` so requests can reference it by
        name instead of shipping the values each time.  Raises
        :class:`ServiceClosed` once the service is closed."""
        self._door.register_matrix(key, a)
        return self

    def register_tenant(self, spec):
        """Register a tenant SLO class under its ``name``.

        ``spec`` is duck-typed — any object with a ``name`` plus
        optional ``priority`` (int, queue ordering), ``deadline``
        (seconds, the tier's default budget), ``quota_rps`` /
        ``quota_burst`` (token-bucket admission quota) works;
        :class:`repro.workload.tenants.TenantSpec` is the canonical
        one.  Requests whose ``tenant`` names a registered class
        inherit its priority and deadline tier when they don't set
        their own, and are shed at admission with
        :class:`~repro.service.api.QuotaExceeded` when the class's
        bucket runs dry.  Unregistered tenant names pass through with
        accounting only."""
        self._door.register_tenant(spec)
        return self

    def submit(self, request: SolveRequest) -> PendingSolve:
        """Admit one request; returns its :class:`PendingSolve` future.

        Raises :class:`ServiceOverloaded` (queue full — the request was
        shed), :class:`QuotaExceeded` (the request's tenant is out of
        quota), :class:`ServiceClosed`, or — for a keyed request —
        :class:`~repro.service.api.UnknownMatrixError` / ``ValueError``
        (:meth:`SolveRequest.resolve_matrix`); a successfully admitted
        request always completes its future, with a report or a
        structured error.
        """
        matrix = self._door.resolve(request)
        options = (request.options if request.options is not None
                   else self.config.options)
        now = _clock()
        priority, deadline = self._door.admit(request, now)
        entry = QueuedRequest(
            request=request, pending=PendingSolve(request), matrix=matrix,
            group_key=group_key(matrix, options), options=options,
            t_enqueued=now,
            deadline=None if deadline is None else now + deadline,
            priority=priority, tenant=request.tenant)
        try:
            outcome = self._queue.offer(entry, now)
        except ServiceOverloaded:
            self._door.count("service.rejected_overload")
            raise
        for stale in outcome.expired:
            self._reject_expired(stale, now)
        for bumped in outcome.displaced:
            self._reject_displaced(bumped, now)
        self._door.count("service.requests")
        return entry.pending

    # ------------------------------------------------------------------ #
    # batching and solving (the one service thread)
    # ------------------------------------------------------------------ #

    def _serve_loop(self):
        cfg = self.config
        while True:
            # one round is at most one block solve's worth of entries:
            # the rest stays in the bounded queue, where a later
            # higher-priority arrival can still overtake or displace it
            # and a full queue sheds new submissions
            entries = self._queue.drain(max_items=cfg.max_batch)
            if not entries:
                if self._queue.closed:
                    return
                continue
            if cfg.batch_window > 0 and len(entries) < cfg.max_batch:
                # give the rest of a burst time to arrive: this wait is
                # what turns N concurrent submits into one block solve.
                # Entries that queued behind the previous round have had
                # their window already, so a backlog is served at once
                waited = _clock() - min(e.t_enqueued for e in entries)
                if waited < cfg.batch_window:
                    time.sleep(cfg.batch_window - waited)
                    entries += self._queue.drain_nowait(
                        cfg.max_batch - len(entries))
            for batch in coalesce(self._unexpired(entries), cfg.max_batch):
                try:
                    self._run_batch(batch)
                except BaseException as exc:  # noqa: BLE001 — last resort
                    # a bug escaped _run_batch: its members' futures must
                    # still complete, and this thread must outlive it
                    for e in batch.entries:
                        e.pending._complete(SolveResponse(
                            request_id=e.request.request_id,
                            error=ServiceError(
                                f"internal service error: {exc!r}")))

    def _unexpired(self, entries: list[QueuedRequest]):
        """``entries`` minus those past their deadline, which are
        rejected here — unsolved — with ``DeadlineExceeded``."""
        now = _clock()
        live = []
        for e in entries:
            if e.expired(now):
                self._reject_expired(e, now)
            else:
                live.append(e)
        return live

    def _run_batch(self, batch: Batch):
        live = self._unexpired(batch.entries)
        if not live:
            return
        bt = Tracer(name="service/batch") if self._span is not None else None
        with (use_tracer(bt) if bt is not None else nullcontext()):
            t0 = _clock()
            state = self._pattern_state(batch.plan_key)
            try:
                fact = self._ensure_factored(state, batch)
            except Exception:  # noqa: BLE001 — retried per request
                # a factorization that raises leaves the previous one
                # fully in place (PatternSolver): keep the solver and
                # its anchor, forget only which values it holds; every
                # member retries alone, through the ladder's own cold
                # pipeline
                state.values_sig = None
                fact = "FAILED"
                responses = [self._recover_entry(e, "DOFACT") for e in live]
            else:
                responses = self._solve_batch(state, batch, live, fact)
                self._door.count("service.batched")
                self._door.count("service.coalesce_width", len(live))
            solve_seconds = _clock() - t0
            for e, resp in zip(live, responses):
                resp.batch_width = len(live)
                resp.queued_seconds = t0 - e.t_enqueued
                resp.solve_seconds = solve_seconds
                if resp.error is None:
                    self._door.count(FACT_COUNTERS[resp.fact])
                e.pending._complete(resp)
        if bt is not None:
            # only a re-anchor answers under SAME_PATTERN
            reanchored = any(r.fact == "SAME_PATTERN" for r in responses)
            root = bt.finish()
            root.attrs.update(width=len(live), reanchored=reanchored,
                              fact="SAME_PATTERN" if reanchored else fact,
                              pattern=batch.pattern_fingerprint[:12],
                              values=batch.values_sig[:12])
            with self._obs_lock:
                self._span.children.append(root)

    def _ensure_factored(self, state: _PatternState, batch: Batch) -> str:
        """Bring the pattern's solver up to date with the batch's values
        *and options*; returns the reuse mode that ran."""
        opts = dataclasses.replace(batch.options, fact="DOFACT")
        if state.solver is None:
            # a pattern this *service* has not seen may still have a plan
            # in the factorization cache (an earlier service, or a
            # warm-start spool preloaded by the sharded tier): construct
            # through SAME_PATTERN so the cached analysis is reused —
            # bit-identical to a cold run by the REFACTORIZATION
            # contract, and a clean fallback to DOFACT on a cache miss
            create = opts if self._cache is False else \
                dataclasses.replace(opts, fact="SAME_PATTERN")
            state.solver = GESPSolver(batch.matrix, create,
                                      cache=self._cache)
            state.solver.options = opts   # stable comparisons below
            state.values_sig = state.anchor_sig = batch.values_sig
            return "DOFACT"
        prev = state.solver.options
        if prev != opts:
            # the pattern state is keyed on the plan key, so every batch
            # reaching it shares the plan-shaping fields — swapping the
            # options can change numeric/solve behavior (refine_eps,
            # pivot policy, ...) but never invalidates the orderings or
            # the symbolic analysis the solver holds
            state.solver.options = opts
        if (state.values_sig != batch.values_sig
                or factor_options_key(prev) != factor_options_key(opts)):
            # new values, or a pivot policy the current factors were not
            # computed under: the paper's warm path — steps (1)-(2) stay
            # the anchor's, only the numbers move and step (3) re-runs
            state.solver.refactor(batch.matrix,
                                  fact="SAME_PATTERN_SAME_ROWPERM")
            state.values_sig = batch.values_sig
            return "SAME_PATTERN_SAME_ROWPERM"
        return "FACTORED"

    def _solve_batch(self, state: _PatternState, batch: Batch, live: list,
                     fact: str) -> list[SolveResponse]:
        """One ``solve_multi`` for the batch, whatever its width; every
        request is answered from its own column (whose iterate, berr and
        step count do not depend on its batch-mates).  Columns that do
        not certify on an anchor matched on other values are solved
        again after one re-anchor; what is uncertified then is retried
        alone through the ladder while its batch-mates keep their
        answers."""
        solver = state.solver
        b_block = np.column_stack([e.request.b for e in live])
        b_block = b_block.astype(
            np.result_type(solver.a.nzval, b_block, np.float64), copy=False)
        try:
            reports = _column_reports(solver, b_block)
        except Exception:  # noqa: BLE001 — retried per request
            return [self._recover_entry(e, fact) for e in live]
        facts = [fact] * len(live)
        lost = [t for t, r in enumerate(reports) if not r.converged]
        if lost and state.anchor_sig != batch.values_sig:
            # the certificate failed on an anchor matched on other values:
            # re-match on these (SAME_PATTERN keeps the ordering when the
            # matching did not move, runs a cold analysis when it did, and
            # republishes the plan) and solve the lost columns again
            try:
                solver.refactor(batch.matrix, fact="SAME_PATTERN")
                state.anchor_sig = batch.values_sig
                self._door.count("service.reanchored")
                for t, report in zip(lost, _column_reports(
                        solver, b_block[:, lost])):
                    reports[t], facts[t] = report, "SAME_PATTERN"
            except Exception:  # noqa: BLE001 — left to the ladder
                pass
        return [
            SolveResponse(request_id=e.request.request_id, report=report,
                          fact=mode)
            if report.converged else self._recover_entry(e, mode, solver)
            for e, report, mode in zip(live, reports, facts)]

    def _recover_entry(self, e: QueuedRequest, fact: str,
                       resident: GESPSolver | None = None) -> SolveResponse:
        """Escalate one request through the recovery ladder, opened on
        the pattern's ``resident`` factors when they are usable, at the
        ladder's default target."""
        from repro.recovery import recover_solve

        report = recover_solve(
            e.matrix, e.request.b, resident=resident,
            options=dataclasses.replace(e.options, fact="DOFACT"))
        if report.converged:
            self._door.count("service.recovered")
        return SolveResponse(request_id=e.request.request_id, fact=fact,
                             report=report, recovered=report.converged)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def _pattern_state(self, plan_key: tuple) -> _PatternState:
        with self._state_lock:
            return self._patterns.setdefault(plan_key, _PatternState())

    def _reject_expired(self, e: QueuedRequest, now: float):
        self._door.count("service.deadline_expired")
        e.pending._complete(SolveResponse(
            request_id=e.request.request_id,
            error=DeadlineExceeded(e.request.deadline, e.waited(now)),
            queued_seconds=e.waited(now)))

    def _reject_displaced(self, e: QueuedRequest, now: float):
        """A higher-priority arrival bumped ``e`` from the full queue:
        from its caller's view the queue was full, so it gets the same
        structured rejection an at-the-door shed would have."""
        self._door.displaced(e.tenant)
        e.pending._complete(SolveResponse(
            request_id=e.request.request_id,
            error=ServiceOverloaded(self._queue.capacity,
                                    self._queue.capacity),
            queued_seconds=e.waited(now)))

    def stats(self) -> dict:
        """Snapshot of the service counters plus queue/pattern gauges
        (available with or without a tracer)."""
        counters = self._door.stats()
        counters["queue_depth"] = len(self._queue)
        with self._state_lock:
            counters["patterns"] = len(self._patterns)
        return counters
