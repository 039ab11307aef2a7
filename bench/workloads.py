"""The six closed-loop workloads, each driven through public entry points.

A workload object is built once per worker process (that is the timed
set-up), runs fixed-op-count *segments*, and returns one :class:`Op`
per operation with the caller-observed interval, the systems the gate
must check, and whatever per-layer readings are visible from outside.
bench/README.md records why each workload exists and what it bypasses.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field
from statistics import median

from repro import (
    DistributedGESPSolver,
    GESPSolver,
    ServiceConfig,
    SolveRequest,
    SolveService,
)
from repro.obs import Tracer
from repro.service import ShardedSolveService
from repro.service.shard.routing import route
from repro.sparse.ops import pattern_fingerprint
from repro.workload import ScenarioSpec, generate, stream_digest

from bench.layers import stage_layers

clock = time.perf_counter

# The scenario default (8 % per iterate, compounding) moves the MC64
# matching every few iterates, which silently turns the service's
# SAME_PATTERN path into a cold analysis; at 1 % the row permutation
# holds over the whole stream, so warm workloads measure warm work.
NEWTON_DRIFT = 0.01
RHS_PER_BLOCK = 8


@dataclass
class Op:
    """One caller-observed operation."""

    pattern: str
    start: float
    end: float
    systems: list                      # [(A, b, x)] for the gate
    error: str | None = None           # raised / structured rejection
    converged: bool = True             # the program's own certificate
    times: dict = field(default_factory=dict)    # layer -> seconds (this op)
    counts: dict = field(default_factory=dict)   # layer -> exact count
    id: str = ""
    segment: int = 0
    spans: list = field(default_factory=list)    # repo spans of this op
    gate_berr: float | None = None               # set by the gate ...
    failed: bool = False                         # ... with its verdict

    @property
    def latency(self):
        return self.end - self.start


def stream_seed(seed: int, label: str) -> int:
    """A per-stream seed that is a pure function of (run seed, label)."""
    return zlib.crc32(f"{seed}:{label}".encode())


def newton_stream(pattern: str, seed: int, length: int,
                  drift: float = NEWTON_DRIFT):
    return generate(ScenarioSpec(
        scenario="newton_drift", matrix=pattern, newton_iters=length,
        newton_drift=drift, arrival="burst",
        seed=stream_seed(seed, pattern)))


def timed(pattern, body) -> Op:
    """Time ``body() -> (systems, converged, times, counts)``; anything
    it raises becomes a failed op instead of ending the run."""
    start = clock()
    try:
        systems, converged, times, counts = body()
        error = None
    except Exception as exc:  # noqa: BLE001 — a raise is a failed op
        systems, converged, times, counts = [], False, {}, {}
        error = repr(exc)
    return Op(pattern, start, clock(), systems, error, converged,
              times, counts)


def run_clients(clients) -> list[Op]:
    """Run one callable per client thread to completion (closed loop:
    each client waits for its own result before its next submit)."""
    results = [None] * len(clients)

    def client(i):
        results[i] = clients[i]()

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(len(clients))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [op for ops in results for op in ops]


class Workload:
    """Base: seeded streams, a cursor per pattern, span collection."""

    name = ""
    patterns: tuple = ()
    stream_len = 64
    segment_ops = 1          # ops per pattern (or client) per segment
    quick_segment_ops = 1
    trace_segments = 2       # fixed segment count of one traced pass

    def __init__(self, seed: int, traced: bool, quick: bool):
        self.traced = traced
        self.steps = self.quick_segment_ops if quick else self.segment_ops
        self.streams = {p: self.make_stream(p, seed) for p in self.patterns}
        self.digests = {p: stream_digest(s) for p, s in self.streams.items()}
        self.cursor = dict.fromkeys(self.patterns, 0)

    def make_stream(self, pattern, seed):
        return newton_stream(pattern, seed, self.stream_len)

    def next_item(self, pattern):
        stream = self.streams[pattern]
        item = stream[self.cursor[pattern] % len(stream)]
        self.cursor[pattern] += 1
        return item

    def run_op(self, pattern, body) -> Op:
        op = timed(pattern, body)
        # a pattern's cursor is only ever advanced by that pattern's
        # client, so this is unique without a lock
        op.id = f"{pattern}#{self.cursor[pattern]}"
        return op

    @staticmethod
    def harvest(op, spans):
        """Attach the repo's spans of one op and what they say."""
        times, counts = stage_layers(spans)
        # a reading the caller took itself (from outside) wins
        op.times = {**times, **op.times}
        op.counts = {**counts, **op.counts}
        op.spans += spans

    def warm_up(self):
        """The untimed tail of set-up."""
        self.segment()

    def segment(self) -> list[Op]:
        raise NotImplementedError

    def close(self):
        """Release everything the workload started; safe to call twice."""

    def finish(self, ops):
        """After ``close``: attach readings that only exist at the end
        (service span trees) to ``ops``; returns workload-level exact
        counts."""
        return {}


class ColdMix(Workload):
    """1 caller; ``GESPSolver(a, cache=False).solve(b)`` over seven
    patterns from seven disciplines — first contact, so analysis
    dominates.  Seven, not six: cold times cluster by pattern, and with
    an even count the median op sits in the gap between two clusters,
    where one slow op moves it by the width of the gap."""

    name = "cold_mix"
    patterns = ("cfd06", "circuit03", "fem05", "chem06", "resv02", "hb02",
                "kkt01")
    stream_len = 8

    def warm_up(self):
        # one cold solve of the cheapest pattern pulls in every lazily
        # imported stage module without paying a whole pass three times
        item = self.streams["chem06"][-1]
        GESPSolver(item.matrix, cache=False).solve(item.b)

    def segment(self):
        ops = []
        for pattern in self.patterns:
            item = self.next_item(pattern)
            tracer = Tracer() if self.traced else None

            def body():
                solver = GESPSolver(item.matrix, tracer=tracer, cache=False)
                built = clock()
                report = solver.solve(item.b)
                return ([(item.matrix, item.b, report.x)], report.converged,
                        {"solve.solve_s": clock() - built},
                        {"solve.refine_steps": report.refine_steps})

            op = self.run_op(pattern, body)
            if tracer is not None:
                self.harvest(op, tracer.root.children)
            ops.append(op)
        return ops


class WarmNewton(Workload):
    """1 caller; ``solver.refactor(a_k); solver.solve(b_k)`` on two
    resident patterns, 3 : 1 — the paper's central case."""

    name = "warm_newton"
    patterns = ("cfd06", "kkt02")
    mix = (3, 1)
    stream_len = 64
    segment_ops = 4          # x mix = 12 cfd06 + 4 kkt02 steps
    trace_segments = 4

    def __init__(self, seed, traced, quick):
        super().__init__(seed, traced, quick)
        self.solvers = {}
        for pattern in self.patterns:
            item = self.next_item(pattern)
            self.solvers[pattern] = GESPSolver(
                item.matrix, tracer=Tracer() if traced else None, cache=False)
        self.seen = dict.fromkeys(self.patterns, 0)

    def segment(self):
        ops = []
        for _ in range(self.steps):
            for pattern, share in zip(self.patterns, self.mix):
                ops += [self.step(pattern) for _ in range(share)]
        return ops

    def step(self, pattern):
        solver = self.solvers[pattern]
        item = self.next_item(pattern)

        def body():
            solver.refactor(item.matrix)
            refactored = clock()
            report = solver.solve(item.b)
            return ([(item.matrix, item.b, report.x)], report.converged,
                    {"solve.solve_s": clock() - refactored},
                    {"solve.refine_steps": report.refine_steps})

        op = self.run_op(pattern, body)
        if self.traced:
            roots = solver.tracer.root.children
            self.harvest(op, roots[self.seen[pattern]:])
            self.seen[pattern] = len(roots)
        return op


class SvcNewton(Workload):
    """2 client threads, each walking its own Newton stream through one
    in-process ``SolveService`` (writes: every request carries new
    values, so the service refactors under SAME_PATTERN)."""

    name = "svc_newton"
    patterns = ("cfd06", "resv02")
    segment_ops = 4
    quick_segment_ops = 2
    trace_segments = 8
    # what the caller waited beyond the service's own account of the
    # request: admission, hand-off, completion signalling
    outside_layer = "service.overhead_s"

    def __init__(self, seed, traced, quick):
        super().__init__(seed, traced, quick)
        self.tracer = Tracer() if traced else None
        self.fingerprints = {
            p: pattern_fingerprint(s[0].matrix)
            for p, s in self.streams.items()}
        self.svc = self.make_service()

    def make_service(self):
        return SolveService(ServiceConfig(), tracer=self.tracer)

    def warm_up(self):
        # one single-RHS request per pattern: the first cold
        # factorization of every resident pattern, both at once
        run_clients([lambda p=p: [self.newton_step(p)]
                     for p in self.patterns])

    def segment(self):
        return run_clients([
            lambda p=p: [self.request(p) for _ in range(self.steps)]
            for p in self.patterns])

    def newton_step(self, pattern):
        item = self.next_item(pattern)
        return self.submit(pattern, item.matrix, item.matrix, [item.b])

    request = newton_step       # what one client does per step

    def submit(self, pattern, matrix, a, rhs):
        """One operation: submit every right-hand side in ``rhs``, wait
        for all of them."""

        def body():
            start = clock()
            pending = [self.svc.submit(SolveRequest(matrix, b)) for b in rhs]
            responses = [p.result(timeout=120.0) for p in pending]
            waited = clock() - start
            for r in responses:
                if r.error is not None:
                    raise r.error
            reports = [r.report for r in responses]
            times = {
                "service.queue_wait_s": responses[-1].queued_seconds,
                "service.batch_solve_s": responses[-1].solve_seconds,
                self.outside_layer: waited - max(
                    r.queued_seconds + r.solve_seconds for r in responses)}
            counts = {"requests": len(responses),
                      "batch_width": sum(r.batch_width for r in responses),
                      "service.recovered": sum(r.recovered
                                               for r in responses),
                      "solve.refine_steps": sum(r.refine_steps
                                                for r in reports)}
            for r in responses:
                counts[r.fact] = counts.get(r.fact, 0) + 1
            if counts.get("FACTORED") == len(responses):
                # nothing was factored: the batch's time is all solve
                times["solve.solve_s"] = responses[-1].solve_seconds
            return ([(a, b, r.x) for b, r in zip(rhs, reports)],
                    all(r.converged for r in reports), times, counts)

        return self.run_op(pattern, body)

    def close(self):
        self.svc.close()

    def finish(self, ops):
        stats = self.svc.stats()
        if self.tracer is not None:
            self.attach_spans(ops)
        return {"service.rejected": int(
            stats.get("service.rejected_overload", 0)
            + stats.get("service.deadline_expired", 0)
            + stats.get("service.shard.rejected_overload", 0))}

    def attach_spans(self, ops):
        """Give each op the stage spans of the refactorization that ran
        inside its interval.  A batch's span tree names its pattern; the
        solver a pattern's first batch built keeps appending its later
        ``refactor``/``solve`` spans to that first tree."""
        service = self.tracer.root.find("service")
        if service is None:
            return
        by_pattern = {self.fingerprints[p][:12]: p for p in self.patterns}
        for batch in service.children:
            pattern = by_pattern.get(batch.attrs.get("pattern"))
            mine = [op for op in ops if op.pattern == pattern]
            for span in batch.walk():
                if span.name not in ("refactor", "solve"):
                    continue
                owner = next((op for op in mine
                              if op.start <= span.t_start
                              and span.t_end <= op.end), None)
                if owner is None:
                    continue
                self.harvest(owner, [span])


class ShardNewton(SvcNewton):
    """The same two streams through ``ShardedSolveService(shards=2)``:
    the same numeric work plus transport, minus the shared GIL."""

    name = "shard_newton"
    # ... which here is pickling, the shared-memory slab, the queue hop
    # and the response pump
    outside_layer = "shard.transport_s"

    def make_service(self):
        shards = {route(fp, range(2)) for fp in self.fingerprints.values()}
        if len(shards) != 2:
            raise RuntimeError(
                f"{self.patterns} no longer route to different shards; "
                "pick patterns that do")
        return ShardedSolveService(shards=2, config=ServiceConfig(),
                                   tracer=self.tracer)

    def finish(self, ops):
        counts = super().finish(ops)
        for shard, stats in self.svc.shard_stats().items():
            counts[f"shard.requests.{shard}"] = int(
                stats.counters.get("service.requests", 0))
        return counts

    def attach_spans(self, ops):
        """Shard workers trace in their own processes; nothing of theirs
        is visible from here but the response fields."""


class SvcRhs(SvcNewton):
    """1 client; patterns registered by key and factored during set-up;
    one operation is a block of 8 right-hand sides, alternating between
    the two patterns (reads: FACTORED reuse, coalescing, triangular
    solves, refinement).

    One client, not two: two concurrent ``solve_multi`` batches in one
    process are bistable under the GIL (each GIL-releasing numpy call
    waits out the other thread's 5 ms switch interval, or does not), and
    whole runs land in either mode — 0.046 s or 0.16 s per block."""

    name = "svc_rhs"
    stream_len = 32 * RHS_PER_BLOCK
    segment_ops = 1
    quick_segment_ops = 1
    trace_segments = 25

    def make_stream(self, pattern, seed):
        # zero drift: one set of values, stream_len right-hand sides
        return newton_stream(pattern, seed, self.stream_len, drift=0.0)

    def make_service(self):
        svc = super().make_service()
        for pattern, stream in self.streams.items():
            svc.register_matrix(pattern, stream[0].matrix)
        return svc

    def segment(self):
        return [self.request(p) for _ in range(self.steps)
                for p in self.patterns]

    def request(self, pattern):
        items = [self.next_item(pattern) for _ in range(RHS_PER_BLOCK)]
        return self.submit(pattern, pattern, items[0].matrix,
                           [item.b for item in items])


class DistNewton(Workload):
    """1 caller; ``ds.refactor(a_k); ds.factorize();
    ds.solve_distributed(b_k)`` on a 2x2 grid of the deterministic
    simulator — message and byte counts are exact."""

    name = "dist_newton"
    patterns = ("cfd06",)
    segment_ops = 4
    trace_segments = 3

    def __init__(self, seed, traced, quick):
        super().__init__(seed, traced, quick)
        self.quick = quick
        self.ds = DistributedGESPSolver(
            self.next_item("cfd06").matrix, nprocs=4, executor="sim",
            cache=False)

    def segment(self):
        return [self.step() for _ in range(self.steps)]

    def step(self):
        item = self.next_item("cfd06")
        ds = self.ds

        def body():
            t0 = clock()
            ds.refactor(item.matrix)
            t1 = clock()
            run = ds.factorize()
            t2 = clock()
            sol = ds.solve_distributed(item.b)
            t3 = clock()
            ranks = run.sim.stats
            times = {"dmem.refill_s": t1 - t0, "pdgstrf.factor_s": t2 - t1,
                     "pdgstrs.solve_s": t3 - t2,
                     "dmem.wait_share": sum(s.blocked_time for s in ranks)
                     / sum(s.time for s in ranks)}
            counts = {
                "dmem.msgs_sent": run.sim.total_messages + sol.total_messages,
                "dmem.bytes_sent": run.sim.total_bytes
                + sol.lower.total_bytes + sol.upper.total_bytes,
                "factor.flops": run.sim.total_flops,
                "factor.tiny_pivots": run.n_tiny_pivots}
            return [(item.matrix, item.b, sol.x)], True, times, counts

        return self.run_op("cfd06", body)

    def finish(self, ops):
        if not self.traced:
            return {}
        # The same factorization on the real process executor.  Two
        # ranks on two vCPUs is bimodal, so this is a diagnostic from the
        # traced pass only, never an end-to-end number.
        a = self.streams["cfd06"][0].matrix
        ds = DistributedGESPSolver(a, nprocs=2, executor="process",
                                   cache=False)
        walls, shm = [], 0
        for _ in range(1 if self.quick else 5):
            ds.refactor(a)
            t0 = clock()
            run = ds.factorize()
            walls.append(clock() - t0)
            shm = sum(s.shm_msgs for s in run.sim.stats)
        return {"dmem.procexec_factor_s": median(walls),
                "dmem.shm_msgs": shm}


WORKLOADS = {w.name: w for w in (ColdMix, WarmNewton, SvcNewton,
                                 ShardNewton, SvcRhs, DistNewton)}
