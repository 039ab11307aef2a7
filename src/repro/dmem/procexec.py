"""Real multi-process execution of virtual-MPI rank programs.

:class:`ProcessExecutor` runs the *same* generator programs the
simulator runs — unchanged — but with one OS worker process per rank
and ``multiprocessing`` queues as the wire: every payload is pickled
through its destination's queue.  The event-loop simulator stays the
deterministic oracle; this backend must produce bit-identical numeric
results on the algorithms in this repo (``tests/test_executor.py``
asserts exactly that).

Semantics preserved from the simulator (parity table: docs/EXECUTOR.md):

- FIFO per (source, dest, tag): each worker owns one inbound queue, and
  a ``multiprocessing.Queue`` preserves per-sender put order;
- ``ANY_SOURCE``/``ANY_TAG`` earliest-arrival matching: the per-worker
  mailbox keeps messages in dequeue order and delivers the first match;
- ``Recv(timeout=T)`` resumes the program with a ``Timeout`` sentinel
  when no match arrived within ``T`` *wall* seconds, so
  ``recv_with_retry`` raises the same structured ``CommTimeoutError``;
- a seeded :class:`~repro.dmem.faults.FaultPlan` maps onto real queues:
  surgical ``DropRule``\\ s and probabilistic fates are applied at the
  send site, duplicates share the original's ``msg_id`` for receiver
  dedup, delays defer delivery eligibility, and ``rank_slowdown``
  becomes real (bounded) sleep;
- received ndarray leaves are read-only, which enforces the ``Send``
  contract ("rank programs must not mutate a buffer after sending it")
  from the receiving side too.

Failure handling is deterministic where the simulator's is: the first
rank to exhaust its receive retries sets a shared stop event; ranks
whose pending receive has an armed deadline run out their own retry
budget (producing one ``comm_timeout`` record each), ranks blocked with
no deadline abort immediately (producing ``blocked`` snapshots), and
the parent re-raises the lowest-ranked ``CommTimeoutError`` enriched
with the blocked-rank snapshot — the same diagnosis shape
``repro.recovery.health.diagnose_comm_failure`` reads from simulator
failures.  A worker that raises anything else — or returns a result
that does not pickle — is a :class:`WorkerCrashError` carrying its
traceback.  A run that makes no progress at all is cut off by the
``run_timeout`` watchdog and raised as ``DeadlockError`` instead of
hanging the caller.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queue_mod
import time
import traceback

import numpy as np

from repro.dmem.comm import (
    ANY_SOURCE,
    ANY_TAG,
    CommTimeoutError,
    Compute,
    Message,
    Recv,
    Send,
    Timeout,
)
from repro.dmem.simulator import (
    TIMEOUT_KIND,
    BlockedRank,
    DeadlockError,
    RankStats,
    SimulationResult,
    report_run,
)
from repro.obs import trace

__all__ = ["ProcessExecutor", "WorkerCrashError"]

# fork where the platform has it (workers inherit the job's arrays
# copy-on-write — nothing to pickle on the way in), else spawn
_START_METHOD = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
# worker queue-poll granularity (wall seconds): bounds how fast a blocked
# receive reacts to the stop event and to its own deadline
_POLL_INTERVAL = 0.002
# cap (wall seconds) on the real sleep a fault plan's rank_slowdown /
# jitter may add per Compute op
_MAX_FAULT_SLEEP = 0.05


class WorkerCrashError(RuntimeError):
    """A rank worker died on an exception that is not a comm failure.

    Carries the worker-side traceback text so the real error is not
    reduced to "process exited"; comm failures (``CommTimeoutError``,
    ``DeadlockError``) are re-raised as themselves instead.
    """

    def __init__(self, rank, details):
        self.rank = rank
        self.details = details
        super().__init__(
            f"rank {rank} worker crashed:\n{details}")


class _Aborted(Exception):
    """Internal: the stop event fired while blocked with no deadline."""

    def __init__(self, source, tag, clock):
        self.source = source
        self.tag = tag
        self.clock = clock
        super().__init__("aborted by stop event")


def _read_only(obj):
    """Freeze the ndarray leaves of a received payload (tuples, lists
    and dicts are walked; anything else is returned as it came)."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            _read_only(v)
    elif isinstance(obj, dict):
        for v in obj.values():
            _read_only(v)
    return obj


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #

class _Transport:
    """One worker's view of the wire: inbound mailbox + outbound queues.

    Wire record per physical message (one queue item)::

        (source, tag, nbytes, count, msg_id, seq, deliver_after, payload)

    ``deliver_after`` (monotonic wall seconds, comparable across
    processes on Linux) implements fault-plan delivery delays; messages
    are invisible to matching before it.
    """

    def __init__(self, rank, nranks, queues, stop, fault_plan, machine,
                 t_start, stats):
        self.rank = rank
        self.nranks = nranks
        self.queues = queues
        self.inq = queues[rank]
        self.stop = stop
        self.fault_plan = fault_plan
        self.machine = machine
        self.t_start = t_start
        self.stats = stats
        self.mailbox = []        # wire records in dequeue order
        self.seq = 0             # per-sender send sequence
        self.rule_counts = ([rule.count for rule in fault_plan.drop_rules]
                            if fault_plan is not None else [])

    # -- send ---------------------------------------------------------- #

    def send(self, op):
        t0 = time.monotonic()
        stats = self.stats
        stats.msgs_sent += op.count
        stats.bytes_sent += op.nbytes
        if not (0 <= op.dest < self.nranks):
            raise ValueError(
                f"rank {self.rank} sent to invalid rank {op.dest}")
        self.seq += 1
        seq = self.seq
        copies, delay_factor = 1, 0.0
        if self.fault_plan is not None:
            # NOTE: seq is per-sender here, not the simulator's global
            # counter — probabilistic fates draw from a different (still
            # seeded, still deterministic) stream; surgical DropRules with
            # an explicit source behave identically on both executors
            # (docs/EXECUTOR.md).
            fate = self.fault_plan.send_fate(self.rule_counts, self.rank,
                                             op.dest, op.tag, seq)
            copies, delay_factor = fate.copies, fate.delay_factor
        if copies == 0:
            stats.msgs_dropped += op.count
            stats.send_time += time.monotonic() - t0
            return
        msg_id = (self.rank << 32) | seq
        transfer = self.machine.transfer_time(op.nbytes, op.count)
        deliver_after = 0.0
        if delay_factor:
            deliver_after = time.monotonic() + transfer * delay_factor
        for c in range(copies):
            if c > 0:
                self.seq += 1
                stats.msgs_duplicated += op.count
            self.queues[op.dest].put(
                (self.rank, op.tag, op.nbytes, op.count, msg_id,
                 self.seq, deliver_after, op.payload))
        stats.send_time += time.monotonic() - t0

    def _decode(self, rec):
        source, tag, nbytes, count, msg_id, seq, _after, payload = rec
        m = Message(source=source, tag=tag, payload=_read_only(payload),
                    nbytes=nbytes,
                    arrival=time.monotonic() - self.t_start,
                    msg_id=msg_id)
        m._seq = seq
        m._count = count
        return m

    # -- recv ---------------------------------------------------------- #

    def _drain(self):
        while True:
            try:
                self.mailbox.append(self.inq.get_nowait())
            except queue_mod.Empty:
                return

    def _match_index(self, op, now):
        for idx, rec in enumerate(self.mailbox):
            source, tag = rec[0], rec[1]
            if op.source != ANY_SOURCE and source != op.source:
                continue
            if op.tag != ANY_TAG and tag != op.tag:
                continue
            if rec[6] > now:        # fault-plan delay: not deliverable yet
                continue
            return idx
        return None

    def recv(self, op):
        """Blocking receive; returns a Message or a Timeout sentinel."""
        t0 = time.monotonic()
        stats = self.stats
        deadline = t0 + op.timeout if op.timeout is not None else None
        self._drain()
        while True:
            now = time.monotonic()
            idx = self._match_index(op, now)
            if idx is not None:
                m = self._decode(self.mailbox.pop(idx))
                wait = time.monotonic() - t0
                stats.blocked_time += wait
                kind = m.tag % 4 if m.tag >= 0 else m.tag
                stats.blocked_by_kind[kind] = \
                    stats.blocked_by_kind.get(kind, 0.0) + wait
                stats.msgs_received += m._count
                stats.bytes_received += m.nbytes
                return m
            if deadline is not None and now >= deadline:
                wait = now - t0
                stats.blocked_time += wait
                stats.blocked_by_kind[TIMEOUT_KIND] = \
                    stats.blocked_by_kind.get(TIMEOUT_KIND, 0.0) + wait
                stats.recv_timeouts += 1
                return Timeout(source=op.source, tag=op.tag,
                               deadline=now - self.t_start)
            if self.stop.is_set() and deadline is None:
                # another rank failed; this receive can never complete
                # and has no deadline of its own to run out
                raise _Aborted(op.source, op.tag,
                               time.monotonic() - self.t_start)
            wait_for = _POLL_INTERVAL
            if deadline is not None:
                wait_for = min(wait_for, max(deadline - now, 0.0))
            try:
                self.mailbox.append(self.inq.get(timeout=max(wait_for, 1e-4)))
            except queue_mod.Empty:
                pass


def _drive(rank, gen, transport, stats, machine, fault_plan):
    """Run one rank generator against the real transport."""
    compute_idx = 0
    resume = None
    while True:
        t0 = time.monotonic()
        try:
            op = gen.send(resume) if resume is not None else next(gen)
        except StopIteration as stop:
            stats.compute_time += time.monotonic() - t0
            return stop.value
        # time inside the generator body is this rank's real compute
        stats.compute_time += time.monotonic() - t0
        resume = None
        if isinstance(op, Compute):
            stats.flops += op.flops
            if fault_plan is not None:
                scale = fault_plan.compute_scale(rank, compute_idx)
                compute_idx += 1
                if scale > 1.0:
                    # rank_slowdown/jitter become a real (bounded) stall
                    model_dt = op.seconds + (
                        machine.compute_time(op.flops, op.width)
                        if op.flops else 0.0)
                    extra = min((scale - 1.0) * model_dt, _MAX_FAULT_SLEEP)
                    if extra > 0.0:
                        time.sleep(extra)
                        stats.compute_time += extra
        elif isinstance(op, Send):
            transport.send(op)
        elif isinstance(op, Recv):
            resume = transport.recv(op)
        else:
            raise TypeError(f"rank {rank} yielded unknown op {op!r}")


def _worker_main(rank, job, machine, fault_plan, queues, result_q, stop):
    t_start = time.monotonic()
    stats = RankStats(rank=rank)
    transport = _Transport(rank, job.nranks, queues, stop, fault_plan,
                           machine, t_start, stats)
    status, extra = "done", None
    try:
        gen = job.build_program(rank)
        ret = _drive(rank, gen, transport, stats, machine, fault_plan)
        extra = (ret, job.collect_state(rank))
    except CommTimeoutError as err:
        stop.set()
        err.rank = rank
        err.clock = time.monotonic() - t_start
        err.executor = "process"
        status, extra = "comm_timeout", err.refresh()
    except _Aborted as ab:
        status, extra = "aborted", (ab.source, ab.tag, ab.clock)
    except BaseException:
        stop.set()
        status, extra = "error", traceback.format_exc()
    stats.time = stats.wall_seconds = time.monotonic() - t_start
    # pickled here, not on the queue's feeder thread: a result that does
    # not pickle becomes this rank's crash report instead of a record the
    # feeder drops and the watchdog later misreads as a deadlock
    try:
        record = pickle.dumps((status, rank, stats, extra))
    except Exception:
        stop.set()
        record = pickle.dumps(("error", rank, stats, traceback.format_exc()))
    result_q.put(record)


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #

class ProcessExecutor:
    """Run a :class:`~repro.dmem.executor.RankJob` on real processes.

    ``run_timeout`` is a hard watchdog (wall seconds) on the whole run:
    if any rank has not reported by then, the stop event fires,
    stragglers are terminated, and the run raises ``DeadlockError`` — a
    deadlocked protocol fails fast instead of hanging the caller.
    """

    name = "process"

    def __init__(self, run_timeout=300.0):
        self.run_timeout = float(run_timeout)

    def run(self, job, machine=None, fault_plan=None):
        """Execute ``job``; returns a ``SimulationResult`` whose per-rank
        times are real wall-clock measurements."""
        with trace("dmem/execute", executor=self.name,
                   start_method=_START_METHOD):
            t0 = time.perf_counter()
            return report_run(self._run(job, machine, fault_plan), t0,
                              fault_plan)

    def _run(self, job, machine, fault_plan):
        from repro.dmem.machine import MachineModel

        machine = machine or MachineModel()
        ctx = mp.get_context(_START_METHOD)
        queues = [ctx.Queue() for _ in range(job.nranks)]
        result_q = ctx.Queue()
        stop = ctx.Event()
        procs = [
            ctx.Process(target=_worker_main,
                        args=(rank, job, machine, fault_plan, queues,
                              result_q, stop),
                        daemon=True)
            for rank in range(job.nranks)
        ]
        records = {}
        timed_out = False
        try:
            for p in procs:
                p.start()
            deadline = time.monotonic() + self.run_timeout
            grace = None
            while len(records) < job.nranks:
                now = time.monotonic()
                if grace is None and now >= deadline:
                    # watchdog: wake blocked-forever ranks so they post
                    # their blocked snapshots, then give up on the rest
                    timed_out = True
                    stop.set()
                    grace = now + 1.0
                if grace is not None and now >= grace:
                    break
                try:
                    rec = result_q.get(timeout=0.05)
                except queue_mod.Empty:
                    if not any(p.is_alive() for p in procs):
                        try:
                            rec = result_q.get_nowait()
                        except queue_mod.Empty:
                            break
                    else:
                        continue
                rec = pickle.loads(rec)
                records[rec[1]] = rec
                if rec[0] in ("comm_timeout", "error"):
                    # let the surviving ranks run out their retries /
                    # abort; the loop keeps collecting their records
                    stop.set()
        finally:
            stop.set()
            for p in procs:
                p.join(timeout=2.0)
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=2.0)
            for q in queues + [result_q]:
                q.cancel_join_thread()
                q.close()

        return self._interpret(job, records, timed_out)

    @staticmethod
    def _interpret(job, records, timed_out):
        crashed = [records[r] for r in sorted(records)
                   if records[r][0] == "error"]
        if crashed:
            _status, rank, _stats, tb = crashed[0]
            raise WorkerCrashError(rank, tb)

        blocked = []
        for r in sorted(records):
            status, rank, stats, extra = records[r]
            if status == "aborted":
                source, tag, clock = extra
                blocked.append(BlockedRank(rank=rank, source=source,
                                           tag=tag, clock=clock))
            elif status == "comm_timeout":
                err = extra
                blocked.append(BlockedRank(rank=rank, source=err.source,
                                           tag=err.tag, clock=err.clock))

        failures = [records[r] for r in sorted(records)
                    if records[r][0] == "comm_timeout"]
        if failures:
            # deterministic victim: the lowest-ranked timeout, enriched
            # with every *other* rank's blocked snapshot (mirrors the
            # simulator's blocked_snapshot at the moment of failure)
            err = failures[0][3]
            err.blocked = [b for b in blocked if b.rank != err.rank]
            # the worker-side tag does not survive __reduce__ (rank,
            # clock and blocked do); restamp it here for the recovery
            # layer's diagnosis
            err.executor = "process"
            raise err.refresh()

        missing = [r for r in range(job.nranks) if r not in records]
        if timed_out or missing:
            raise DeadlockError(
                "process executor run timeout (no rank progressed "
                f"within the watchdog; missing ranks: {missing})",
                blocked=blocked)
        if blocked:
            # aborted ranks without any comm_timeout can only follow an
            # external stop; surface it as a deadlock-style diagnosis
            raise DeadlockError("process executor stopped", blocked=blocked)

        stats = [records[r][2] for r in range(job.nranks)]
        returns = [records[r][3][0] for r in range(job.nranks)]
        collected = ([records[r][3][1] for r in range(job.nranks)]
                     if job.collect is not None else None)
        elapsed = max((s.time for s in stats), default=0.0)
        return SimulationResult(stats=stats, elapsed=elapsed,
                                returns=returns, collected=collected)
