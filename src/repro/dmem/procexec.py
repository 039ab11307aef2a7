"""Real multi-process execution of virtual-MPI rank programs.

:class:`ProcessExecutor` runs the *same* generator programs the
simulator runs — unchanged — but with one OS worker process per rank,
``multiprocessing`` queues as the wire, and
``multiprocessing.shared_memory`` segments carrying large numpy payloads
zero-copy (receivers map the sender's pages instead of unpickling a
copy).  The event-loop simulator stays the deterministic oracle; this
backend must produce bit-identical numeric results on the algorithms in
this repo (``tests/test_executor.py`` asserts exactly that).

Semantics preserved from the simulator (parity table: docs/EXECUTOR.md):

- FIFO per (source, dest, tag): each worker owns one inbound queue, and
  a ``multiprocessing.Queue`` preserves per-sender put order;
- ``ANY_SOURCE``/``ANY_TAG`` earliest-arrival matching: the per-worker
  mailbox keeps messages in dequeue order and delivers the first match;
- ``Recv(timeout=T)`` resumes the program with a ``Timeout`` sentinel
  when no match arrived within ``T * timeout_scale`` *wall* seconds, so
  ``recv_with_retry`` raises the same structured ``CommTimeoutError``;
- a seeded :class:`~repro.dmem.faults.FaultPlan` maps onto real queues:
  surgical ``DropRule``\\ s and probabilistic fates are applied at the
  send site, duplicates share the original's ``msg_id`` for receiver
  dedup, delays defer delivery eligibility, and ``rank_slowdown``
  becomes real (bounded) sleep.

Failure handling is deterministic where the simulator's is: the first
rank to exhaust its receive retries sets a shared stop event; ranks
whose pending receive has an armed deadline run out their own retry
budget (producing one ``comm_timeout`` record each), ranks blocked with
no deadline abort immediately (producing ``blocked`` snapshots), and
the parent re-raises the lowest-ranked ``CommTimeoutError`` enriched
with the blocked-rank snapshot — the same diagnosis shape
``repro.recovery.health.diagnose_comm_failure`` reads from simulator
failures.  A run that makes no progress at all is cut off by the
``run_timeout`` watchdog and raised as ``DeadlockError`` instead of
hanging the caller.
"""

from __future__ import annotations

import contextlib
import os
import queue as queue_mod
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

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
from repro.obs import add, trace


class _NoTracking:
    """Stand-in for the resource tracker during SharedMemory construction.

    Segment lifetime here is managed explicitly by name (the parent
    unlinks after every worker exits), but Python < 3.13 registers every
    POSIX SharedMemory — attach included — with the per-process resource
    tracker, whose name cache is a *set* shared across the forked
    process tree: balanced register/unregister pairs from creator,
    receiver, and parent collapse and then KeyError inside the tracker.
    Suppressing registration entirely (the documented workaround until
    ``track=False`` exists) keeps the tracker silent and correct.
    """

    @staticmethod
    def register(name, rtype):
        pass

    @staticmethod
    def unregister(name, rtype):
        pass

    @staticmethod
    def ensure_running():
        pass


@contextlib.contextmanager
def _untracked():
    """Run SharedMemory construction/unlink without tracker traffic."""
    saved = shared_memory.resource_tracker
    shared_memory.resource_tracker = _NoTracking
    try:
        yield
    finally:
        shared_memory.resource_tracker = saved


def _open_shm(**kwargs):
    with _untracked():
        return shared_memory.SharedMemory(**kwargs)

__all__ = ["ProcessExecutor", "WorkerCrashError", "SHM_PREFIX"]

# every segment name starts with this + the run id, so leaked segments
# are attributable and the parent can sweep them after a hard kill
SHM_PREFIX = "reprox"


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


@dataclass(frozen=True)
class _ExecConfig:
    """Per-run knobs shipped to every worker."""

    timeout_scale: float
    poll_interval: float
    shm_threshold: int
    max_fault_sleep: float


# --------------------------------------------------------------------- #
# payload packing: numpy leaves ride shared memory, the rest pickles
# --------------------------------------------------------------------- #

def _aligned(nbytes):
    return (int(nbytes) + 63) & ~63


def _pack_tree(obj, arrays):
    """Strip ndarray leaves out of a payload, leaving placeholders."""
    if isinstance(obj, np.ndarray):
        arrays.append(obj)
        return ("a", len(arrays) - 1)
    if isinstance(obj, tuple):
        return ("t", tuple(_pack_tree(v, arrays) for v in obj))
    if isinstance(obj, list):
        return ("l", [_pack_tree(v, arrays) for v in obj])
    if isinstance(obj, dict):
        return ("d", {k: _pack_tree(v, arrays) for k, v in obj.items()})
    return ("p", obj)


def _unpack_tree(node, arrays):
    kind, val = node
    if kind == "a":
        return arrays[val]
    if kind == "t":
        return tuple(_unpack_tree(v, arrays) for v in val)
    if kind == "l":
        return [_unpack_tree(v, arrays) for v in val]
    if kind == "d":
        return {k: _unpack_tree(v, arrays) for k, v in val.items()}
    return val


def _share_arrays(arrays, name):
    """Copy ``arrays`` into one new shared-memory segment.

    Layout: each array C-contiguous at a 64-byte-aligned offset;
    returns the ``[(offset, shape, dtype_str), ...]`` descriptors.  The
    segment is unregistered from the resource tracker and its handle
    closed before returning — lifetime is name-based (receivers attach
    by name; the parent unlinks after all workers exit), so a sender
    holds no file descriptor per in-flight message.
    """
    total = sum(_aligned(a.nbytes) for a in arrays)
    seg = _open_shm(create=True, size=max(total, 1), name=name)
    descs = []
    offset = 0
    for a in arrays:
        a = np.ascontiguousarray(a)
        view = np.ndarray(a.shape, dtype=a.dtype, buffer=seg.buf,
                          offset=offset)
        view[...] = a
        del view          # release the buffer export so close() succeeds
        descs.append((offset, a.shape, a.dtype.str))
        offset += _aligned(a.nbytes)
    seg.close()
    return descs


def _map_arrays(seg, descs):
    """Read-only views over a shared segment written by _share_arrays.

    Read-only enforces the Send contract ("rank programs must not
    mutate a buffer after sending it") from the receiving side too.
    """
    out = []
    for offset, shape, dtype in descs:
        view = np.ndarray(tuple(shape), dtype=np.dtype(dtype),
                          buffer=seg.buf, offset=offset)
        view.flags.writeable = False
        out.append(view)
    return out


def _unlink_segment(name):
    try:
        seg = _open_shm(name=name)
    except (FileNotFoundError, OSError, ValueError):
        return
    try:
        with _untracked():
            seg.close()
            seg.unlink()
    except FileNotFoundError:
        pass


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #

class _Transport:
    """One worker's view of the wire: inbound mailbox + outbound queues.

    Wire record per physical message (one queue item)::

        (source, tag, nbytes, count, msg_id, seq, deliver_after, enc)

    where ``enc`` is ``("shm", segment_name, descs, tree)`` or
    ``("inl", arrays, tree)`` — ``tree`` being the payload with ndarray
    leaves replaced by placeholders.  ``deliver_after`` (monotonic wall
    seconds, comparable across processes on Linux) implements fault-plan
    delivery delays; messages are invisible to matching before it.
    """

    def __init__(self, rank, nranks, queues, stop, fault_plan, machine,
                 cfg, run_id, t_start, stats):
        self.rank = rank
        self.nranks = nranks
        self.queues = queues
        self.inq = queues[rank]
        self.stop = stop
        self.fault_plan = fault_plan
        self.machine = machine
        self.cfg = cfg
        self.run_id = run_id
        self.t_start = t_start
        self.stats = stats
        self.mailbox = []        # wire records in dequeue order
        self.seq = 0             # per-sender send sequence
        self.n_segments = 0
        self.created = []        # names of segments this rank created
        # name -> (SharedMemory, [weakrefs to handed-out views]); an
        # attachment is closed once every view over it is dead, so the
        # worker's open-fd count tracks live payloads, not message count
        self.attached = {}
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
            dropped = False
            for i, rule in enumerate(self.fault_plan.drop_rules):
                if self.rule_counts[i] > 0 and \
                        rule.matches(self.rank, op.dest, op.tag):
                    self.rule_counts[i] -= 1
                    dropped = True
                    break
            if dropped:
                copies = 0
            else:
                # NOTE: seq is per-sender here, not the simulator's
                # global counter — probabilistic fates draw from a
                # different (still seeded, still deterministic) stream;
                # surgical DropRules with an explicit source behave
                # identically on both executors (docs/EXECUTOR.md).
                fate = self.fault_plan.message_fate(self.rank, op.dest,
                                                    op.tag, seq)
                copies, delay_factor = fate.copies, fate.delay_factor
        if copies == 0:
            stats.msgs_dropped += op.count
            stats.send_time += time.monotonic() - t0
            return
        enc = self._encode(op)
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
                 self.seq, deliver_after, enc))
        stats.send_time += time.monotonic() - t0

    def _encode(self, op):
        arrays = []
        tree = _pack_tree(op.payload, arrays)
        total = sum(a.nbytes for a in arrays)
        if arrays and total >= self.cfg.shm_threshold:
            self.n_segments += 1
            name = f"{SHM_PREFIX}{self.run_id}r{self.rank}n{self.n_segments}"
            descs = _share_arrays(arrays, name)
            self.created.append(name)
            self.stats.shm_msgs += op.count
            self.stats.shm_bytes += total
            return ("shm", name, descs, tree)
        return ("inl", arrays, tree)

    def _attach(self, name):
        entry = self.attached.get(name)
        if entry is None:
            entry = self.attached[name] = (_open_shm(name=name), [])
        return entry

    def _gc_attached(self):
        """Close attachments whose payload views have all died."""
        for name, (seg, refs) in list(self.attached.items()):
            if all(r() is None for r in refs):
                try:
                    seg.close()
                except BufferError:
                    continue
                del self.attached[name]

    def _decode(self, rec):
        source, tag, nbytes, count, msg_id, seq, _after, enc = rec
        if enc[0] == "shm":
            _kind, name, descs, tree = enc
            if len(self.attached) > 32:
                self._gc_attached()
            seg, refs = self._attach(name)
            arrays = _map_arrays(seg, descs)
            refs.extend(weakref.ref(a) for a in arrays)
        else:
            _kind, arrays, tree = enc
        m = Message(source=source, tag=tag,
                    payload=_unpack_tree(tree, arrays),
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
        deadline = (t0 + op.timeout * self.cfg.timeout_scale
                    if op.timeout is not None else None)
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
            wait_for = self.cfg.poll_interval
            if deadline is not None:
                wait_for = min(wait_for, max(deadline - now, 0.0))
            try:
                self.mailbox.append(self.inq.get(timeout=max(wait_for, 1e-4)))
            except queue_mod.Empty:
                pass

    def close(self):
        for seg, _refs in self.attached.values():
            try:
                seg.close()
            except Exception:
                pass
        self.attached.clear()


def _drive(rank, gen, transport, stats, machine, fault_plan, cfg):
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
                    extra = min((scale - 1.0) * model_dt,
                                cfg.max_fault_sleep)
                    if extra > 0.0:
                        time.sleep(extra)
                        stats.compute_time += extra
        elif isinstance(op, Send):
            transport.send(op)
        elif isinstance(op, Recv):
            resume = transport.recv(op)
        else:
            raise TypeError(f"rank {rank} yielded unknown op {op!r}")


def _worker_main(rank, job, machine, fault_plan, queues, result_q, stop,
                 cfg, run_id):
    t_start = time.monotonic()
    stats = RankStats(rank=rank)
    transport = _Transport(rank, job.nranks, queues, stop, fault_plan,
                           machine, cfg, run_id, t_start, stats)
    status, extra = "done", None
    try:
        gen = job.build_program(rank)
        ret = _drive(rank, gen, transport, stats, machine, fault_plan, cfg)
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
    try:
        result_q.put((status, rank, stats, extra, list(transport.created)))
    finally:
        transport.close()


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #

class ProcessExecutor:
    """Run a :class:`~repro.dmem.executor.RankJob` on real processes.

    Parameters
    ----------
    timeout_scale:
        Multiplier turning a program's ``Recv(timeout=T)`` (written in
        simulated seconds) into ``T * timeout_scale`` wall seconds.
    run_timeout:
        Hard watchdog (wall seconds) on the whole run: if any rank has
        not reported by then, the stop event fires, stragglers are
        terminated, and the run raises ``DeadlockError`` — a deadlocked
        protocol fails fast instead of hanging the caller.
    shm_threshold:
        Payloads whose ndarray leaves total at least this many bytes
        ride a shared-memory segment; smaller ones pickle inline
        through the queue (segment setup costs more than a small copy).
    poll_interval:
        Worker queue-poll granularity (wall seconds); bounds stop-event
        and timeout-deadline reaction latency.
    max_fault_sleep:
        Cap (wall seconds) on the real sleep a fault plan's
        ``rank_slowdown``/jitter may add per Compute op.
    start_method:
        ``multiprocessing`` start method; default ``fork`` where
        available (workers inherit the job's arrays copy-on-write —
        nothing to pickle on the way in), else ``spawn``.
    """

    name = "process"

    def __init__(self, timeout_scale=1.0, run_timeout=300.0,
                 shm_threshold=1 << 14, poll_interval=0.002,
                 max_fault_sleep=0.05, start_method=None):
        import multiprocessing as mp

        self.timeout_scale = float(timeout_scale)
        self.run_timeout = float(run_timeout)
        self.shm_threshold = int(shm_threshold)
        self.poll_interval = float(poll_interval)
        self.max_fault_sleep = float(max_fault_sleep)
        if start_method is None:
            start_method = ("fork" if "fork" in mp.get_all_start_methods()
                            else "spawn")
        self.start_method = start_method
        self._mp = mp

    def run(self, job, machine=None, fault_plan=None):
        """Execute ``job``; returns a ``SimulationResult`` whose per-rank
        times are real wall-clock measurements."""
        with trace("dmem/execute", executor=self.name,
                   start_method=self.start_method):
            t0 = time.perf_counter()
            result = report_run(self._run(job, machine, fault_plan), t0,
                                fault_plan)
            add("dmem.shm_msgs", sum(s.shm_msgs for s in result.stats))
            add("dmem.shm_bytes", sum(s.shm_bytes for s in result.stats))
            return result

    def _run(self, job, machine, fault_plan):
        from repro.dmem.machine import MachineModel

        machine = machine or MachineModel()
        ctx = self._mp.get_context(self.start_method)
        cfg = _ExecConfig(timeout_scale=self.timeout_scale,
                          poll_interval=self.poll_interval,
                          shm_threshold=self.shm_threshold,
                          max_fault_sleep=self.max_fault_sleep)
        run_id = f"{os.getpid():x}x{time.monotonic_ns() & 0xffffffff:x}"
        queues = [ctx.Queue() for _ in range(job.nranks)]
        result_q = ctx.Queue()
        stop = ctx.Event()
        procs = [
            ctx.Process(target=_worker_main,
                        args=(rank, job, machine, fault_plan, queues,
                              result_q, stop, cfg, run_id),
                        daemon=True)
            for rank in range(job.nranks)
        ]
        records = {}
        shm_names = []
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
                    grace = now + max(10 * self.poll_interval, 1.0)
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
                records[rec[1]] = rec
                shm_names.extend(rec[4])
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
            self._cleanup_shm(shm_names, run_id)
            for q in queues + [result_q]:
                q.cancel_join_thread()
                q.close()

        return self._interpret(job, records, timed_out)

    @staticmethod
    def _cleanup_shm(shm_names, run_id):
        for name in shm_names:
            _unlink_segment(name)
        # segments created by workers that died before reporting
        try:
            leaked = [n for n in os.listdir("/dev/shm")
                      if n.startswith(f"{SHM_PREFIX}{run_id}")]
        except OSError:
            return
        for name in leaked:
            _unlink_segment(name)

    @staticmethod
    def _interpret(job, records, timed_out):
        crashed = [records[r] for r in sorted(records)
                   if records[r][0] == "error"]
        if crashed:
            _status, rank, _stats, tb, _names = crashed[0]
            raise WorkerCrashError(rank, tb)

        blocked = []
        for r in sorted(records):
            status, rank, stats, extra, _names = records[r]
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
