"""Deterministic discrete-event execution of virtual-MPI rank programs.

The scheduler runs every runnable rank generator as far as it can go
(sends are eager, computes just advance the local clock), parking it when
it blocks on a :class:`~repro.dmem.comm.Recv` with no matching message.
When no rank is runnable, the blocked rank whose matching message has the
*earliest arrival* is woken (ties broken by rank, then send sequence), so
every run is bit-reproducible.

Per-rank statistics — busy compute time, bytes and messages in/out, time
spent blocked waiting (the paper's "processes are idle 73% of the time
waiting for a message" measurements come straight from this counter) —
are collected in :class:`RankStats`.

This is conservative parallel-discrete-event simulation in the
"run-until-block" style; because our algorithms only use ANY_SOURCE
receives for commutative accumulations, the functional result is
independent of delivery order (and the tests verify it against the
serial kernels).

Failure modes are first-class (docs/ROBUSTNESS.md):

- a :class:`~repro.dmem.faults.FaultPlan` injects seeded, deterministic
  message drops / duplications / delays and compute slowdown/jitter;
- ``Recv(timeout=T)`` deadlines fire as :class:`~repro.dmem.comm.Timeout`
  deliveries — when the whole machine stalls, the earliest-deadline
  timeout is fired instead of declaring deadlock, so protocols with
  timeouts degrade into diagnosable
  :class:`~repro.dmem.comm.CommTimeoutError`\\ s rather than hangs;
- a true deadlock (no timeouts armed) raises :class:`DeadlockError`
  carrying the full per-rank blocked state in ``.blocked``.

:func:`sweep` hands a reliable run's :class:`Recording` (its stats and
clock) out again when it runs a job's static sweep instead of its
programs: under static pivoting no event depends on a value (paper §3).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any

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
from repro.dmem.machine import MachineModel
from repro.obs import add, annotate, get_tracer, trace

__all__ = ["BlockedRank", "DeadlockError", "RankStats", "Recording",
           "ReplayDivergenceError", "SimulationResult", "simulate", "sweep"]

# blocked_by_kind key used for waiting time that ended in a fired timeout
TIMEOUT_KIND = "timeout"


@dataclass(frozen=True)
class BlockedRank:
    """Snapshot of one parked rank: what it waits for and since when."""

    rank: int
    source: int          # pending Recv source (-1 = ANY_SOURCE)
    tag: int             # pending Recv tag (-1 = ANY_TAG)
    clock: float         # local clock at the moment it blocked
    deadline: float | None = None   # armed timeout deadline, if any

    def __str__(self):
        src = "ANY" if self.source == ANY_SOURCE else self.source
        tg = "ANY" if self.tag == ANY_TAG else self.tag
        s = (f"rank {self.rank} waiting for (src={src}, tag={tg}) "
             f"since t={self.clock:.3e}")
        if self.deadline is not None:
            s += f" (timeout at t={self.deadline:.3e})"
        return s


class DeadlockError(RuntimeError):
    """All ranks are blocked and no message can satisfy any of them.

    ``blocked`` holds one :class:`BlockedRank` per parked rank — the
    per-rank pending receive and local clock, so the failing protocol
    step can be identified without re-running under a debugger.
    """

    def __init__(self, message="deadlock", blocked=()):
        self.blocked = list(blocked)
        if self.blocked:
            message = (f"{message}: {len(self.blocked)} rank(s) blocked — "
                       + "; ".join(str(b) for b in self.blocked))
        super().__init__(message)


class ReplayDivergenceError(RuntimeError):
    """A static sweep does not do what its :class:`Recording` says: rank
    ``rank`` computes otherwise (``reason``)."""

    def __init__(self, rank, reason):
        self.rank, self.reason = rank, reason
        super().__init__(f"rank {rank} diverged from its recording: {reason}")


@dataclass
class RankStats:
    """Per-rank accounting, the raw material of paper Table 5."""

    rank: int
    time: float = 0.0           # final local clock
    compute_time: float = 0.0   # time advanced by Compute ops
    blocked_time: float = 0.0   # recv-completion minus recv-call time
    send_time: float = 0.0      # CPU overhead charged for sends
    # real wall-clock seconds this rank's program took to run.  Under the
    # simulator every per-rank field above is *simulated* time and this
    # stays 0.0 (the whole-run wall time is on SimulationResult); under
    # the process executor time/compute_time/blocked_time/send_time are
    # themselves wall measurements and this equals ``time``.
    wall_seconds: float = 0.0
    flops: float = 0.0
    msgs_sent: int = 0
    msgs_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    # fault-injection accounting (all zero on a reliable machine)
    msgs_dropped: int = 0       # this rank's sends lost in transit
    msgs_duplicated: int = 0    # this rank's sends delivered twice
    recv_timeouts: int = 0      # Recv deadlines that fired on this rank
    # always 0: every executor's payloads are pickled or passed by
    # reference; the field stays because bench/workloads.py reads it
    shm_msgs: int = 0
    # blocked time attributed to the tag *kind* of the message that ended
    # the wait (tag mod 4 for the factorization protocol) — the per-cause
    # idle breakdown the paper extracted from the Apprentice tool ("idle
    # 60% of the time waiting to receive the column block of L ...")
    blocked_by_kind: dict = field(default_factory=dict)

    @property
    def comm_fraction(self):
        """Fraction of this rank's wall time not spent computing."""
        if self.time <= 0:
            return 0.0
        return max(0.0, 1.0 - self.compute_time / self.time)


@dataclass
class SimulationResult:
    """Outcome of one :func:`simulate` call."""

    stats: list                       # RankStats per rank
    elapsed: float                    # max rank clock = parallel runtime
    returns: Any                      # per rank (a swept solve: its x)
    # real wall-clock seconds the run took end to end.  ``elapsed`` is
    # model time under the simulator (and == wall time, re-measured, on
    # the process executor); this field is always a wall measurement, so
    # callers never report model-clock numbers as wall time.
    wall_seconds: float = 0.0
    # per-rank state shipped back by RankJob.collect under an executor
    # whose workers do not share memory with the caller (process
    # executor); None when rank programs mutated caller memory in place
    # (simulator) or the job collects nothing.
    collected: list | None = None

    @property
    def total_flops(self):
        return sum(s.flops for s in self.stats)

    @property
    def total_messages(self):
        return sum(s.msgs_sent for s in self.stats)

    @property
    def total_bytes(self):
        return sum(s.bytes_sent for s in self.stats)

    @property
    def total_dropped(self):
        return sum(s.msgs_dropped for s in self.stats)

    @property
    def total_duplicated(self):
        return sum(s.msgs_duplicated for s in self.stats)

    @property
    def total_recv_timeouts(self):
        return sum(s.recv_timeouts for s in self.stats)

    def load_balance_factor(self):
        """B = (sum f_i / P) / max f_i of paper Table 5 (flop-based)."""
        flops = [s.flops for s in self.stats]
        mx = max(flops)
        if mx <= 0:
            return 1.0
        return (sum(flops) / len(flops)) / mx

    def comm_fraction(self):
        """Aggregate fraction of time spent not computing (Table 5)."""
        total = sum(s.time for s in self.stats)
        busy = sum(s.compute_time for s in self.stats)
        if total <= 0:
            return 0.0
        return max(0.0, 1.0 - busy / total)

    def mflops(self):
        """Aggregate Megaflop rate: total flops / parallel runtime."""
        if self.elapsed <= 0:
            return 0.0
        return self.total_flops / self.elapsed / 1e6


@dataclass
class Recording:
    """What :func:`sweep` keeps of a reliable :func:`simulate` run: its
    stats (a copy), elapsed time and, once built, the static sweep."""

    stats: list
    elapsed: float
    run: Any = None


def simulate(programs, machine: MachineModel | None = None,
             max_events: int = 50_000_000, fault_plan=None) -> SimulationResult:
    """Run rank generators to completion under the machine model.

    Parameters
    ----------
    programs:
        List of *started or unstarted* generators, one per rank; each
        yields :class:`Send`/:class:`Recv`/:class:`Compute` operations.
    machine:
        Cost model; T3E-class defaults when omitted.
    max_events:
        Safety valve against runaway programs.
    fault_plan:
        A :class:`~repro.dmem.faults.FaultPlan` injecting deterministic
        message/compute faults; ``None`` simulates a reliable machine.

    When a tracer is live, a ``dmem/simulate`` span is emitted carrying
    the aggregate message/byte/wait counters plus a ``per_rank``
    attribute with each rank's :class:`RankStats` (including the
    per-message-kind blocked-time breakdown).  All of these derive from
    the simulated clocks, so traces of a simulation are deterministic —
    including under fault injection, whose decisions are seeded.
    """
    with trace("dmem/simulate"):
        t0 = time.perf_counter()
        result = _simulate(programs, machine, max_events, fault_plan)
        return report_run(result, t0, fault_plan)


def sweep(build, kwargs, recording: Recording) -> SimulationResult:
    """A recorded job's numeric work as its static sweep, not its programs.
    ``build(**kwargs) -> (flops, run)``, each rank's ``Compute`` flops and
    ``run(**kwargs) -> returns``, is called once per recording; a rank
    whose flops differ from the recorded ones raises
    :class:`ReplayDivergenceError` then.  The result has the recorded
    clocks (fresh stats copies), this run's ``returns`` and wall time,
    and :func:`simulate`'s span and counters plus ``replayed=True``."""
    with trace("dmem/simulate", replayed=True):
        t0 = time.perf_counter()
        if recording.run is None:
            flops, run = build(**kwargs)
            for r, (f, s) in enumerate(zip(flops, recording.stats)):
                if f != s.flops:
                    raise ReplayDivergenceError(
                        r, f"sweep flops {f}; recorded {s.flops}")
            recording.run = run
        # a copy per field: a result's stats are the caller's to change
        return report_run(SimulationResult(
            stats=[replace(s, blocked_by_kind=dict(s.blocked_by_kind))
                   for s in recording.stats],
            elapsed=recording.elapsed, returns=recording.run(**kwargs)),
            t0, None)


def report_run(result, t0, fault_plan):
    """Stamp ``result``'s wall seconds since ``t0``; emit its ``dmem.*``
    counters and attributes on the open span (any executor's run)."""
    result.wall_seconds = time.perf_counter() - t0
    if get_tracer().enabled:
        stats = result.stats
        add("dmem.msgs_sent", result.total_messages)
        add("dmem.bytes_sent", result.total_bytes)
        add("dmem.wait_time", sum(s.blocked_time for s in stats))
        add("dmem.compute_time", sum(s.compute_time for s in stats))
        add("dmem.wall_seconds", result.wall_seconds)
        if fault_plan is not None or result.total_recv_timeouts:
            add("dmem.msgs_dropped", result.total_dropped)
            add("dmem.msgs_duplicated", result.total_duplicated)
            add("dmem.recv_timeouts", result.total_recv_timeouts)
        annotate(elapsed=result.elapsed, wall_seconds=result.wall_seconds,
                 nranks=len(stats), per_rank=[{
                     **vars(s), "blocked_by_kind": {
                         str(k): v for k, v in s.blocked_by_kind.items()}}
                     for s in stats])
    return result


def _simulate(programs, machine, max_events, fault_plan) -> SimulationResult:
    machine = machine or MachineModel()
    nranks = len(programs)
    gens = list(programs)
    clock = [0.0] * nranks
    stats = [RankStats(rank=r) for r in range(nranks)]
    returns = [None] * nranks

    # mailbox[dest] = list of Message, kept in arrival order lazily
    mailbox = [[] for _ in range(nranks)]
    # (rank) -> (pending Recv op, armed deadline or None), or None
    waiting = [None] * nranks
    # set by stall resolution: rank whose armed deadline must fire next
    timeout_due = [False] * nranks
    alive = [True] * nranks
    # deterministic FIFO sequencing per (src, dst, tag)
    seq_counter = 0
    # per-rank Compute op index (keys the fault plan's jitter stream)
    compute_idx = [0] * nranks
    # mutable countdowns for the plan's surgical drop rules
    rule_counts = ([rule.count for rule in fault_plan.drop_rules]
                   if fault_plan is not None else [])

    def match_index(r, op):
        """Earliest-arrival message in mailbox[r] matching op, else None."""
        best = None
        best_key = None
        for idx, m in enumerate(mailbox[r]):
            if op.source != ANY_SOURCE and m.source != op.source:
                continue
            if op.tag != ANY_TAG and m.tag != op.tag:
                continue
            key = (m.arrival, m.source, m.tag, m._seq)
            if best is None or key < best_key:
                best, best_key = idx, key
        return best

    def blocked_snapshot():
        """BlockedRank for every live parked rank (diagnosis payload)."""
        out = []
        for r in range(nranks):
            if alive[r] and waiting[r] is not None:
                op, deadline = waiting[r]
                out.append(BlockedRank(rank=r, source=op.source, tag=op.tag,
                                       clock=clock[r], deadline=deadline))
        return out

    def enrich(err, r):
        """Fill simulator context into a CommTimeoutError and re-raise."""
        err.rank = r
        err.clock = clock[r]
        err.blocked = blocked_snapshot()
        raise err.refresh()

    def receive(r, m):
        """Account for delivering message m to rank r; returns it."""
        t_ready = max(clock[r], m.arrival)
        wait = t_ready - clock[r]
        stats[r].blocked_time += wait
        kind = m.tag % 4 if m.tag >= 0 else m.tag
        stats[r].blocked_by_kind[kind] = \
            stats[r].blocked_by_kind.get(kind, 0.0) + wait
        clock[r] = t_ready
        stats[r].msgs_received += getattr(m, "_count", 1)
        stats[r].bytes_received += m.nbytes
        return m

    def fire_timeout(r, op, deadline):
        """Resume value for a Recv whose deadline passed unmet."""
        wait = deadline - clock[r]
        stats[r].blocked_time += wait
        stats[r].blocked_by_kind[TIMEOUT_KIND] = \
            stats[r].blocked_by_kind.get(TIMEOUT_KIND, 0.0) + wait
        clock[r] = deadline
        stats[r].recv_timeouts += 1
        return Timeout(source=op.source, tag=op.tag, deadline=deadline)

    def try_complete_recv(r, op, deadline):
        """Attempt to complete a receive: a Message, a Timeout, or None
        (must stay blocked)."""
        idx = match_index(r, op)
        if idx is not None:
            m = mailbox[r][idx]
            if deadline is not None and m.arrival > deadline:
                # the matching message exists but arrives too late —
                # the deadline fires first
                return fire_timeout(r, op, deadline)
            return receive(r, mailbox[r].pop(idx))
        if timeout_due[r]:
            timeout_due[r] = False
            return fire_timeout(r, op, deadline)
        return None

    def do_send(r, op):
        """Pay send costs and (subject to the fault plan) deliver."""
        nonlocal seq_counter
        clock[r] += machine.send_overhead * op.count
        stats[r].send_time += machine.send_overhead * op.count
        stats[r].msgs_sent += op.count
        stats[r].bytes_sent += op.nbytes
        if not (0 <= op.dest < nranks):
            raise ValueError(f"rank {r} sent to invalid rank {op.dest}")
        seq_counter += 1
        seq = seq_counter
        copies, delay_factor = 1, 0.0
        if fault_plan is not None:
            fate = fault_plan.send_fate(rule_counts, r, op.dest, op.tag, seq)
            copies, delay_factor = fate.copies, fate.delay_factor
        if copies == 0:
            stats[r].msgs_dropped += op.count
            return
        transfer = machine.transfer_time(op.nbytes, op.count)
        arrival = clock[r] + transfer * (1.0 + delay_factor)
        for c in range(copies):
            m = Message(source=r, tag=op.tag, payload=op.payload,
                        nbytes=op.nbytes,
                        # an injected duplicate trails the original by one
                        # extra transfer time (it shares msg_id so the
                        # receiver can deduplicate)
                        arrival=arrival + c * max(transfer, machine.alpha),
                        msg_id=seq)
            if c > 0:
                seq_counter += 1
                stats[r].msgs_duplicated += op.count
            m._seq = seq_counter if c > 0 else seq
            m._count = op.count
            mailbox[op.dest].append(m)

    events = 0

    while True:
        progressed = False
        for r in range(nranks):
            if not alive[r]:
                continue
            if waiting[r] is not None:
                # try to satisfy the pending recv (or fire its deadline)
                op, deadline = waiting[r]
                resume_value = try_complete_recv(r, op, deadline)
                if resume_value is None:
                    continue
                waiting[r] = None
                progressed = True
            else:
                resume_value = None
            # run rank r until it blocks or finishes
            while True:
                events += 1
                if events > max_events:
                    raise RuntimeError("simulation exceeded max_events")
                try:
                    if resume_value is None:
                        op = next(gens[r])
                    else:
                        op = gens[r].send(resume_value)
                        resume_value = None
                except StopIteration as stop:
                    alive[r] = False
                    returns[r] = stop.value
                    stats[r].time = clock[r]
                    progressed = True
                    break
                except CommTimeoutError as err:
                    enrich(err, r)
                if isinstance(op, Compute):
                    dt = op.seconds + (machine.compute_time(op.flops, op.width)
                                       if op.flops else 0.0)
                    if fault_plan is not None:
                        dt *= fault_plan.compute_scale(r, compute_idx[r])
                        compute_idx[r] += 1
                    clock[r] += dt
                    stats[r].compute_time += dt
                    stats[r].flops += op.flops
                elif isinstance(op, Send):
                    do_send(r, op)
                    progressed = True
                elif isinstance(op, Recv):
                    deadline = (clock[r] + op.timeout
                                if op.timeout is not None else None)
                    resume_value = try_complete_recv(r, op, deadline)
                    if resume_value is None:
                        waiting[r] = (op, deadline)
                        break
                    progressed = True
                else:
                    raise TypeError(f"rank {r} yielded unknown op {op!r}")
        if not any(alive):
            break
        if not progressed:
            # every live rank is blocked with no matching message: fire
            # the earliest armed timeout, or declare a (diagnosed)
            # deadlock when no rank can time out
            armed = [(waiting[r][1], r) for r in range(nranks)
                     if alive[r] and waiting[r] is not None
                     and waiting[r][1] is not None]
            if armed:
                _, rt = min(armed)
                timeout_due[rt] = True
                continue
            raise DeadlockError(blocked=blocked_snapshot())

    for r in range(nranks):
        stats[r].time = clock[r]
    elapsed = max(clock) if clock else 0.0
    return SimulationResult(stats=stats, elapsed=elapsed, returns=returns)
