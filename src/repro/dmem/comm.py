"""Communication operations for virtual-MPI rank programs.

A rank program is a Python generator that *yields* operations and (for
``Recv``) receives the delivered message back through ``generator.send``:

    def my_rank(rank, ctx):
        yield Compute(flops=1000)
        yield Send(dest=1, tag=7, payload=arr, nbytes=arr.nbytes)
        msg = yield Recv(source=ANY_SOURCE, tag=ANY_TAG)
        # msg is a Message(source, tag, payload, nbytes)

Semantics (matching the paper's usage of MPI):

- ``Send`` is eager/buffered (``MPI_Isend`` + guaranteed buffering): the
  sender pays a CPU overhead and continues; the payload arrives at the
  destination ``alpha + beta * nbytes`` later;
- ``Recv`` blocks until a matching message is available; completion time
  is ``max(recv-call time, arrival time)``;
- message order is FIFO per (source, dest, tag);
- ``ANY_SOURCE``/``ANY_TAG`` match the earliest-arriving available
  message (deterministic tie-break), which is what the paper's
  message-driven triangular solve relies on.

Failure semantics (the robustness layer):

- ``Recv(timeout=T)`` arms a *simulated-seconds* timeout: if no matching
  message can complete the receive by ``call time + T``, the generator is
  resumed with a :class:`Timeout` sentinel instead of a message (the
  moral equivalent of ``MPI_Recv`` + ``MPI_Test`` polling with a
  deadline).  Programs that never pass a timeout keep the original
  block-forever semantics;
- :func:`recv_with_retry` wraps the timeout in bounded-retry semantics
  and raises a structured :class:`CommTimeoutError` when the retries are
  exhausted, so an injected fault (dropped message, dead rank) surfaces
  as a diagnosable error instead of a hang.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["ANY_SOURCE", "ANY_TAG", "Send", "Recv", "Compute", "Message",
           "Timeout", "CommTimeoutError", "recv_with_retry",
           "OpCounts", "count_ops"]

ANY_SOURCE = -1
ANY_TAG = -1


@dataclass
class Send:
    """Eager send of ``payload`` (not copied — rank programs must not
    mutate a buffer after sending it, same contract as MPI_Isend)."""

    dest: int
    tag: int
    payload: Any
    nbytes: int
    # how many physical messages this logical send stands for; the
    # paper's data structure sends index[] and nzval[] separately, i.e. 2
    count: int = 1


@dataclass
class Recv:
    """Blocking receive; resumes the generator with a :class:`Message`.

    With ``timeout`` set (simulated seconds), the receive completes with
    a :class:`Timeout` sentinel when no matching message can arrive by
    ``call time + timeout`` — rank programs must then check
    ``isinstance(msg, Timeout)`` (or use :func:`recv_with_retry`).
    """

    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    timeout: float | None = None


@dataclass
class Compute:
    """Advance the local clock by ``flops / rate``.

    ``width`` is the block width hint for the machine model's
    efficiency curve (small supernodes run far below peak — the paper's
    TWOTONE observation).  ``seconds`` adds a fixed cost instead of /
    in addition to flops (used for per-message CPU overheads)."""

    flops: float = 0.0
    width: int = 32
    seconds: float = 0.0


@dataclass
class Message:
    """A delivered message, handed back to the receiving generator.

    ``msg_id`` identifies the *logical* send: a faithfully delivered
    message and any injected duplicates of it share one id, so receivers
    of unreliable transports can deduplicate (see
    :class:`~repro.dmem.faults.FaultPlan`).
    """

    source: int
    tag: int
    payload: Any
    nbytes: int
    arrival: float = field(default=0.0, compare=False)
    msg_id: int = field(default=-1, compare=False)

    def __reduce__(self):
        # Messages cross process boundaries under the process executor;
        # the transport-private ``_seq``/``_count`` attributes (set
        # outside __init__) must survive the trip because FIFO tie-break
        # and dedup accounting read them on the receiving side.
        return (_rebuild_message,
                (self.source, self.tag, self.payload, self.nbytes,
                 self.arrival, self.msg_id,
                 getattr(self, "_seq", None), getattr(self, "_count", None)))


def _rebuild_message(source, tag, payload, nbytes, arrival, msg_id,
                     seq, count):
    m = Message(source=source, tag=tag, payload=payload, nbytes=nbytes,
                arrival=arrival, msg_id=msg_id)
    if seq is not None:
        m._seq = seq
    if count is not None:
        m._count = count
    return m


@dataclass
class Timeout:
    """Sentinel resumed into a generator when a ``Recv(timeout=...)``
    deadline passed with no matching message delivered."""

    source: int          # what the receive was waiting for
    tag: int
    deadline: float      # simulated time at which the timeout fired


class CommTimeoutError(RuntimeError):
    """A rank exhausted its receive retries waiting for a message.

    Structured context for diagnosis (no grepping of the message needed):

    Attributes
    ----------
    rank:
        The failing rank (filled in by the executor).
    source, tag:
        What the receive was waiting for (``-1`` = ANY).
    timeout, attempts:
        The per-attempt timeout and how many attempts were made before
        giving up (simulated seconds on the simulator; the same number
        read as wall seconds on the process executor).
    where:
        Free-form protocol location, e.g. ``"pdgstrf step1 k=3"``.
    clock:
        Executor clock at failure (simulated time on the simulator, wall
        seconds since run start on the process executor).
    blocked:
        Snapshot of every still-blocked rank at failure — a list of
        :class:`BlockedRank` — filled in by the executor.
    """

    def __init__(self, source, tag, timeout, attempts, where=""):
        self.rank = None
        self.source = source
        self.tag = tag
        self.timeout = timeout
        self.attempts = attempts
        self.where = where
        self.clock = None
        self.blocked = []
        super().__init__(self._describe())

    def _describe(self):
        src = "ANY" if self.source == ANY_SOURCE else self.source
        tg = "ANY" if self.tag == ANY_TAG else self.tag
        rank = "?" if self.rank is None else self.rank
        msg = (f"rank {rank} gave up waiting for message (src={src}, "
               f"tag={tg}) after {self.attempts} attempts of "
               f"{self.timeout} simulated seconds")
        if self.where:
            msg += f" in {self.where}"
        if self.blocked:
            msg += "; blocked ranks: " + ", ".join(str(b) for b in self.blocked)
        return msg

    def refresh(self):
        """Re-render the message after the executor fills in context."""
        self.args = (self._describe(),)
        return self

    def __reduce__(self):
        # The default exception pickling calls ``cls(*self.args)`` which
        # does not match this __init__ signature; the process executor
        # ships these across a result queue, so spell the rebuild out.
        return (_rebuild_comm_timeout,
                (self.source, self.tag, self.timeout, self.attempts,
                 self.where, self.rank, self.clock, list(self.blocked)))


def _rebuild_comm_timeout(source, tag, timeout, attempts, where,
                          rank, clock, blocked):
    err = CommTimeoutError(source=source, tag=tag, timeout=timeout,
                           attempts=attempts, where=where)
    err.rank = rank
    err.clock = clock
    err.blocked = list(blocked)
    return err.refresh()


def recv_with_retry(source=ANY_SOURCE, tag=ANY_TAG, timeout=None,
                    retries=2, where=""):
    """Receive with bounded retries — ``yield from`` this in a rank program.

    Yields ``Recv(source, tag, timeout)`` up to ``1 + retries`` times,
    returning the first real :class:`Message`.  When every attempt times
    out, raises :class:`CommTimeoutError` (which the simulator enriches
    with rank/clock/blocked-state context before propagating).  With
    ``timeout=None`` this is a plain blocking receive.
    """
    if timeout is None:
        return (yield Recv(source=source, tag=tag))
    attempts = 0
    while True:
        m = yield Recv(source=source, tag=tag, timeout=timeout)
        if not isinstance(m, Timeout):
            return m
        attempts += 1
        if attempts > retries:
            raise CommTimeoutError(source=source, tag=tag, timeout=timeout,
                                   attempts=attempts, where=where)


@dataclass
class OpCounts:
    """Tally of the operations one rank program yields.

    This counts at the *comm layer* — before the simulator sees anything
    — so it is the ground truth the observability counters are checked
    against (``dmem.msgs_sent`` must equal the summed ``messages`` of all
    rank programs; the integration tests assert exactly that).
    """

    sends: int = 0       # Send ops yielded (logical sends)
    messages: int = 0    # physical messages (sum of Send.count)
    bytes_sent: int = 0  # sum of Send.nbytes
    recvs: int = 0       # Recv ops yielded
    computes: int = 0    # Compute ops yielded
    flops: float = 0.0   # sum of Compute.flops


def count_ops(program, counts: OpCounts):
    """Wrap a rank program, tallying its yielded ops into ``counts``.

    Transparent to the simulator: yields exactly what ``program`` yields
    and forwards delivered messages (and the return value) unchanged.
    """
    resume = None
    while True:
        try:
            op = program.send(resume) if resume is not None \
                else next(program)
        except StopIteration as stop:
            return stop.value
        if isinstance(op, Send):
            counts.sends += 1
            counts.messages += op.count
            counts.bytes_sent += op.nbytes
        elif isinstance(op, Recv):
            counts.recvs += 1
        elif isinstance(op, Compute):
            counts.computes += 1
            counts.flops += op.flops
        resume = yield op
