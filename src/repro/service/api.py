"""Request/response surface of the solve service.

Everything a caller touches lives here: :class:`SolveRequest` (what to
solve, by when), :class:`SolveResponse` (a real
:class:`~repro.driver.gesp_driver.SolveReport` plus service metadata),
:class:`PendingSolve` (the future a submit returns), the structured
rejections (:class:`ServiceOverloaded`, :class:`DeadlineExceeded`,
:class:`ServiceClosed`), and :class:`ServiceConfig`.

The contract (docs/SERVICE.md): a submitted request always terminates in
exactly one of three ways — a ``SolveResponse`` carrying a
``SolveReport``, a ``SolveResponse`` carrying a structured
``ServiceError``, or (for ``submit`` itself) an immediate
``ServiceOverloaded``/``ServiceClosed`` raise.  Nothing queues
unboundedly and nothing fails silently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.driver.options import GESPOptions
from repro.sparse.csc import CSCMatrix

__all__ = [
    "DEFAULT_BATCH_WINDOW",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_QUEUE_CAPACITY",
    "DeadlineExceeded",
    "PendingSolve",
    "QuotaExceeded",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceError",
    "ServiceOverloaded",
    "ShardDied",
    "SolveRequest",
    "SolveResponse",
    "UnknownMatrixError",
]

DEFAULT_QUEUE_CAPACITY = 256
DEFAULT_BATCH_WINDOW = 0.002       # seconds a burst is given to coalesce
DEFAULT_MAX_BATCH = 32             # nrhs cap of one coalesced block solve


class ServiceError(RuntimeError):
    """Base of every structured service rejection."""


class ServiceOverloaded(ServiceError):
    """Load shed at admission: the bounded queue was full.

    The request was *not* enqueued; the caller should back off and
    retry.  ``capacity`` is the queue bound, ``pending`` the depth at
    rejection time; ``shard`` identifies the overloaded shard when the
    rejection came from the sharded tier (None for the in-process
    service — other shards may still have headroom).
    """

    def __init__(self, capacity: int, pending: int,
                 shard: int | None = None):
        self.capacity = int(capacity)
        self.pending = int(pending)
        self.shard = shard
        where = "service queue" if shard is None else f"shard {shard} queue"
        super().__init__(
            f"{where} full ({pending}/{capacity} pending); "
            "request rejected (backpressure)")

    def __reduce__(self):
        # the default Exception reduce replays __init__ with self.args
        # (the formatted message), which drops capacity/pending/shard and
        # raises TypeError on unpickle — responses cross process
        # boundaries in the sharded tier, so rebuild from the real fields
        return (self.__class__, (self.capacity, self.pending, self.shard))


class DeadlineExceeded(ServiceError):
    """The request's deadline passed before its solve started.

    ``waited`` is how long the request sat queued; ``deadline`` the
    budget it arrived with.  The solve was never attempted — a late
    answer is never computed, let alone returned as fresh.
    """

    def __init__(self, deadline: float, waited: float):
        self.deadline = float(deadline)
        self.waited = float(waited)
        super().__init__(
            f"deadline of {self.deadline:.3f}s exceeded after waiting "
            f"{self.waited:.3f}s; request evicted unsolved")

    def __reduce__(self):
        # keep deadline/waited across pickling (see ServiceOverloaded)
        return (self.__class__, (self.deadline, self.waited))


class QuotaExceeded(ServiceError):
    """The tenant's token bucket was empty at admission.

    Quota is the multi-tenant isolation primitive (docs/WORKLOADS.md):
    a tenant flooding past its provisioned rate is shed *here*, before
    it can queue, so its excess can never occupy capacity another
    tenant's SLO depends on.  ``tenant`` names the offender, ``rate``/
    ``burst`` its provisioned token bucket.  The request was not
    admitted; a well-behaved client backs off to its provisioned rate.
    """

    def __init__(self, tenant: str, rate: float, burst: float):
        self.tenant = str(tenant)
        self.rate = float(rate)
        self.burst = float(burst)
        super().__init__(
            f"tenant {self.tenant!r} exceeded its quota "
            f"({self.rate:g} req/s, burst {self.burst:g}); "
            "request shed at admission")

    def __reduce__(self):
        # keep the structured fields across pickling (see
        # ServiceOverloaded) — quota sheds cross the shard boundary
        return (self.__class__, (self.tenant, self.rate, self.burst))


class UnknownMatrixError(ServiceError, KeyError):
    """A request named a matrix ``key`` nothing is registered under.

    Raised by ``submit`` of either tier, before anything is queued or
    allocated (also a ``KeyError``: the lookup it reports is one).
    """

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"matrix key {key!r} is not registered; call "
                         "register_matrix first")

    __str__ = ServiceError.__str__     # KeyError's would repr the message

    def __reduce__(self):
        return (self.__class__, (self.key,))


class ServiceClosed(ServiceError):
    """The service is shut down (or shutting down) and admits nothing."""

    def __init__(self, detail: str = "service is closed"):
        super().__init__(detail)


class ShardDied(ServiceError):
    """A shard process died with this request in flight.

    The request was admitted and routed but its worker process exited
    (crash, OOM kill, ...) before answering.  The solve may or may not
    have run — it was never certified, so the caller should treat it as
    not executed and retry; the tier respawns the shard in the
    background.  ``shard`` is the dead shard's id, ``exitcode`` the
    process exit code when known.
    """

    def __init__(self, shard: int, exitcode: int | None = None):
        self.shard = int(shard)
        self.exitcode = exitcode
        super().__init__(
            f"shard {shard} died (exitcode {exitcode}) with this request "
            "in flight; the shard is being respawned — retry the request")

    def __reduce__(self):
        return (self.__class__, (self.shard, self.exitcode))


@dataclass
class ServiceConfig:
    """Tuning knobs of one :class:`~repro.service.server.SolveService`.

    Attributes
    ----------
    queue_capacity:
        Bound on queued (admitted, not yet batched) requests; a full
        queue sheds load with :class:`ServiceOverloaded`.
    batch_window:
        Seconds a request is given, from its admission, for burst-mates
        to arrive before it is coalesced (0 disables the wait; time
        spent queued behind a running batch counts).
    max_batch:
        Widest multi-RHS block one batch may solve; wider same-pattern
        groups split into several batches.
    options:
        Default :class:`~repro.driver.options.GESPOptions` for requests
        that do not carry their own.
    recover:
        Retry failed / non-converged batch members individually through
        the :mod:`repro.recovery` ladder (per-request, so one poisoned
        member never sinks its batch-mates).
    recover_target:
        Certification threshold handed to the ladder; ``None`` uses the
        ladder's default (``sqrt(eps)``).
    """

    queue_capacity: int = DEFAULT_QUEUE_CAPACITY
    batch_window: float = DEFAULT_BATCH_WINDOW
    max_batch: int = DEFAULT_MAX_BATCH
    options: GESPOptions = field(default_factory=GESPOptions)
    recover: bool = True
    recover_target: float | None = None

    def validate(self) -> "ServiceConfig":
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.options.validate()
        return self


@dataclass
class SolveRequest:
    """One ``A x = b`` to solve, with an optional deadline.

    Attributes
    ----------
    matrix:
        The system matrix — a :class:`~repro.sparse.csc.CSCMatrix`, or a
        string key previously registered with
        :meth:`~repro.service.server.SolveService.register_matrix`
        (saves re-shipping the values with every request of a stream).
    b:
        Right-hand side (length n), real or complex; it is solved in the
        wider of its own and the matrix's dtype (the sharded tier, whose
        transport is float64, refuses complex systems at ``submit``).
    deadline:
        Seconds the caller will wait, measured from admission; ``None``
        waits forever.  A request still queued when its deadline passes
        is evicted with :class:`DeadlineExceeded` — never solved late.
    options:
        Per-request :class:`~repro.driver.options.GESPOptions`; the
        service config's default when ``None``.  Requests only coalesce
        when their options shape the same plan (see
        :func:`repro.driver.factcache.serial_plan_key`).
    request_id:
        Caller-chosen identifier echoed on the response; assigned by
        the service (``"req-<n>"``) when empty.
    tenant:
        SLO-class name (see :mod:`repro.workload.tenants`).  When the
        name is registered with the service
        (:meth:`~repro.service.server.SolveService.register_tenant`)
        the tenant's deadline tier fills a missing ``deadline``, its
        priority orders the admission queue, and its token-bucket quota
        gates admission (:class:`QuotaExceeded`).  Empty = untenanted:
        priority 0, no quota.
    priority:
        Explicit queue priority (higher dispatches first); ``None``
        defers to the tenant's class (and finally 0).
    """

    matrix: CSCMatrix | str
    b: np.ndarray
    deadline: float | None = None
    options: GESPOptions | None = None
    request_id: str = ""
    tenant: str = ""
    priority: int | None = None

    def validate(self) -> "SolveRequest":
        if not isinstance(self.matrix, (CSCMatrix, str)):
            raise TypeError("matrix must be a CSCMatrix or a registered "
                            f"pattern key, got {type(self.matrix).__name__}")
        b = np.asarray(self.b)
        if b.ndim != 1:
            raise ValueError(f"b must be a vector, got shape {b.shape}")
        if isinstance(self.matrix, CSCMatrix):
            if self.matrix.nrows != self.matrix.ncols:
                raise ValueError("service requires a square matrix")
            if b.shape[0] != self.matrix.ncols:
                raise ValueError(
                    f"b has length {b.shape[0]} but the matrix order is "
                    f"{self.matrix.ncols}")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")
        if self.priority is not None and not isinstance(self.priority, int):
            raise TypeError("priority must be an int (higher = sooner)")
        if self.options is not None:
            self.options.validate()
        return self

    def resolve_matrix(self, registered: dict) -> CSCMatrix:
        """The matrix this (validated) request is about: its own, or the
        one ``registered`` under its key.  The keyed half of
        :meth:`validate`, which both service tiers run at ``submit``
        before a queue or a message is touched: an unknown key raises
        :class:`UnknownMatrixError`, a ``b`` of the wrong length
        ``ValueError``."""
        if not isinstance(self.matrix, str):
            return self.matrix
        matrix = registered.get(self.matrix)
        if matrix is None:
            raise UnknownMatrixError(self.matrix)
        n = np.asarray(self.b).shape[0]
        if n != matrix.ncols:
            raise ValueError(f"b has length {n} but matrix {self.matrix!r} "
                             f"has order {matrix.ncols}")
        return matrix


@dataclass
class SolveResponse:
    """Outcome of one request: a report, or a structured error.

    Exactly one of ``report``/``error`` is meaningful: ``error is None``
    means the solve ran and ``report`` is its full
    :class:`~repro.driver.gesp_driver.SolveReport` (which may itself say
    ``converged=False`` with a failure diagnosis when even the recovery
    ladder could not certify).
    """

    request_id: str
    report: object | None = None
    error: ServiceError | None = None
    batch_width: int = 1
    # the mode that produced the answer: DOFACT (cold), FACTORED (same
    # values), SAME_PATTERN_SAME_ROWPERM (new values on the pattern's
    # anchor) or SAME_PATTERN (solved again after a re-anchor)
    fact: str = ""
    recovered: bool = False           # certified by the per-request ladder
    queued_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when a solve ran and its backward error was certified."""
        return (self.error is None and self.report is not None
                and bool(self.report.converged))

    @property
    def x(self) -> np.ndarray:
        """The solution vector (raises the structured error if rejected)."""
        return self.result().x

    def result(self):
        """The :class:`SolveReport`, raising the structured
        :class:`ServiceError` if the request was rejected instead."""
        if self.error is not None:
            raise self.error
        return self.report


class PendingSolve:
    """The future a :meth:`SolveService.submit` returns.

    Thread-safe; completed exactly once by the service.  ``result()``
    blocks for the :class:`SolveResponse` (rejections are *returned* in
    the response's ``error`` field, not raised — call
    ``response.result()`` to raise them).
    """

    def __init__(self, request: SolveRequest):
        self.request = request
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._response: SolveResponse | None = None
        self._callbacks: list = []

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> SolveResponse:
        """Block until the service completes this request."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request.request_id!r} still pending after "
                f"{timeout}s")
        return self._response

    def add_done_callback(self, fn):
        """Run ``fn(response)`` when this future completes.

        Runs on the completing thread (immediately, when already done).
        This is the transport seam the sharded tier's worker uses to
        push responses back across the process boundary without polling.
        """
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(fn)
                return
        fn(self._response)

    def _complete(self, response: SolveResponse):
        # locked, not a bare is_set() check: add_done_callback runs on
        # another thread than the completion, and a member the serve
        # loop's crash guard completes may already have its answer — a
        # waiter must never observe the response change under it
        with self._lock:
            if self._done.is_set():      # first completion wins
                return
            self._response = response
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(response)
