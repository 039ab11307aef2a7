"""Hierarchical tracing: nested spans, typed counters, span events.

The instrumentation points scattered through the pipeline all speak to a
single *ambient* tracer through four module-level functions::

    with trace("factor/gesp"):          # open a nested span
        ...
        add("factor.flops", flops)      # accumulate a typed counter
        annotate(policy="sqrt_eps")     # attach attributes to the span
        event("berr", step=1, berr=b)   # timestamped event on the span

The ambient tracer defaults to a shared :class:`NullTracer` whose
``span()`` returns one reusable no-op context manager and whose
``add``/``annotate``/``event`` are ``pass`` — instrumented code pays one
global lookup plus an attribute check when tracing is off, nothing more.
Instrumentation is therefore kept at *stage* granularity (never inside a
per-column or per-message loop), so the disabled cost is a handful of
calls per solve.

Enable collection by installing a real :class:`Tracer`::

    tracer = Tracer()
    with use_tracer(tracer):
        gesp_solve(a, b)
    record = tracer.record(matrix="cfd01")   # -> repro.obs.RunRecord

Determinism: counters carry only values that are deterministic for a
given input — flop counts, fill nonzeros, message counts/bytes, and the
*simulated* clocks of :mod:`repro.dmem.simulator`.  Wall-clock span
durations are of course machine-dependent; everything else in a trace of
a ``dmem`` run is bit-reproducible.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "add",
    "annotate",
    "event",
    "get_tracer",
    "set_tracer",
    "trace",
    "use_tracer",
]


class Span:
    """One timed node of the trace tree.

    Attributes
    ----------
    name:
        Slash-separated span name (see docs/OBSERVABILITY.md for the
        naming convention, e.g. ``"factor"`` or ``"scaling/mc64"``).
    t_start, t_end:
        Clock readings at open/close (``t_end is None`` while open).
    attrs:
        Free-form JSON-serializable annotations (gauges, settings).
    counters:
        Accumulating numeric counters emitted *directly on this span*;
        use :meth:`total` for subtree aggregates.
    events:
        Timestamped dicts (``{"t": ..., "name": ..., **data}``).
    children:
        Nested spans, in open order.
    """

    __slots__ = ("name", "t_start", "t_end", "attrs", "counters", "events",
                 "children")

    def __init__(self, name, t_start=0.0, attrs=None):
        self.name = name
        self.t_start = t_start
        self.t_end = None
        self.attrs = dict(attrs) if attrs else {}
        self.counters = {}
        self.events = []
        self.children = []

    def __repr__(self):
        return (f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
                f"{len(self.children)} children)")

    @property
    def duration(self):
        """Seconds between open and close (0.0 while still open)."""
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    def walk(self):
        """Yield this span then every descendant, preorder."""
        yield self
        for c in self.children:
            yield from c.walk()

    def find(self, name):
        """First span named ``name`` in preorder (self included), or None."""
        for s in self.walk():
            if s.name == name:
                return s
        return None

    def find_all(self, name):
        """Every span named ``name`` in the subtree, preorder."""
        return [s for s in self.walk() if s.name == name]

    def total(self, counter):
        """Sum of ``counter`` over this span and all descendants."""
        return sum(s.counters.get(counter, 0) for s in self.walk())

    def all_counters(self):
        """Aggregate every counter over the subtree -> {name: total}."""
        agg = {}
        for s in self.walk():
            for k, v in s.counters.items():
                agg[k] = agg.get(k, 0) + v
        return agg


class _SpanContext:
    """Context manager opening/closing one span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        tr = self._tracer
        span = Span(self._name, tr.clock(), self._attrs)
        stack = tr._stack
        stack[-1].children.append(span)
        stack.append(span)
        self._span = span
        return span

    def __exit__(self, exc_type, exc, tb):
        span = self._span
        span.t_end = self._tracer.clock()
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack
        # pop back to the parent even if inner spans leaked unclosed
        while stack and stack.pop() is not span:
            pass
        if not stack:
            stack.append(self._tracer.root)
        return False


class Tracer:
    """Collecting tracer: a root span plus one open-span stack per thread.

    Every thread that records into the tracer opens its spans under the
    root on a stack of its own, so two threads sharing one tracer each
    leave a well-nested subtree (spans of different threads never nest).

    Parameters
    ----------
    name:
        Name of the implicit root span (default ``"run"``).
    clock:
        Monotonic-seconds callable; ``time.perf_counter`` by default.
        Tests inject a fake clock to make durations deterministic.
    """

    enabled = True

    def __init__(self, name="run", clock=time.perf_counter):
        self.clock = clock
        self.root = Span(name, self.clock())
        self._local = threading.local()

    @property
    def _stack(self):
        """The calling thread's open spans, the root at the bottom."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = [self.root]
            return self._local.stack

    @property
    def current(self):
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    def span(self, name, **attrs):
        """Context manager opening a child span of the current span."""
        return _SpanContext(self, name, attrs)

    def add(self, counter, value=1):
        """Accumulate ``value`` onto ``counter`` of the current span."""
        c = self._stack[-1].counters
        c[counter] = c.get(counter, 0) + value

    def annotate(self, **attrs):
        """Attach attributes to the current span."""
        self._stack[-1].attrs.update(attrs)

    def event(self, name, **data):
        """Append a timestamped event to the current span."""
        ev = {"t": self.clock(), "name": name}
        ev.update(data)
        self._stack[-1].events.append(ev)

    def finish(self):
        """Close the root span (idempotent); returns it."""
        if self.root.t_end is None:
            self.root.t_end = self.clock()
        return self.root

    def record(self, **meta):
        """Finish and package the trace as a :class:`~repro.obs.RunRecord`."""
        from repro.obs.record import RunRecord

        self.finish()
        return RunRecord(root=self.root, meta=meta)


class _NullSpanContext:
    """Shared, reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Shared as the module default so instrumented code runs at full speed
    when nobody asked for a trace.
    """

    enabled = False

    def span(self, name, **attrs):
        return _NULL_SPAN_CONTEXT

    def add(self, counter, value=1):
        pass

    def annotate(self, **attrs):
        pass

    def event(self, name, **data):
        pass

    def finish(self):
        return None

    def record(self, **meta):
        raise RuntimeError("NullTracer collects nothing; install a Tracer "
                           "with use_tracer() first")


NULL_TRACER = NullTracer()

# The ambient tracer is *per-thread*: instrumentation on one thread
# records into the tracer that thread installed, never into another's
# (each service batch gets its own tracer and the results are merged
# under a lock — see repro/service/server.py).  Threads that never
# called set_tracer see the shared NULL_TRACER.
_local = threading.local()


def get_tracer():
    """This thread's ambient tracer (the shared :data:`NULL_TRACER` by
    default)."""
    return getattr(_local, "tracer", NULL_TRACER)


def set_tracer(tracer):
    """Install ``tracer`` as this thread's ambient tracer; returns the
    previous one."""
    previous = getattr(_local, "tracer", NULL_TRACER)
    _local.tracer = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer):
    """Scoped :func:`set_tracer`: restore the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def trace(name, **attrs):
    """Open a span on the ambient tracer (no-op context when disabled)."""
    return get_tracer().span(name, **attrs)


def add(counter, value=1):
    """Accumulate a counter on the ambient tracer's current span."""
    tr = get_tracer()
    if tr.enabled:
        tr.add(counter, value)


def annotate(**attrs):
    """Attach attributes to the ambient tracer's current span."""
    tr = get_tracer()
    if tr.enabled:
        tr.annotate(**attrs)


def event(name, **data):
    """Record an event on the ambient tracer's current span."""
    tr = get_tracer()
    if tr.enabled:
        tr.event(name, **data)
