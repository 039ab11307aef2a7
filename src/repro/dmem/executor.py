"""Pluggable execution backends for virtual-MPI rank programs.

The distributed kernels (``repro.pdgstrf``, ``repro.pdgstrs``) are
written as rank *programs*: generators yielding
:class:`~repro.dmem.comm.Send`/:class:`~repro.dmem.comm.Recv`/
:class:`~repro.dmem.comm.Compute` operations.  Historically the only way
to run them was :func:`repro.dmem.simulator.simulate` — coroutines on a
simulated clock, faithful but with zero real parallelism.  This module
extracts the seam between *program* and *runtime*:

- a :class:`RankJob` describes how to build (and optionally collect
  state back from) the per-rank generators without building them — a
  picklable recipe, so runtimes that construct programs in other
  processes can exist;
- an *executor* is any object with a ``name`` attribute and a
  ``run(job, machine=None, fault_plan=None) -> SimulationResult``
  method.  :class:`SimulatorExecutor` wraps the event-loop simulator
  (the deterministic oracle); :class:`repro.dmem.procexec.ProcessExecutor`
  runs one real worker process per rank over ``multiprocessing`` queues,
  every payload pickled.

Executor selection precedence (:func:`resolve_executor`): an explicit
instance or name > the ``REPRO_DMEM_EXECUTOR`` environment variable >
the ``"sim"`` default.  Semantics both backends must preserve — FIFO per
(source, dest, tag), earliest-arrival ``ANY_SOURCE``/``ANY_TAG``
matching, ``Recv(timeout=)``/``CommTimeoutError``, seeded ``FaultPlan``
injection — are tabulated in ``docs/EXECUTOR.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.dmem.machine import MachineModel
from repro.dmem.simulator import Recording, replay, simulate

__all__ = ["ENV_EXECUTOR", "EXECUTOR_NAMES", "RankJob",
           "SimulatorExecutor", "UnknownExecutorError", "resolve_executor"]

ENV_EXECUTOR = "REPRO_DMEM_EXECUTOR"

# names resolve_executor accepts (an executor *instance* may use any name)
EXECUTOR_NAMES = ("sim", "process")


class UnknownExecutorError(ValueError):
    """Raised for an executor name outside :data:`EXECUTOR_NAMES`."""

    def __init__(self, name):
        self.name = name
        super().__init__(
            f"unknown executor {name!r}; expected one of "
            f"{', '.join(EXECUTOR_NAMES)} (or an executor instance)")


@dataclass
class RankJob:
    """A picklable recipe for one multi-rank run.

    Attributes
    ----------
    nranks:
        Number of ranks; ``factory`` is called once per rank.
    factory:
        Module-level callable ``factory(rank, **kwargs) -> generator``
        building rank ``rank``'s program.  It must be picklable (no
        closures, no lambdas) so the process executor can rebuild the
        programs inside the workers, and the generators it returns must
        be deterministic functions of ``(rank, kwargs)`` — that is what
        makes the simulator a bit-exact oracle for every other backend.
    kwargs:
        Keyword arguments passed to every ``factory`` call (shared
        read-only inputs: the distributed blocks, the DAG, thresholds).
        Values must be picklable for the process executor.
    collect:
        Optional module-level callable ``collect(rank, **kwargs) ->
        picklable`` run *after* rank ``rank``'s program finishes, in
        whatever process ran it.  Executors whose workers do not share
        memory with the caller use it to ship mutated per-rank state
        home (:attr:`SimulationResult.collected`); the in-process
        simulator skips it (mutations are already visible) and leaves
        ``collected`` as None.
    key:
        With ``factory``, the machine and the layout ``kwargs["dist"]``,
        all the run's events depend on: the simulator executor records a
        keyed reliable run on the layout and replays the key's later
        runs.  None (the default; any job arming timeouts) simulates.
    """

    nranks: int
    factory: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)
    collect: Callable[..., Any] | None = None
    key: Any = None

    def build_program(self, rank):
        return self.factory(rank, **self.kwargs)

    def collect_state(self, rank):
        if self.collect is None:
            return None
        return self.collect(rank, **self.kwargs)


class SimulatorExecutor:
    """The event-loop simulator behind the executor protocol.

    Deterministic, single-process, simulated clock — the oracle every
    other executor is bit-compared against.  ``collect`` is not run:
    rank programs mutate caller memory in place.  A keyed job with no
    fault plan is simulated once per layout and replayed after that;
    the recordings live on the layout and are never pickled.
    """

    name = "sim"

    def __init__(self, max_events: int = 50_000_000):
        self.max_events = max_events

    def run(self, job: RankJob, machine=None, fault_plan=None):
        programs = [job.build_program(r) for r in range(job.nranks)]
        if job.key is None or fault_plan is not None:
            return simulate(programs, machine=machine,
                            max_events=self.max_events, fault_plan=fault_plan)
        machine = machine or MachineModel()
        recordings = job.kwargs["dist"].recordings
        key = (job.factory, job.key, machine)
        if key in recordings:
            return replay(programs, recordings[key])
        rec = Recording()
        sim = simulate(programs, machine, self.max_events, recording=rec)
        recordings[key] = rec
        return sim


def resolve_executor(spec=None):
    """Resolve ``spec`` to an executor instance.

    ``spec`` may be an executor instance (returned as-is), one of the
    names in :data:`EXECUTOR_NAMES`, or None — which defers to the
    ``REPRO_DMEM_EXECUTOR`` environment variable (empty string = unset)
    and finally the ``"sim"`` default.
    """
    if spec is None:
        spec = os.environ.get(ENV_EXECUTOR) or None
    if spec is None:
        spec = "sim"
    if not isinstance(spec, str):
        if hasattr(spec, "run") and hasattr(spec, "name"):
            return spec
        raise UnknownExecutorError(spec)
    if spec == "sim":
        return SimulatorExecutor()
    if spec == "process":
        # imported lazily: multiprocessing machinery is only paid for
        # when a process run is actually requested
        from repro.dmem.procexec import ProcessExecutor

        return ProcessExecutor()
    raise UnknownExecutorError(spec)
