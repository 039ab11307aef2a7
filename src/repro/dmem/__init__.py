"""Distributed-memory substrate: a virtual MPI.

The paper's Section 3 experiments ran on a 512-node Cray T3E-900 under
MPI.  This package substitutes a *simulated* distributed-memory machine
(see DESIGN.md §2): every rank is a Python generator executing the real
SPMD algorithm on real local data, yielding communication operations to a
deterministic discrete-event scheduler.  Numerical results are a
function of the inputs alone: the simulator, the process executor and
a warm op's static sweep (:func:`~repro.dmem.simulator.sweep`) agree
bit for bit.  They are *not* the serial
factorization's bits — the distributed kernel runs the same block
operations on rank panels, other operand shapes — and are held to it
within a tolerance and to the scipy ``splu`` oracle's bound in the tests.
Per-rank clocks driven by a latency/bandwidth/flop-rate machine model
produce the timing, load-balance and communication-fraction measurements
of Tables 3-5.

- :mod:`~repro.dmem.comm` — the message-passing interface: ``Send``,
  ``Recv`` (with ANY_SOURCE/ANY_TAG and optional timeouts), ``Compute``
  operations, and the structured :class:`CommTimeoutError`;
- :mod:`~repro.dmem.simulator` — the deterministic event loop and
  per-rank statistics (time, flops, bytes, messages, blocked time);
- :mod:`~repro.dmem.executor` — the pluggable runtime seam
  (:class:`RankJob`, :func:`resolve_executor`): the simulator is one
  executor, :mod:`~repro.dmem.procexec`'s real per-rank worker
  processes (payloads pickled through queues) another, bit-identical
  to it (docs/EXECUTOR.md);
- :mod:`~repro.dmem.faults` — seeded, deterministic fault injection
  (message drop/duplication/delay, rank slowdown, compute jitter);
- :mod:`~repro.dmem.machine` — the T3E-class cost model;
- :mod:`~repro.dmem.grid` — the 2-D process grid;
- :mod:`~repro.dmem.distribute` — the supernodal 2-D block-cyclic
  distribution and per-rank block storage (paper Figure 7).
"""

from repro.dmem.comm import (
    ANY_SOURCE,
    ANY_TAG,
    CommTimeoutError,
    Compute,
    Recv,
    Send,
    Timeout,
    recv_with_retry,
)
from repro.dmem.faults import DropRule, FaultPlan
from repro.dmem.machine import MachineModel
from repro.dmem.grid import ProcessGrid, best_grid
from repro.dmem.simulator import (
    BlockedRank,
    DeadlockError,
    RankStats,
    ReplayDivergenceError,
    SimulationResult,
    simulate,
)
from repro.dmem.distribute import (
    DistributedBlocks,
    distribute_matrix,
    refill_values,
)
from repro.dmem.executor import (
    RankJob,
    SimulatorExecutor,
    UnknownExecutorError,
    resolve_executor,
)

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Send",
    "Recv",
    "Compute",
    "Timeout",
    "CommTimeoutError",
    "recv_with_retry",
    "DropRule",
    "FaultPlan",
    "MachineModel",
    "ProcessGrid",
    "best_grid",
    "BlockedRank",
    "DeadlockError",
    "RankStats",
    "ReplayDivergenceError",
    "SimulationResult",
    "simulate",
    "DistributedBlocks",
    "distribute_matrix",
    "refill_values",
    "RankJob",
    "SimulatorExecutor",
    "UnknownExecutorError",
    "resolve_executor",
]
