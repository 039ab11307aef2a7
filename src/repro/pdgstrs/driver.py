"""Combined distributed triangular solve: ``L U x = b``.

Runs the lower solve then the upper solve (the two phases the paper's
Table 4 reports "altogether") and merges their statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dmem.distribute import DistributedBlocks
from repro.dmem.simulator import SimulationResult
from repro.obs import add, trace
from repro.pdgstrs.trisolve import pdgstrs_lower, pdgstrs_upper

__all__ = ["SolveRun", "pdgstrs"]


@dataclass
class SolveRun:
    """Result of one distributed forward+back substitution."""

    x: np.ndarray
    lower: SimulationResult
    upper: SimulationResult

    @property
    def elapsed(self):
        """Modeled time for both substitutions (simulator) or real wall
        seconds (process executor)."""
        return self.lower.elapsed + self.upper.elapsed

    @property
    def wall_seconds(self):
        """Real wall-clock seconds spent in both substitutions."""
        return self.lower.wall_seconds + self.upper.wall_seconds

    @property
    def total_flops(self):
        return self.lower.total_flops + self.upper.total_flops

    @property
    def total_messages(self):
        return self.lower.total_messages + self.upper.total_messages

    def mflops(self):
        if self.elapsed <= 0:
            return 0.0
        return self.total_flops / self.elapsed / 1e6

    def load_balance_factor(self):
        flops = [a.flops + b.flops
                 for a, b in zip(self.lower.stats, self.upper.stats)]
        mx = max(flops)
        if mx <= 0:
            return 1.0
        return (sum(flops) / len(flops)) / mx

    def comm_fraction(self):
        total = sum(s.time for s in self.lower.stats) + \
            sum(s.time for s in self.upper.stats)
        busy = sum(s.compute_time for s in self.lower.stats) + \
            sum(s.compute_time for s in self.upper.stats)
        if total <= 0:
            return 0.0
        return max(0.0, 1.0 - busy / total)


def pdgstrs(dist: DistributedBlocks, b, machine=None,
            fault_plan=None, executor=None) -> SolveRun:
    """Solve ``L U x = b`` on the factored distributed blocks.

    ``executor`` selects the runtime both substitutions run on
    (``"sim"``/``"process"``/instance); results are bit-identical
    across executors (:mod:`repro.pdgstrs.trisolve` says why).
    """
    with trace("solve/pdgstrs"):
        with trace("solve/lower"):
            y, low = pdgstrs_lower(dist, b, machine=machine,
                                   fault_plan=fault_plan,
                                   executor=executor)
        with trace("solve/upper"):
            x, up = pdgstrs_upper(dist, y, machine=machine,
                                  fault_plan=fault_plan,
                                  executor=executor)
        run = SolveRun(x=x, lower=low, upper=up)
        add("solve.flops", run.total_flops)
        return run
