"""Machine cost model: a T3E-class distributed-memory multiprocessor.

Times in the simulator come from three knobs (DESIGN.md §7):

- ``alpha`` — per-message network latency (seconds);
- ``beta``  — inverse bandwidth (seconds per byte);
- a flop-rate curve ``rate(width)`` modelling BLAS-3 efficiency: dense
  kernels on ``width``-column blocks run at
  ``peak * width / (width + half_width)``, so 1-2 column supernodes run
  at a small fraction of peak — reproducing the paper's observation that
  TWOTONE's 2.4-column average supernode size "results in poor
  uniprocessor performance and low Megaflop rate".

The defaults are calibrated to the T3E-900 era: ~450 Mflop/s per-PE dgemm
peak, ~10 µs MPI latency, ~300 MB/s bandwidth.  Absolute seconds are not
the point (our substrate is a simulator); the *shape* of Tables 3-5 is.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MachineModel"]


@dataclass(frozen=True)
class MachineModel:
    """Cost model used by the simulator to advance per-rank clocks."""

    alpha: float = 10e-6          # message latency, s
    beta: float = 1.0 / 300e6     # inverse bandwidth, s/byte
    peak_flop_rate: float = 450e6  # dense-kernel peak, flop/s
    half_width: float = 8.0       # block width at which rate = peak/2
    send_overhead: float = 1e-6   # CPU time charged to the sender per message

    def rate(self, width: float) -> float:
        """Effective flop rate for kernels on ``width``-column blocks."""
        w = max(1.0, float(width))
        return self.peak_flop_rate * w / (w + self.half_width)

    def compute_time(self, flops: float, width: float = 32.0) -> float:
        return float(flops) / self.rate(width)

    def transfer_time(self, nbytes: int, count: int = 1) -> float:
        """Network time for one logical send standing for ``count``
        physical messages carrying ``nbytes`` in total."""
        return count * self.alpha + self.beta * float(nbytes)

    @classmethod
    def fast_network(cls) -> "MachineModel":
        """An idealized network (α, β → 0) — isolates load imbalance."""
        return cls(alpha=0.0, beta=0.0, send_overhead=0.0)

    @classmethod
    def scaled_t3e(cls) -> "MachineModel":
        """The benchmark calibration for the scaled-down testbed.

        Our analog matrices carry ~10³× fewer flops than the paper's
        (Python-simulator tractability) but only ~10-30× fewer messages,
        so running them against raw T3E constants would be purely
        latency-bound at every P.  Scaling α and β down by ~100× restores
        the T3E's computation-to-communication *operating point* at the
        testbed's scale — the quantity that actually determines the shape
        of Tables 3-5 (speedup curves, comm fractions, crossovers).
        """
        return cls(alpha=0.1e-6, beta=1.0 / 12e9, send_overhead=0.02e-6)
