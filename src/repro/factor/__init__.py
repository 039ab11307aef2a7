"""Serial numeric factorization kernels.

- :mod:`~repro.factor.gesp` — LU with *static* pivoting on the
  precomputed fill pattern (GESP step (3)): no row exchanges, tiny pivots
  replaced by ``±√ε·‖A‖`` (a half-precision perturbation corrected later
  by iterative refinement), column by column — the readable oracle;
- :mod:`~repro.factor.gepp` — Gilbert-Peierls left-looking LU with
  partial pivoting and per-column symbolic DFS: the SuperLU-style GEPP
  baseline that Figure 4 compares against;
- :mod:`~repro.factor.supernodal` — the same factorization as dense
  block kernels over the supernode partition (panel factorization, block
  row solve, GEMM update), every index read from the per-pattern static
  schedule of :mod:`~repro.factor.blockplan`: the serial driver's default
  engine, and the serial form of what the distributed code runs.
"""

from repro.factor.gesp import GESPFactors, gesp_factor
from repro.factor.gepp import GEPPFactors, gepp_factor
from repro.factor.supernodal import SupernodalFactors, supernodal_factor
from repro.factor.blockpivot import (
    BlockPivotedFactors,
    supernodal_factor_block_pivoting,
)

__all__ = [
    "GESPFactors",
    "gesp_factor",
    "GEPPFactors",
    "gepp_factor",
    "SupernodalFactors",
    "supernodal_factor",
    "BlockPivotedFactors",
    "supernodal_factor_block_pivoting",
]
