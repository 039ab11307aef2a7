"""Distributed triangular solves (paper Figure 9 and §3.3).

Message-driven forward and back substitution over the same 2-D
block-cyclic data structure as the factorization:

- the *lower* solve walks the elimination structure bottom-up: the
  ``fmod``/``frecv`` counters of Figure 9 track, per supernode, how many
  local block updates and how many remote partial sums are still
  outstanding; a subvector x(K) is solved by the diagonal process the
  moment its counters drain;
- the *upper* solve mirrors it top-down (``umod``/``urecv``), with U
  stored row-wise: the same rank program run in the other direction.

Execution is fully asynchronous — each rank sits in a receive-any loop
and reacts to whichever message (partial sum or solved subvector)
arrives, exactly the organization the paper credits for overlapping the
solve's dominant communication with its thin computation.
"""

from repro.pdgstrs.driver import SolveRun, pdgstrs
from repro.pdgstrs.trisolve import pdgstrs_lower, pdgstrs_upper

__all__ = ["pdgstrs_lower", "pdgstrs_upper", "pdgstrs", "SolveRun"]
