"""Symbolic factorization (the *static* in static pivoting).

Because GESP never pivots during the numeric phase, the nonzero structure
of L and U is known before a single flop is executed (paper §3.1).  This
package computes that structure and everything derived from it:

- :mod:`~repro.symbolic.fill` — the fill patterns of L and U for a fixed
  (diagonal) pivot sequence: exact unsymmetric symbolic LU, and the
  cheaper symmetrized variant (symbolic Cholesky on the pattern of A+Aᵀ,
  the SuperLU_DIST approach);
- :mod:`~repro.symbolic.supernode` — supernode detection on L, relaxation
  (amalgamation of etree chains and small subtrees), and splitting
  against a maximum block size (the paper's T3E sweet spot is 20-30
  columns, 24 used);
- :mod:`~repro.symbolic.edag` — block-level elimination DAGs (Gilbert &
  Liu) used to prune factorization communication from "send-to-all" to
  "send-to-dependents".
"""

from repro.symbolic.fill import (
    SymbolicLU,
    symbolic_lu,
    symbolic_lu_unsymmetric,
    symbolic_lu_symmetrized,
)
from repro.symbolic.supernode import (
    SupernodePartition,
    find_supernodes,
    relax_supernodes,
    relax_subtrees,
    split_supernodes,
    merge_dense_tail,
    block_partition,
)
from repro.symbolic.edag import BlockDAG, build_block_dag

__all__ = [
    "SymbolicLU",
    "symbolic_lu",
    "symbolic_lu_unsymmetric",
    "symbolic_lu_symmetrized",
    "SupernodePartition",
    "find_supernodes",
    "relax_supernodes",
    "relax_subtrees",
    "split_supernodes",
    "merge_dense_tail",
    "block_partition",
    "BlockDAG",
    "build_block_dag",
]
