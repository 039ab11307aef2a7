"""Fill-reducing orderings (GESP step (2)).

The paper computes the column permutation ``Pc`` with minimum degree on the
structure of ``AᵀA`` (the SuperLU default).  This package provides:

- :mod:`~repro.ordering.etree` — (column) elimination trees and postorder;
- :mod:`~repro.ordering.mmd` — minimum degree on a symmetric pattern with
  quotient-graph element absorption, mass elimination and multiple
  elimination (Liu's MMD), and :func:`column_ordering`, which runs it on
  the pattern of ``AᵀA`` or ``Aᵀ+A``.  :data:`COL_PERMS` lists the
  ``col_perm`` values it accepts.

All permutations use the SuperLU destination convention: ``perm[v]`` is the
new position of vertex ``v``.
"""

from repro.ordering.etree import column_etree, etree_symmetric, postorder
from repro.ordering.mmd import COL_PERMS, column_ordering, minimum_degree

__all__ = [
    "etree_symmetric",
    "column_etree",
    "postorder",
    "minimum_degree",
    "column_ordering",
    "COL_PERMS",
]
