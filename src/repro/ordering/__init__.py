"""Fill-reducing orderings (GESP step (2)).

The paper computes the column permutation ``Pc`` with minimum degree on the
structure of ``AᵀA`` (the SuperLU default), and notes nested dissection on
``AᵀA`` or ``Aᵀ+A`` as alternatives.  This package provides:

- :mod:`~repro.ordering.etree` — (column) elimination trees, postorder,
  and derived quantities;
- :mod:`~repro.ordering.mmd` — minimum degree on a symmetric pattern with
  quotient-graph element absorption, mass elimination and multiple
  elimination (Liu's MMD);
- :mod:`~repro.ordering.colamd` — column orderings for unsymmetric LU:
  minimum degree on ``AᵀA`` (explicit or implicit) with dense-row stripping;
- :mod:`~repro.ordering.nd` — nested dissection by level-structure
  bisection (George), with minimum-degree leaf ordering.

All permutations use the SuperLU destination convention: ``perm[v]`` is the
new position of vertex ``v``.
"""

from repro.ordering.etree import (
    etree_symmetric,
    column_etree,
    postorder,
    tree_depths,
)
from repro.ordering.mmd import minimum_degree
from repro.ordering.amd import approximate_minimum_degree
from repro.ordering.colamd import column_ordering
from repro.ordering.nd import nested_dissection

__all__ = [
    "etree_symmetric",
    "column_etree",
    "postorder",
    "tree_depths",
    "minimum_degree",
    "approximate_minimum_degree",
    "column_ordering",
    "nested_dissection",
]
