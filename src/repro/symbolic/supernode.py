"""Supernode detection, relaxation, and splitting.

A supernode (paper §3.1, after [8]) is a range ``r:s`` of columns of L
whose triangular block just below the diagonal is full and whose rows
below that block are identical — so the whole range can be stored and
updated as one dense block.  The supernode partition is used as the block
partition of the 2-D distribution in *both* dimensions.

Three operations:

- :func:`find_supernodes` — fundamental supernodes from the static L
  pattern (etree-chain + column-count test);
- :func:`relax_supernodes` — amalgamate small supernodes at the bottom of
  the etree, accepting a bounded number of extra stored zeros (improves
  uniprocessor speed; paper §5 lists it as planned work);
- :func:`split_supernodes` — cap the block size (the paper splits large
  supernodes to a maximum of 24 columns on the T3E for load balance).

:func:`block_partition` composes them into the one partition rule both
drivers use: relax to :data:`RELAX_SIZE` columns, split at ``max_size``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symbolic.fill import SymbolicLU

__all__ = [
    "SupernodePartition",
    "find_supernodes",
    "relax_supernodes",
    "split_supernodes",
    "merge_dense_tail",
    "block_partition",
    "RELAX_SIZE",
]

#: The amalgamation cap of :func:`block_partition` (paper §5), in columns.
RELAX_SIZE = 16


@dataclass
class SupernodePartition:
    """A partition of columns ``0..n-1`` into contiguous supernodes.

    Attributes
    ----------
    xsup:
        ``int64[nsuper+1]`` — supernode ``s`` spans columns
        ``xsup[s]:xsup[s+1]``.
    """

    xsup: np.ndarray

    @property
    def nsuper(self):
        return self.xsup.size - 1

    @property
    def n(self):
        return int(self.xsup[-1])

    def sizes(self):
        return np.diff(self.xsup)

    def supno(self):
        """Map column -> supernode index."""
        return np.repeat(np.arange(self.nsuper, dtype=np.int64),
                         np.diff(self.xsup))

    def mean_size(self):
        """Average supernode size in columns (TWOTONE's is ~2.4 in the paper)."""
        return self.n / max(1, self.nsuper)


def find_supernodes(sym: SymbolicLU) -> SupernodePartition:
    """Fundamental supernodes of the static L pattern.

    Column ``j`` joins the supernode of ``j-1`` iff ``j-1`` is a child of
    ``j`` in the etree *and* ``|L(:,j)| == |L(:,j-1)| - 1`` — the classic
    count test, which for a fundamental supernode is equivalent to the
    row-structure containment (the pattern of col ``j`` equals that of
    col ``j-1`` minus row ``j-1``).
    """
    n = sym.n
    if n == 0:
        return SupernodePartition(np.zeros(1, dtype=np.int64))
    counts, parent = np.diff(sym.l_colptr), sym.etree
    joins = (parent[:-1] == np.arange(1, n)) & (counts[1:] == counts[:-1] - 1)
    return SupernodePartition(np.concatenate(
        ([0], np.flatnonzero(~joins) + 1, [n])).astype(np.int64))


def relax_supernodes(sym: SymbolicLU, part: SupernodePartition,
                     relax_size: int = RELAX_SIZE) -> SupernodePartition:
    """Amalgamate consecutive small supernodes.

    Supernode ``t + 1`` joins the run that ends at ``t`` when (a) its
    first column is the etree parent of the column just before it (the
    last column of ``t``), and (b) the merged width stays at most
    ``relax_size``.  The merged supernode stores a few explicit zeros;
    the numeric kernel treats them as values.
    """
    parent, xsup = sym.etree.tolist(), part.xsup.tolist()
    merged, s = [xsup[0]], 0
    while s < part.nsuper:
        t = s
        # extend while the next supernode is the etree parent chain
        while (t + 1 < part.nsuper
               and parent[xsup[t + 1] - 1] == xsup[t + 1]
               and xsup[t + 2] - xsup[s] <= relax_size):
            t += 1
        merged.append(xsup[t + 1])
        s = t + 1
    return SupernodePartition(np.array(merged, dtype=np.int64))


def split_supernodes(part: SupernodePartition, max_size: int = 24) -> SupernodePartition:
    """Split any supernode wider than ``max_size`` into equal-ish chunks.

    The paper: "when this occurs, we break the large supernode into
    smaller chunks, so that each chunk does not exceed our preset
    threshold, the maximum block size" (24 used on the T3E).
    """
    if max_size < 1:
        raise ValueError("max_size must be positive")
    width = np.diff(part.xsup)
    nchunk = np.maximum(-(-width // max_size), 1)   # ceil, one at least
    # chunk c of a supernode is width // nchunk wide, plus one if c is
    # below width % nchunk
    owner = np.repeat(np.arange(width.size), nchunk)
    c = np.arange(owner.size) - np.repeat(np.cumsum(nchunk) - nchunk, nchunk)
    size = width[owner] // nchunk[owner] + (c < width[owner] % nchunk[owner])
    return SupernodePartition(np.concatenate(([0], np.cumsum(size))))


def merge_dense_tail(sym: SymbolicLU, part: SupernodePartition,
                     density_threshold: float = 0.7) -> SupernodePartition:
    """Merge the trailing supernodes once the bottom-right submatrix is
    nearly dense (paper §5: "switching to a dense factorization, such as
    the one implemented in ScaLAPACK, when the submatrix at the lower
    right corner becomes sufficiently dense").

    Scans supernode boundaries from the end: the tail starting at column
    ``c`` is merged into one supernode when the static L pattern of
    columns ``c..n-1`` fills at least ``density_threshold`` of the
    trailing lower triangle.  The merged tail stores (few) explicit zeros
    and is then factored as a single dense block — the switch-to-dense.

    Returns a new partition; ``part`` is unchanged.  Composes with
    :func:`split_supernodes` (apply the split afterwards if a block-size
    cap should still apply to the dense tail's *distribution*).
    """
    if not (0.0 < density_threshold <= 1.0):
        raise ValueError("density_threshold must be in (0, 1]")
    n = sym.n
    if n == 0 or part.nsuper <= 1:
        return part
    counts = np.diff(sym.l_colptr)  # nnz per column of L (incl. diagonal)
    # walking boundaries from the end, accumulate trailing nnz(L)
    best_start = None
    acc = 0
    for s in range(part.nsuper - 1, 0, -1):
        lo, hi = int(part.xsup[s]), int(part.xsup[s + 1])
        acc += int(counts[lo:hi].sum())
        tail = n - lo
        full = tail * (tail + 1) // 2
        if acc >= density_threshold * full:
            best_start = s
        else:
            break
    if best_start is None:
        return part
    xsup = np.concatenate([part.xsup[:best_start + 1], [n]])
    return SupernodePartition(np.asarray(xsup, dtype=np.int64))


def block_partition(sym: SymbolicLU, max_size: int = 24,
                    dense_tail_threshold: float = 0.0) -> SupernodePartition:
    """The partition rule of both drivers: fundamental supernodes →
    relaxation to :data:`RELAX_SIZE` columns → (with a positive
    ``dense_tail_threshold``) :func:`merge_dense_tail` → splitting at
    ``max_size``.  This is the block partition of the serial block plan
    and of the 2-D distributed data structure in both dimensions."""
    part = relax_supernodes(sym, find_supernodes(sym))
    if dense_tail_threshold > 0.0:
        part = merge_dense_tail(sym, part,
                                density_threshold=dense_tail_threshold)
    return split_supernodes(part, max_size=max_size)
