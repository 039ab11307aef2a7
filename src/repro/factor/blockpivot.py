"""Mixed static / diagonal-block pivoting (paper §5 extension).

    "We can also mix static and partial pivoting by only pivoting within
    a diagonal block owned by a single processor (or SMP within a cluster
    of SMPs).  This can further enhance stability."

This module implements that idea in the serial supernodal kernel: the
elimination order of *supernodes* stays static (so the fill pattern, the
block structure and the communication schedule are unchanged — the whole
point of GESP survives), but *within* each dense diagonal block the
pivot row is chosen by threshold partial pivoting.  The local row
interchanges must also be applied to the supernode's U panel and to the
slices of every earlier L panel that live in this block row; globally the
factorization becomes

    P · A = L · U,     P = diag(P_1, ..., P_N)  (block diagonal)

so a solve only needs the per-block permutations applied to the
right-hand side — no global data-structure changes, which is exactly why
the paper considers this extension compatible with static pivoting.
(In the distributed setting the pivot vector would be broadcast along the
owning process row; the paper leaves that, like this whole technique, as
future work.)

The dense block math is :mod:`repro.kernels` (``lu_partial`` factors
the diagonal block).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.factor.blockplan import build_block_plan, supernode_row_sets
from repro.factor.gesp import tiny_pivot_threshold
from repro.factor.supernodal import SupernodalFactors, block_substitute
from repro.sparse.csc import CSCMatrix
from repro.symbolic.fill import SymbolicLU, symbolic_lu_symmetrized
from repro.symbolic.supernode import SupernodePartition, block_partition

__all__ = ["BlockPivotedFactors", "supernodal_factor_block_pivoting"]


@dataclass
class BlockPivotedFactors(SupernodalFactors):
    """Factors of ``P A = L U`` with block-diagonal ``P``: the packed
    layout of :class:`~repro.factor.supernodal.SupernodalFactors` (its
    ``values`` this factorization's own) plus the local pivot vector
    ``piv[K]`` of each diagonal block.
    """

    piv: list | None = None

    def apply_row_perm(self, b):
        """Return ``P b`` (per-block local permutations applied), in the
        wider of the factor and RHS dtypes, float64 floor."""
        out = np.array(b, dtype=np.result_type(self.dtype, np.asarray(b),
                                               np.float64), copy=True)
        xsup = self.part.xsup
        for k in range(self.part.nsuper):
            lo, hi = int(xsup[k]), int(xsup[k + 1])
            out[lo:hi] = out[lo:hi][self.piv[k]]
        return out

    def solve(self, b):
        """x with ``A x = b`` (applies P, then the block substitutions)."""
        return block_substitute(self, self.apply_row_perm(b))

    def max_l_magnitude(self):
        """max |L| entry — bounded by 1/pivot_threshold within blocks when
        block pivoting is active; a growth diagnostic."""
        out = 1.0
        for k in range(self.part.nsuper):
            d = self.diag[k]
            if d.shape[0] > 1:
                out = max(out, float(np.abs(np.tril(d, -1)).max(initial=0.0)))
            if self.below[k].size:
                out = max(out, float(np.abs(self.below[k]).max()))
        return out


def supernodal_factor_block_pivoting(a: CSCMatrix,
                                     sym: SymbolicLU | None = None,
                                     part: SupernodePartition | None = None,
                                     max_block_size: int = 24,
                                     pivot_threshold: float = 1.0,
                                     replace_tiny_pivots: bool = True,
                                     tiny_pivot_scale: float | None = None
                                     ) -> BlockPivotedFactors:
    """Right-looking supernodal LU with within-block partial pivoting.

    Identical block structure and update schedule to
    :func:`~repro.factor.supernodal.supernodal_factor`; the only dynamic
    decision is the local pivot row inside each dense diagonal block, and
    the induced row swaps are confined to block row K (its diagonal block,
    its U panel, and the block-K slices of earlier L panels).
    """
    if a.nrows != a.ncols:
        raise ValueError("block-pivoted factorization requires a square matrix")
    if sym is None:
        sym = symbolic_lu_symmetrized(a)
    if part is None:
        part = block_partition(sym, max_size=max_block_size)
    thresh = (tiny_pivot_threshold(a, tiny_pivot_scale)
              if replace_tiny_pivots else 0.0)
    if not (0.0 < pivot_threshold <= 1.0):
        raise ValueError("pivot_threshold must be in (0, 1]")

    ns = part.nsuper
    xsup = part.xsup
    supno = part.supno()
    # Block-closed row sets: if any row of a block appears in a panel, the
    # whole block's rows are stored, and the block pattern is closed under
    # *block-level* symbolic elimination (fill on the quotient graph of
    # supernodes).  Both closures are the storage price of within-block
    # pivoting: a local row interchange can make any entry of a stored
    # block nonzero, so subsequent updates must find every (block, block)
    # position present — which the quotient-graph fill guarantees.
    base_rows = supernode_row_sets(sym, part)
    bp = [set(np.unique(supno[s]).tolist()) if s.size else set()
          for s in base_rows]
    for k in range(ns):
        mem = sorted(b for b in bp[k] if b > k)
        for idx, i in enumerate(mem):
            bp[i].update(m for m in mem[idx + 1:])
    # l_slices[K] = list of (k_src, row_positions) for earlier L panels
    # whose rows intersect block K — precomputed so the block-row swap at
    # step K touches exactly the right slices
    s_rows, l_slices = [], [[] for _ in range(ns)]
    for k in range(ns):
        closed = [np.arange(xsup[b], xsup[b + 1])
                  for b in sorted(b for b in bp[k] if b > k)]
        s_rows.append(np.concatenate([*closed, xsup[:0]]))
        ends = np.cumsum([rows.size for rows in closed]).tolist()
        for rows, start, end in zip(closed, [0] + ends, ends):
            l_slices[supno[rows[0]]].append((k, start, end))

    plan = build_block_plan(a, sym, part, s_rows=s_rows)
    piv, replaced = [None] * ns, []

    def factor_diag(k, d):
        pk, tiny = kernels.lu_partial(
            d, thresh, pivot_threshold=pivot_threshold)
        piv[k] = pk
        replaced.extend(tiny)
        # apply the same local row permutation to block row K
        # everywhere: the U panel of K, and the block-K rows of
        # earlier L panels
        if not np.array_equal(pk, np.arange(pk.size)):
            right[k][:, :] = right[k][pk, :]
            for (k_src, lo_s, hi_s) in l_slices[k]:    # k_src < k
                # block-closed storage: the slice covers the whole
                # block, so the local interchange is a plain row shuffle
                assert hi_s - lo_s == pk.size
                below[k_src][lo_s:hi_s, :] = \
                    below[k_src][lo_s:hi_s, :][pk, :]

    with plan.checkout(a) as steps, kernels.kernel_counters() as snap:
        _, below, right = plan.blocks(steps.stores[0])  # what it swaps
        kernels.run_steps(steps, factor_diag)
        flat = steps.stores[0].copy()
    return BlockPivotedFactors(
        part, s_rows, *plan.blocks(flat), piv=piv,
        n_tiny_pivots=len(replaced), tiny_pivot_threshold=thresh,
        flops=int(kernels.stats().flops_since(snap)), plan=plan, values=flat)
