"""Supernodal blocked right-looking LU with static pivoting.

This is the serial reference implementation of the algorithm the
distributed code (:mod:`repro.pdgstrf`) runs, organized exactly like
paper Figure 8:

    for K = 1 .. N:
      (1) factor the block column  L(K:N, K)
      (2) triangular-solve the block row  U(K, K+1:N)
      (3) rank-b update  A(K+1:N, K+1:N) -= L(K+1:N,K) U(K,K+1:N)

It requires the *symmetrized* symbolic pattern (A+Aᵀ analysis): then all
columns of a supernode share one below-diagonal row set ``S_K``, all rows
share the same right-of-diagonal column set (also ``S_K``), and the whole
supernode packs into three dense arrays — the diagonal block ``D_K``
(both triangles stored, as the paper notes), the below panel ``B_K``
(|S_K| × w) and the right panel ``R_K`` (w × |S_K|).  The dense-kernel
structure is what gives supernodal codes their Mflop rate; TWOTONE's 2.4-
column average supernode is why the paper's Table 5 shows it performing
poorly.

Every index the elimination needs — where A's nonzeros go, where each
supernode's update is subtracted, where L and U are read back — comes
from a :class:`~repro.factor.blockplan.BlockPlan` computed once per
pattern, so the numeric pass only moves numbers: the plan's step list
resolved once over the store ``BlockPlan.checkout`` refills, run by
:func:`repro.kernels.run_steps` (the sweep's and block pivoting's too).
L and U are gathered when read.  It is the serial driver's default engine;
:func:`repro.factor.gesp.gesp_factor` is the column-by-column oracle it is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro import kernels
from repro.factor.blockplan import (
    BlockPlan,
    build_block_plan,
    supernode_row_sets,
)
from repro.factor.gesp import GESPFactors, tiny_pivot_threshold
from repro.obs import add, annotate, trace
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import (PatternMismatchError, pattern_fingerprint,
                              same_pattern)
from repro.symbolic.fill import SymbolicLU, symbolic_lu_symmetrized
from repro.symbolic.supernode import SupernodePartition, block_partition

__all__ = [
    "SupernodalFactors",
    "supernodal_factor",
    "supernode_row_sets",
    "block_substitute",
]


# --------------------------------------------------------------------- #
# serial supernodal factorization
# --------------------------------------------------------------------- #

@dataclass
class SupernodalFactors:
    """Packed supernodal factors.

    Per supernode ``K`` of width ``w_K`` with below/right index set
    ``s_rows[K]``:

    - ``diag[K]`` — (w×w) packed diagonal factor (L unit-lower + U upper);
    - ``below[K]`` — (|S|×w) panel of L(S_K, K);
    - ``right[K]`` — (w×|S|) panel of U(K, S_K).

    Factors computed here (not gathered from the distributed layout)
    also carry their ``plan``, the flat ``values`` the blocks are views
    of, and the tiny-pivot record :class:`~repro.factor.gesp.GESPFactors`
    reports.
    """

    part: SupernodePartition
    s_rows: list
    diag: list
    below: list
    right: list
    n_tiny_pivots: int
    tiny_pivot_threshold: float
    flops: int
    plan: BlockPlan | None = None
    values: np.ndarray | None = None
    perturbed_columns: np.ndarray | None = None
    pivot_deltas: np.ndarray | None = None

    @property
    def n(self):
        return self.part.n

    @property
    def dtype(self):
        """The factor values' dtype (float64 when there are no blocks)."""
        return self.diag[0].dtype if self.diag else np.dtype(np.float64)

    def to_csc_factors(self):
        """Expand to plain CSC (L unit-lower incl. diagonal, U upper) for
        interoperability with the serial solvers — explicit zeros of the
        dense blocks are dropped."""
        n, xsup = self.n, self.part.xsup
        rows, cols, vals = ([np.empty(0, dtype=t)]     # n = 0 has no blocks
                            for t in (np.int64, np.int64, self.dtype))
        for k, s in enumerate(self.s_rows):
            c = np.arange(xsup[k], xsup[k + 1])
            for block, r_idx, c_idx in ((self.diag[k], c, c),
                                        (self.below[k], s, c),
                                        (self.right[k], c, s)):
                rows.append(np.repeat(r_idx, c_idx.size))
                cols.append(np.tile(c_idx, r_idx.size))
                vals.append(block.ravel())
        r, c, v = (np.concatenate(x) for x in (rows, cols, vals))
        keep = (v != 0.0) | (r == c)            # the diagonal always stays
        unit = np.where(r == c, v.dtype.type(1), v)
        return tuple(
            CSCMatrix.from_coo(COOMatrix(n, n, r[t], c[t], x[t]),
                               sum_duplicates=False)
            for t, x in ((keep & (r >= c), unit), (keep & (r <= c), v)))

    def to_gesp_factors(self) -> GESPFactors:
        """These factors as :class:`~repro.factor.gesp.GESPFactors`: the
        plan's solve schedule bound to their values, L and U (:meth:`csc_lu`)
        read out of them when first asked for."""
        plan = self.plan
        sweeps = None if plan.solve is None else partial(
            plan.solve.apply, plan.solve.values(self.values))
        return GESPFactors(l=None, u=None, n_tiny_pivots=self.n_tiny_pivots,
                           tiny_pivot_threshold=self.tiny_pivot_threshold,
                           perturbed_columns=self.perturbed_columns,
                           pivot_deltas=self.pivot_deltas, flops=self.flops,
                           sweeps=sweeps, gather=self.csc_lu)

    def csc_lu(self):
        """``(l, u)`` on the static CSC pattern of the analysis (explicit
        zeros kept), read out of the block values through the plan."""
        plan, n = self.plan, self.n
        lval = self.values[plan.l_pos]
        lval[plan.sym.l_colptr[:-1]] = 1.0         # unit diagonal of L
        return (CSCMatrix(n, n, plan.sym.l_colptr, plan.sym.l_rowind, lval,
                          check=False),
                CSCMatrix(n, n, plan.u_colptr, plan.u_rowind,
                          self.values[plan.u_pos], check=False))

    def solve(self, b):
        """x with L U x = b, block forward then block back substitution."""
        # in the wider of the factors' dtype (float64 / complex128) and
        # b's: a float32 or integer b is solved in float64
        x = np.array(b, dtype=np.result_type(self.dtype, np.asarray(b),
                                             np.float64), copy=True)
        return block_substitute(self, x)


def block_substitute(factors, x):
    """Overwrite ``x`` with ``U⁻¹ L⁻¹ x`` for packed supernodal
    ``factors``: block forward, then block back substitution."""
    xsup, s_rows = factors.part.xsup, factors.s_rows
    ns = factors.part.nsuper
    # forward: L y = b
    for k in range(ns):
        lo, hi = int(xsup[k]), int(xsup[k + 1])
        kernels.diag_solve_lower_unit(factors.diag[k], x[lo:hi])
        s = s_rows[k]
        if s.size:
            x[s] -= kernels.gemm_update(factors.below[k], x[lo:hi])
    # back: U x = y
    for k in range(ns - 1, -1, -1):
        lo, hi = int(xsup[k]), int(xsup[k + 1])
        s = s_rows[k]
        if s.size:
            x[lo:hi] -= kernels.gemm_update(factors.right[k], x[s])
        kernels.diag_solve_upper(factors.diag[k], x[lo:hi])
    return x


def supernodal_factor(a: CSCMatrix,
                      sym: SymbolicLU | None = None,
                      part: SupernodePartition | None = None,
                      max_block_size: int = 24,
                      replace_tiny_pivots: bool = True,
                      tiny_pivot_scale: float | None = None,
                      plan: BlockPlan | None = None) -> SupernodalFactors:
    """Blocked right-looking GESP factorization (paper Figure 8, serial).

    Numerically equivalent to :func:`repro.factor.gesp.gesp_factor` run on
    the symmetrized pattern — the tests assert exactly that.  ``plan`` is a
    :class:`~repro.factor.blockplan.BlockPlan` built earlier for this
    pattern (it then stands in for ``sym`` / ``part``); without one the
    plan is built here, which is most of a first factorization's time.
    """
    with trace("factor/supernodal"), kernels.kernel_counters():
        factors = _supernodal_factor(a, sym, part, max_block_size,
                                     replace_tiny_pivots, tiny_pivot_scale,
                                     plan)
        add("factor.flops", factors.flops)
        add("factor.tiny_pivots", factors.n_tiny_pivots)
        annotate(nsuper=factors.part.nsuper,
                 tiny_pivot_threshold=factors.tiny_pivot_threshold)
        return factors


def _supernodal_factor(a, sym, part, max_block_size, replace_tiny_pivots,
                       tiny_pivot_scale, plan) -> SupernodalFactors:
    if a.nrows != a.ncols:
        raise ValueError("supernodal_factor requires a square matrix")
    if plan is None:
        if sym is None:
            sym = symbolic_lu_symmetrized(a)
        if part is None:
            part = block_partition(sym, max_size=max_block_size)
        plan = build_block_plan(a, sym, part)
    elif not same_pattern(a, plan.pattern) and (
            got := pattern_fingerprint(a)) != plan.sym.pattern_fingerprint:
        raise PatternMismatchError(    # a_pos would fill the wrong slots
            plan.sym.pattern_fingerprint, got,
            "supernodal_factor (reused BlockPlan)", a.ncols, a.nnz)
    thresh = (tiny_pivot_threshold(a, tiny_pivot_scale)
              if replace_tiny_pivots else 0.0)

    xsup = plan.part.xsup
    replaced = {}       # column → pivot delta

    def factor_diag(k, d, lu=kernels.lu_nopivot):
        entry = d.diagonal().copy()
        for j in lu(d, thresh):
            # the pivot the kernel replaced: replay column j's updates
            # on the block's entry value, in the kernel's order
            old = entry[j]
            for t in range(j):
                old = old - d[j, t] * d[t, j]
            replaced[xsup[k] + j] = d[j, j] - old

    stats = kernels.stats()
    snap = stats.snapshot()
    with plan.checkout(a) as steps:
        kernels.run_steps(steps, factor_diag, thresh)
        flat = steps.stores[0].copy()   # the store stays the plan's
    cols = sorted(replaced)     # steps run out of supernode order
    return SupernodalFactors(
        plan.part, plan.s_rows, *plan.blocks(flat), n_tiny_pivots=len(cols),
        tiny_pivot_threshold=thresh,
        flops=int(stats.flops_since(snap)), plan=plan, values=flat,
        perturbed_columns=np.array(cols, dtype=np.int64),
        pivot_deltas=np.array([replaced[c] for c in cols], dtype=flat.dtype))
