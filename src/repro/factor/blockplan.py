"""The static schedule of the supernodal factorization (paper §3).

With the pivots fixed on the diagonal, *where* every number of the
blocked right-looking elimination goes is a function of the sparsity
pattern alone.  A :class:`BlockPlan` is that function, evaluated once:

- the supernode partition and the row sets ``S_K``;
- one flat value array laid out ``[D_K | B_K | R_K]`` supernode after
  supernode — the diagonal block (w×w), the below panel L(S_K, K)
  (|S_K|×w) and the right panel U(K, S_K) (w×|S_K|), each a C-ordered
  view (:meth:`BlockPlan.load`);
- ``a_pos`` — where each nonzero of the analysed matrix lands in it;
- per supernode, the flat positions its |S_K|×|S_K| rank-w update is
  subtracted from (``targets``), and which entries of the update take
  part when relaxed supernodes left some without a home
  (``selection``);
- ``l_pos`` / ``u_pos`` — where the static CSC patterns of L and U read
  their values back;
- ``solve`` — the level-set schedule both triangular sweeps run from
  (:mod:`repro.factor.solveplan`);
- ``runs`` — the elimination order cut into ``(k0, k1, run)``: consecutive
  width-1 supernodes none of whose ``S_K`` reaches into another are
  eliminated together from one :class:`Run` of index arrays.

The numeric pass (:func:`repro.factor.supernodal.eliminate`) is then
``lu → trsm → trsm → gemm → one indexed subtract`` per supernode, or one
divide, one product and one indexed subtract per batched run.  The index
costs ``Σ|S_K|²`` integers (thrice for a batched member), stored ``int32``
while the flat array is shorter than 2³¹ (docs/REFACTORIZATION.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.factor.gesp import transpose_pattern
from repro.factor.solveplan import SolvePlan, _runs, build_solve_plan
from repro.kernels import KernelStats
from repro.sparse.csc import CSCMatrix
from repro.symbolic.fill import SymbolicLU
from repro.symbolic.supernode import SupernodePartition

__all__ = ["BlockPlan", "Run", "build_block_plan", "supernode_row_sets"]


def supernode_row_sets(sym: SymbolicLU, part: SupernodePartition):
    """``S_K`` for every supernode: the sorted global rows strictly below
    the supernode that appear in any of its columns' L patterns.  With
    the symmetrized pattern this equals the right-of-diagonal column set
    of the supernode's U block row."""
    n, ns = part.n, part.nsuper
    k = np.repeat(part.supno(), np.diff(sym.l_colptr))
    below = sym.l_rowind >= part.xsup[k + 1]
    keys = np.unique(k[below] * n + sym.l_rowind[below])
    cuts = np.cumsum(np.bincount(keys // n, minlength=ns))[:-1]
    return np.split(keys % n, cuts)[:ns]


class Run(NamedTuple):
    """One batched stretch of width-1 supernodes, as flat positions."""
    dpos: np.ndarray        # the members' pivots
    bpos: np.ndarray        # their below-panel entries L(S_K, K) ...
    bpiv: np.ndarray        # ... and the pivot each is divided by
    lpos: np.ndarray        # per update entry (i, j) of a member K: L(i, K)
    upos: np.ndarray        # ... and U(K, j), whose product it is
    tgt: np.ndarray         # ... and its target, in member order
    counts: KernelStats     # what the members' kernel calls would count


@dataclass
class BlockPlan:
    """Everything the numeric pass looks up (see the module docstring)."""

    sym: SymbolicLU
    part: SupernodePartition
    s_rows: list
    bounds: list        # 3·nsuper + 1 flat offsets: D_0, B_0, R_0, D_1, ...
    shapes: list        # the 3·nsuper block shapes, same order
    a_pos: np.ndarray
    targets: list
    selection: list
    l_pos: np.ndarray
    u_pos: np.ndarray
    u_colptr: np.ndarray
    u_rowind: np.ndarray
    runs: list          # [(k0, k1, Run | None)] tiling 0 … nsuper in order
    solve: SolvePlan | None = None

    def load(self, a: CSCMatrix):
        """``(flat, (diag, below, right))``: the block values holding
        ``a`` (zeros elsewhere), and every block as a 2-D view of them."""
        flat = np.zeros(self.bounds[-1], dtype=a.nzval.dtype)
        flat[self.a_pos] = a.nzval
        views = [flat[lo:hi].reshape(shape) for lo, hi, shape
                 in zip(self.bounds, self.bounds[1:], self.shapes)]
        return flat, (views[0::3], views[1::3], views[2::3])


def build_block_plan(a: CSCMatrix, sym: SymbolicLU, part: SupernodePartition,
                     s_rows=None) -> BlockPlan:
    """The plan for factoring matrices with ``a``'s pattern on ``sym`` /
    ``part``.  ``s_rows`` overrides the row sets (block-pivoting stores
    block-closed supersets of them, and substitutes block by block — its
    row swaps are in no pattern — so its plan carries no solve schedule)."""
    if not sym.symmetrized:
        raise ValueError("the block plan requires the symmetrized pattern")
    n, ns, xsup = part.n, part.nsuper, part.xsup
    supno = part.supno()
    scheduled = s_rows is None
    if scheduled:
        s_rows = supernode_row_sets(sym, part)
    cols = np.arange(n, dtype=np.int64)
    w = np.diff(xsup)
    m = np.array([s.size for s in s_rows], dtype=np.int64)
    sptr = np.concatenate(([0], np.cumsum(m)))
    # (supernode, row) of every S_K entry as one sorted key: the index of
    # a key, less sptr[K], is that row's position in S_K (the sentinel
    # keeps every lookup in range)
    ks, s_all = np.repeat(cols[:ns], m), np.concatenate([*s_rows, cols[:0]])
    keys = np.concatenate((ks * n + s_all, [ns * n]))
    bounds = np.concatenate(
        ([0], np.cumsum(np.column_stack((w * w, m * w, w * m)).ravel())))
    # flat position = base[K] + (row term)·stride + (column term), with
    # the local offsets folded into the bases
    # stored narrow where they fit: the index is most of a plan's bytes,
    # and every resident solver and cache entry holds a plan
    index = np.int32 if bounds[-1] < 2 ** 31 else np.int64
    d_base = bounds[0:-1:3] - xsup[:-1] * w - xsup[:-1]
    b_base = bounds[1::3] - sptr[:-1] * w - xsup[:-1]
    r_base = bounds[2::3] - sptr[:-1] - xsup[:-1] * m

    def position(i, j):
        """Flat position of entries (i, j) — broadcast together — and
        whether the block storage has that entry at all."""
        ki, kj = supno[i], supno[j]
        lower, upper = ki > kj, ki < kj
        # below: row i of the column's supernode; right: column j of the
        # row's.  (ki, kj stay as small as i, j when those broadcast.)
        key = np.where(lower, kj * n + i, ki * n + j)
        q = np.searchsorted(keys, key)
        pos = np.where(lower, (b_base[kj] + j) + q * w[kj],
                       np.where(upper, (r_base[ki] + i * m[ki]) + q,
                                (d_base[ki] + i * w[ki]) + j))
        return pos.astype(index), ~(lower | upper) | (keys[q] == key)

    def pattern_position(rows, colptr, what):
        pos, stored = position(rows, np.repeat(cols, np.diff(colptr)))
        if not stored.all():
            raise ValueError(f"{what} has entries outside the block pattern")
        return pos

    a_pos = pattern_position(a.rowind, a.colptr, "the matrix")
    l_pos = pattern_position(sym.l_rowind, sym.l_colptr, "L")
    # U is held by rows; its CSC form is what GESPFactors.u carries
    u_colptr, u_rowind = transpose_pattern(sym.u_rowptr, sym.u_colind, n)
    u_pos = pattern_position(u_rowind, u_colptr, "U")

    targets, selection = [], []
    for s in s_rows:
        pos, stored = position(s[:, None], s[None, :])
        keep = None if stored.all() else np.flatnonzero(stored).astype(index)
        selection.append(keep)
        targets.append(pos.ravel() if keep is None else pos.ravel()[keep])
    # one allocation, per-supernode views: small arrays kept alive among
    # the builder's freed temporaries would pin the heap they sit in
    tptr = np.concatenate(([0], np.cumsum([t.size for t in targets])))
    every = np.concatenate([*targets, a_pos[:0]])
    targets = np.split(every, tptr[1:-1])[:ns]
    blk = supno[s_all]
    pair = np.flatnonzero(np.diff(ks * ns + blk, prepend=-1))
    reach = ks[pair], blk[pair]     # K reaches into block I, K ascending

    shapes = [shape for wk, mk in zip(w.tolist(), m.tolist())
              for shape in ((wk, wk), (mk, wk), (wk, mk))]
    return BlockPlan(sym=sym, part=part, s_rows=s_rows,
                     bounds=bounds.tolist(), shapes=shapes, a_pos=a_pos,
                     targets=targets, selection=selection, l_pos=l_pos,
                     u_pos=u_pos, u_colptr=u_colptr, u_rowind=u_rowind,
                     runs=(_build_runs(w, m, bounds, reach, every, tptr, index)
                           if scheduled else [(0, ns, None)]),
                     solve=(build_solve_plan(xsup, supno, ks, s_all, m, sptr,
                                             bounds, reach)
                            if scheduled else None))


def _build_runs(w, m, bounds, reach, every, tptr, index):
    """Cut the elimination order into runs ``(k0, k1, run)``: a maximal
    stretch of consecutive one-column supernodes (every update entry
    stored) none of which reaches into another is batched — its arrays
    views of one allocation per field, ``tgt`` of ``every`` (all targets,
    K's from ``tptr[K]``) — and any other supernode is alone (``None``)."""
    plain = (w == 1) & (np.diff(tptr) == m * m)
    last = np.full(m.size, -1)
    last[reach[1]] = reach[0]           # the latest K that reaches into I
    first, k0 = [], 0
    for k, (ok, dep) in enumerate(zip(plain.tolist(), last.tolist())):
        if not ok or dep >= k0 or k == k0:      # k cannot join the run at k0
            first.append(k)
            k0 = k if ok else k + 1
    size = np.diff(np.array(first + [m.size]))
    batched = size > 1
    mem = np.flatnonzero(np.repeat(batched, size))      # batched members
    mk, t = m[mem], m[mem] ** 2
    aptr, mptr, eptr = (np.concatenate(([0], np.cumsum(c))).tolist()
                        for c in (size * batched, mk, t))
    e, width = _runs(0 * t, t), np.repeat(mk, t)
    dpos, bpos, bpiv, lpos, upos = (x.astype(index) for x in (
        bounds[3 * mem], _runs(bounds[3 * mem + 1], mk),
        np.repeat(bounds[3 * mem], mk),
        np.repeat(bounds[3 * mem + 1], t) + e // width,
        np.repeat(bounds[3 * mem + 2], t) + e % width))
    # KernelStats per member: lu (0 flops); 2 trsm (mk each), gemm (2·mk²)
    one, panel = np.ones_like(mk), mk > 0
    calls = np.column_stack((one, 0 * one, 2 * panel, 2 * mk, panel, 2 * t))
    runs = []
    for k0, n, a in zip(first, size.tolist(), aptr):
        run, b = None, a + n
        if n > 1:
            ma, mb, ea, eb = mptr[a], mptr[b], eptr[a], eptr[b]
            run = Run(dpos[a:b], bpos[ma:mb], bpiv[ma:mb], lpos[ea:eb],
                      upos[ea:eb], every[tptr[k0]:tptr[k0 + n]],
                      KernelStats(*calls[a:b].sum(0).tolist()))
        runs.append((k0, k0 + n, run))
    return runs
