"""The static schedule of the supernodal factorization (paper §3).

With the pivots fixed on the diagonal, *where* every number of the
blocked right-looking elimination goes is a function of the sparsity
pattern alone.  A :class:`BlockPlan` is that function, evaluated once:

- the supernode partition and the row sets ``S_K``;
- one flat value array laid out ``[D_K | B_K | R_K]`` supernode after
  supernode — the diagonal block (w×w), the below panel L(S_K, K)
  (|S_K|×w) and the right panel U(K, S_K) (w×|S_K|), each a C-ordered
  view of a store the plan refills (:meth:`BlockPlan.checkout`);
- ``a_pos`` — where each nonzero of the analysed matrix lands in it;
- per supernode, the flat positions its |S_K|×|S_K| rank-w update is
  subtracted from (``targets``), and which entries of the update take
  part when relaxed supernodes left some without a home
  (``selection``);
- ``l_pos`` / ``u_pos`` — where the static CSC patterns of L and U read
  their values back;
- ``solve`` — the level-set schedule both triangular sweeps run from
  (:mod:`repro.factor.solveplan`);
- ``runs`` — the elimination as steps ``(members, run)`` in level order:
  independent width-1 supernodes are eliminated together from one
  :class:`Run` of index arrays, any other supernode alone (``None``).

The numeric pass is then the plan's step list (:attr:`BlockPlan.steps`,
built by :func:`repro.kernels.build_steps` as the distributed sweep's
is, resolved once per store by :func:`repro.kernels.bind_steps`): Figure
8's ``lu → trsm → trsm → gemm → one indexed subtract`` per supernode
taken alone, or one divide, one product and one subtract per batch.  The
index, ``Σ|S_K|²`` integers (thrice for a batched member), is ``int32``
while the flat array is shorter than 2³¹ (docs/REFACTORIZATION.md).
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.factor.gesp import transpose_pattern
from repro.factor.solveplan import SolvePlan, _runs, build_solve_plan
from repro.kernels import KernelCounts, Step, bind_steps, build_steps
from repro.sparse.csc import CSCMatrix
from repro.symbolic.fill import SymbolicLU
from repro.symbolic.supernode import SupernodePartition

__all__ = ["BlockPlan", "Blocks", "Run", "build_block_plan",
           "supernode_row_sets"]


def supernode_row_sets(sym: SymbolicLU, part: SupernodePartition):
    """``S_K`` for every supernode: the sorted global rows strictly below
    the supernode that appear in any of its columns' L patterns.  With
    the symmetrized pattern this equals the right-of-diagonal column set
    of the supernode's U block row."""
    n, ns = part.n, part.nsuper
    k = np.repeat(part.supno(), np.diff(sym.l_colptr))
    below = sym.l_rowind >= part.xsup[k + 1]
    keys = np.sort(k[below] * n + sym.l_rowind[below])
    keys = keys[np.diff(keys, prepend=-1) != 0]     # 5× np.unique's speed
    cuts = np.concatenate(([0], np.cumsum(np.bincount(keys // n,
                                                      minlength=ns)))).tolist()
    rows = keys % n
    return [rows[lo:hi] for lo, hi in zip(cuts, cuts[1:ns + 1])]


class Run(NamedTuple):
    """One batched step of width-1 supernodes, as flat positions."""
    dpos: np.ndarray        # the members' pivots
    bpos: np.ndarray        # their below-panel entries L(S_K, K) ...
    bpiv: np.ndarray        # ... and the pivot each is divided by
    lpos: np.ndarray        # per update entry (i, j) of a member K: L(i, K)
    upos: np.ndarray        # ... and U(K, j), whose product it is
    tgt: np.ndarray         # ... and its target, in member order
    counts: KernelCounts    # what the members' kernel calls would count


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
    runs: list          # [(members, Run | None)], each supernode once
    solve: SolvePlan | None = None
    pattern: tuple = ()     # the analysed matrix's colptr / rowind

    @cached_property
    def steps(self):
        """The elimination as :func:`repro.kernels.run_steps` runs it on
        the block values (one store): a batched step of ``runs`` as it
        stands, each supernode a step takes alone as its :class:`Step`,
        whose targets are ``intp`` (numpy widens ``int32`` ones to read
        and again to write).  Built when first asked for; a copy made by
        ``dataclasses.replace`` builds its own."""
        return self._steps(self.runs)

    @cached_property
    def steps_alone(self):
        """:attr:`steps` with every supernode taken alone, for complex
        values: BLAS rounds a complex product differently from a batched
        step's elementwise multiply."""
        return self._steps([(range(self.part.nsuper), None)])

    def __getstate__(self):     # step lists and stores are built where needed
        return {k: v for k, v in vars(self).items()
                if k not in ("steps", "steps_alone", "_free")}

    def _steps(self, runs):
        steps = []
        for members, run in runs:
            if run is not None:
                steps.append((members, run))
            for k in members if run is None else ():
                (w, _), (m, _) = self.shapes[3 * k:3 * k + 2]
                d, b, r = self.bounds[3 * k:3 * k + 3]
                tgt, panels, updates = self.targets[k], (), ()
                if tgt.size:    # solve B_K and R_K, subtract their product
                    panels = (("trsm_upper", 0, b, m, w, 1),
                              ("trsm_lower_unit", 0, r, w, m, 1))
                    updates = ((0, tgt.astype(np.intp), self.selection[k],
                                0, 1, 1),)
                steps.append(Step(k, w, 0, d, panels, updates))
        return build_steps(steps, 1)

    def blocks(self, flat):
        """``(diag, below, right)``: every block as a 2-D view of ``flat``."""
        return tuple(Blocks(self, flat, kind) for kind in range(3))

    @contextmanager
    def checkout(self, a: CSCMatrix):
        """The step list resolved once against a store of the plan's, holding
        ``a`` (zeros elsewhere) until the block exits, raise or not; stores
        sit on a free list per dtype (pop, append): one per thread at once."""
        free = vars(self).setdefault("_free", {}).setdefault(a.nzval.dtype, [])
        try:
            steps = free.pop()
        except IndexError:
            steps = bind_steps(self.steps_alone if a.nzval.dtype.kind == "c"
                               else self.steps,
                               [np.empty(self.bounds[-1], a.nzval.dtype)])
        try:
            steps.stores[0].fill(0)
            steps.stores[0][self.a_pos] = a.nzval
            yield steps
        finally:
            free.append(steps)


class Blocks:
    """Blocks ``kind`` (0: D_K, 1: B_K, 2: R_K) of every supernode, each a
    2-D view of the block values ``flat`` made when asked for."""

    def __init__(self, plan: BlockPlan, flat, kind: int):
        self.flat, self.shapes = flat, plan.shapes[kind::3]
        self.lo, self.hi = plan.bounds[kind:-1:3], plan.bounds[kind + 1::3]

    def __len__(self):
        return len(self.shapes)

    def __getitem__(self, k):
        return self.flat[self.lo[k]:self.hi[k]].reshape(self.shapes[k])


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

    def position(rows, colptr, what):
        """Flat position of every entry (i, j) of a CSC pattern."""
        i, j = rows, np.repeat(cols, np.diff(colptr))
        ki, kj = supno[i], supno[j]
        lower, upper = ki > kj, ki < kj
        # below: row i of the column's supernode; right: column j of the
        # row's
        key = np.where(lower, kj * n + i, ki * n + j)
        q = np.searchsorted(keys, key)
        if not (keys[q] == key)[lower | upper].all():
            raise ValueError(f"{what} has entries outside the block pattern")
        return np.where(lower, (b_base[kj] + j) + q * w[kj],
                        np.where(upper, (r_base[ki] + i * m[ki]) + q,
                                 (d_base[ki] + i * w[ki]) + j)).astype(index)

    a_pos = position(a.rowind, a.colptr, "the matrix")
    l_pos = position(sym.l_rowind, sym.l_colptr, "L")
    # U is held by rows; its CSC form is what GESPFactors.u carries
    u_colptr, u_rowind = transpose_pattern(sym.u_rowptr, sym.u_colind, n)
    u_pos = position(u_rowind, u_colptr, "U")

    blk = supno[s_all]
    pair = np.flatnonzero(np.diff(ks * ns + blk, prepend=-1))
    reach = ks[pair], blk[pair]     # K reaches into block I, K ascending
    every, tptr, selection = _update_targets(
        n, xsup, w, m, sptr, bounds, keys, s_all, pair, reach, index)
    runs, every, start = (
        _build_runs(xsup, m, sptr, bounds, s_all, every, tptr, index)
        if scheduled else ([(range(ns), None)], every, tptr[:-1]))
    # per-supernode views of one allocation: small arrays kept alive among
    # the builder's freed temporaries would pin the heap they sit in
    targets = [every[lo:hi] for lo, hi in zip(start.tolist(), (
        start + np.diff(tptr)).tolist())]

    shapes = [shape for wk, mk in zip(w.tolist(), m.tolist())
              for shape in ((wk, wk), (mk, wk), (wk, mk))]
    return BlockPlan(sym=sym, part=part, s_rows=s_rows,
                     bounds=bounds.tolist(), shapes=shapes, a_pos=a_pos,
                     targets=targets, selection=selection, l_pos=l_pos,
                     u_pos=u_pos, u_colptr=u_colptr, u_rowind=u_rowind,
                     runs=runs, pattern=(a.colptr, a.rowind),
                     solve=(build_solve_plan(xsup, supno, ks, s_all, m, sptr,
                                             bounds, reach)
                            if scheduled else None))


#: the update targets are built about this many grid entries at a time
_CHUNK = 1 << 15


def _update_targets(n, xsup, w, m, sptr, bounds, keys, s_all, pair, reach,
                    index):
    """``(every, tptr, selection)``: every supernode's update targets (K's
    from ``tptr[K]``) and which grid entries they keep, in array passes
    over chunks of about ``_CHUNK`` grid entries.

    S_K falls into blocks, one per supernode it reaches into: block p
    (``reach`` holds its K and I) runs from ``pair[p]`` to the next, and
    its *tail* is the rest of S_K.  Row i of block I and column j of S_K
    update D_I at (i, j) when j is in block I too, the below panel
    L(S_J, J) at (i's place in S_J, j) when j is in an earlier block J,
    and the right panel U(I, S_I) at (i, j's place in S_I) when j is in
    the tail.  So one search of each tail entry against S_I serves both
    panels, and a grid row is a few segments of one base each plus one
    gather from ``[S_K | places of the tail]``."""
    pk, pi = reach
    ns = m.size
    end = np.append(pair[1:], s_all.size)
    tail = sptr[pk + 1] - end
    first = np.searchsorted(pk, np.arange(ns + 1))      # K's first block
    block = np.repeat(np.arange(pair.size), end - pair)
    gptr = np.concatenate(([0], np.cumsum(m * m)))
    every, ok = np.empty(gptr[-1], index), None
    cuts = np.flatnonzero(np.diff(gptr[:-1] // _CHUNK, prepend=-1)).tolist()
    for k0, k1 in zip(cuts, cuts[1:] + [ns]):
        a0, a1, p0, p1 = sptr[k0], sptr[k1], first[k0], first[k1]
        if a0 == a1:
            continue
        tl = tail[p0:p1]
        toff = np.cumsum(tl) - tl
        key = np.repeat(pi[p0:p1] * n, tl) + s_all[_runs(end[p0:p1], tl)]
        q = np.searchsorted(keys, key)
        found = keys[q] == key
        q -= np.repeat(sptr[pi[p0:p1]], tl)
        # each row: its block b (in supernode I), K's earlier blocks e
        b = block[a0:a1]
        k, i, rows = pk[b], pi[b], s_all[a0:a1]
        nlow = b - first[k]
        e = _runs(first[k], nlow)
        j, at = pi[e], toff[e - p0] - end[e] + np.repeat(np.arange(a0, a1),
                                                          nlow)
        # segments row by row: below panels, then D_I, then U(I, S_I)
        sd = np.cumsum(nlow + 2) - 2
        sl = _runs(sd - nlow, nlow)
        base, size = np.empty((2, sd[-1] + 2), np.int64)
        base[sl] = bounds[3 * j + 1] - xsup[j] + q[at] * w[j]
        base[sd] = bounds[3 * i] + (rows - xsup[i]) * w[i] - xsup[i]
        base[sd + 1] = bounds[3 * i + 2] + (rows - xsup[i]) * m[i]
        size[sl], size[sd] = end[e] - pair[e], end[b] - pair[b]
        size[sd + 1] = tail[b]
        # columns row by row: S_K up to the row's block end, then the tail
        col = _runs(np.ravel((sptr[k] - a0, a1 - a0 + toff[b - p0]), "F"),
                    np.ravel((end[b] - sptr[k], tail[b]), "F"))
        every[gptr[k0]:gptr[k1]] = (np.repeat(base, size)
                                    + np.concatenate((rows, q))[col])
        if not found.all():     # some update entries have no home
            ok = np.ones(gptr[-1], bool) if ok is None else ok
            seg = np.ones(base.size, bool)
            seg[sl] = found[at]
            ok[gptr[k0]:gptr[k1]] = np.repeat(seg, size) & np.concatenate(
                (np.ones(a1 - a0, bool), found))[col]
    if ok is None:
        return every, gptr, [None] * ns
    kept = np.flatnonzero(ok)
    k = np.searchsorted(gptr, kept, side="right") - 1
    count = np.bincount(k, minlength=ns)
    local = np.split((kept - gptr[k]).astype(index), np.cumsum(count)[:-1])
    selection = [None if c == full else sel for c, full, sel
                 in zip(count.tolist(), np.diff(gptr).tolist(), local)]
    return every[kept], np.concatenate(([0], np.cumsum(count))), selection


def _build_runs(xsup, m, sptr, bounds, s_all, every, tptr, index):
    """``(runs, every, start)``: the elimination as steps, and ``every``
    (all targets, K's from ``tptr[K]``) laid out with a batched step's as
    one slice, K's from ``start[K]``.  A plain supernode — one column,
    every update entry stored — joins the earliest batched step after the
    steps of all supernodes reaching into it and not before that of any
    earlier one whose ``S_K`` shares a row with its own; any other
    supernode opens a step, and a step of one is taken alone (``None``)."""
    cnt = np.diff(tptr)
    plain = (np.diff(xsup) == 1) & (cnt == m * m)
    rows, sp = s_all.tolist(), sptr.tolist()
    # a row's holders take ascending steps: held[i] is its last one's
    held, step, opened, nsteps = [-1] * int(xsup[-1]), [], [], 0
    for ok, col, a, b in zip(plain.tolist(), xsup.tolist(), sp, sp[1:]):
        s, s_k = nsteps, rows[a:b]
        if ok:
            i = bisect_left(opened, max([held[col] + 1]
                                        + [held[r] for r in s_k]))
            if i == len(opened):
                opened.append(s)
            s = opened[i]
        nsteps += s == nsteps
        step.append(s)
        for r in s_k:
            held[r] = s
    order = np.argsort(step, kind="stable")
    size = np.bincount(step, minlength=nsteps)
    heads = np.cumsum(size) - size
    mem = order[np.repeat(size > 1, size)]      # batched, in step order
    # the targets up to the last batched member, in step order, in place
    pre = order[order <= mem.max(initial=-1)]
    c, start, t = cnt[pre], tptr[:-1].copy(), tptr.tolist()
    start[pre] = np.cumsum(c) - c
    every[:c.sum()] = np.concatenate([every[t[k]:t[k + 1]] for k in
                                      pre.tolist()] + [every[:0]])
    mk = m[mem]
    rep = np.repeat(mk, mk)     # per below-panel entry L(i, K): |S_K|
    dpos, bpos, bpiv, upos = (x.astype(index) for x in (
        bounds[3 * mem], _runs(bounds[3 * mem + 1], mk),
        np.repeat(bounds[3 * mem], mk),
        _runs(np.repeat(bounds[3 * mem + 2], mk), rep)))
    lpos = np.repeat(bpos, rep)
    mptr, eptr, pptr = (np.concatenate(([0], np.cumsum(x))).tolist()
                        for x in (mk, mk * mk, mk > 0))
    runs, order, at, a = [], order.tolist(), start.tolist(), 0
    for h, g in zip(heads.tolist(), size.tolist()):
        run = None
        if g > 1:
            b = a + g
            ma, mb, ea, eb = mptr[a], mptr[b], eptr[a], eptr[b]
            p = pptr[b] - pptr[a]       # members with a panel: trsm, gemm
            run = Run(dpos[a:b], bpos[ma:mb], bpiv[ma:mb], lpos[ea:eb],
                      upos[ea:eb], every[at[order[h]]:][:eb - ea],
                      KernelCounts(g, 0, 2 * p, 2 * (mb - ma), p,
                                   2 * (eb - ea)))
            a = b
        runs.append((order[h:h + g], run))
    return runs, every, start
