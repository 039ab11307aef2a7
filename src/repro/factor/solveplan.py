"""The static schedule of the solve phase (paper §3, Figure 9).

With the pivots fixed, which entries of ``x`` a substitution step reads
is as much a function of the pattern as the factorization's scatter
targets.  A :class:`SolvePlan` is that function, evaluated once per
pattern beside the :class:`~repro.factor.blockplan.BlockPlan` whose block
storage it reads (docs/ALGORITHMS.md has the argument and the numbers):

- a supernode's *level* is one more than the highest level among the
  supernodes whose ``S_K`` reaches into it — its height in the
  supernodal elimination tree, leaves at 0.  A row of ``L`` depends only
  on lower levels and a row of ``U`` only on higher ones, so a sweep
  advances a whole level per step;
- the diagonal blocks are inverted at factor time (SuperLU_DIST's
  ``DiagInv``) in a few identity-padded stacks, one per width bucket, so
  the solve phase contains no triangular solve at all;
- four operands — ``L``'s below panels, the strictly-lower entries of
  every ``L_KK⁻¹``, ``U``'s right panels, the upper entries of every
  ``U_KK⁻¹`` — are laid out by (level, row) as (value position, source
  index) pairs: a level of an operand is one gather, one multiply and one
  ``add.reduceat``, and ``program`` lists those steps in execution order.

The column sweeps of :mod:`repro.solve.triangular` on the CSC factors are
the readable reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SolvePlan", "build_solve_plan", "LOWER", "LINV", "UPPER", "UINV"]

#: the four operands, in the order :meth:`SolvePlan.values` stores them
LOWER, LINV, UPPER, UINV = range(4)
#: blocks of width 1 | 2-4 | 5-12 | wider share a stack padded to its widest
_BUCKET_EDGES = (1, 4, 12)


def _runs(first, count):
    """``first[g], first[g] + 1, …`` (``count[g]`` of them) for every g."""
    end = np.cumsum(count)
    return (np.repeat(first - (end - count), count)
            + np.arange(end[-1] if end.size else 0))


def _layer(operand, base, nlev, lev, row, count, pos0, src0, table=None):
    """One operand by (level, row), from groups g of ``count[g]`` entries
    — values at ``pos0[g]`` onward, sources ``src0[g]`` onward (looked up
    in ``table`` when given) — all in row ``row[g]`` of level ``lev[g]``.
    Returns the value positions and per level the step ``(operand, rows,
    ptr, src, lo, hi)`` — the rows with entries (``reduceat`` returns an
    element, not 0, for an empty segment), each row's segment start, the
    entry of ``x`` every entry multiplies, the level's slice of the
    values (which start at ``base``) — or ``None``."""
    g = np.flatnonzero(count)
    g = g[np.lexsort((row[g], lev[g]))]
    cnt = count[g]
    start = np.cumsum(cnt) - cnt
    src = _runs(src0[g], cnt)
    if table is not None:
        src = table[src]
    # the groups of one row are adjacent: one reduceat segment per row
    head = np.flatnonzero(np.diff(row[g], prepend=-1))
    rows = row[g][head]
    rcut = np.searchsorted(lev[g][head], np.arange(nlev + 1))
    ecut = np.append(start[head], cnt.sum())[rcut]
    ptr = start[head] - np.repeat(ecut[:-1], np.diff(rcut))
    return _runs(pos0[g], cnt), [
        (operand, rows[a:b], ptr[a:b], src[lo:hi], base + lo, base + hi)
        if b > a else None for a, b, lo, hi in zip(*(c.tolist() for c in (
            rcut[:-1], rcut[1:], ecut[:-1], ecut[1:])))]


@dataclass
class SolvePlan:
    """Both sweeps' schedule (see the module docstring).  What is read
    once per factorization is stored ``int32``; what ``program`` indexes
    with on every level stays at the platform's index width — numpy
    widens a narrower index array on every use, which costs more than
    the arithmetic of a level of a few dozen entries."""

    n: int
    pos: np.ndarray     # every value's place in [-flat | L⁻¹ | U⁻¹ stacks]
    program: list       # (operand, rows, ptr, src, lo, hi) per step
    d_src: np.ndarray   # diagonal-block entries in the flat array ...
    d_dst: np.ndarray   # ... and in the stacks
    eye: np.ndarray     # the stacks' diagonals
    stacks: list        # per width bucket: (lo, hi, (blocks, width, width))

    def values(self, flat):
        """The operands' values for the factored block values ``flat``:
        off-diagonal entries negated (they are subtracted), the diagonal
        blocks' inverses by batched substitution against the identity
        (float64 floor, like the sweeps).  Plain numpy, no kernel op and
        no flop counted; a non-finite block gives a non-finite inverse
        and the first solve's berr says so."""
        size = self.stacks[-1][1] if self.stacks else 0
        wide = np.result_type(flat.dtype, np.float64)
        d = np.zeros(size, dtype=wide)
        inv = np.zeros((2, size), dtype=wide)          # L⁻¹ | U⁻¹ stacks
        d[self.eye] = inv[:, self.eye] = 1
        d[self.d_dst] = flat[self.d_src]
        with np.errstate(all="ignore"):
            for lo, hi, shape in self.stacks:
                blk = d[lo:hi].reshape(shape)
                z = inv[:, lo:hi].reshape(2, *shape)
                diag = np.arange(shape[1])
                piv = blk[:, diag, diag, None]
                # two unit-lower operands, one recurrence: L_KK, and Ũᵀ
                # where U_KK = diag(piv)·Ũ
                t = -np.stack((blk, (blk / piv).transpose(0, 2, 1)))
                for i in range(1, shape[1]):    # row i of both inverses
                    np.matmul(t[:, :, i:i + 1, :i], z[:, :, :i, :i],
                              out=z[:, :, i:i + 1, :i])
                z[1] = (z[1] / piv).transpose(0, 2, 1)   # U⁻¹ = Ũ⁻¹/piv
        return np.concatenate((np.negative(flat, dtype=wide),
                               inv.ravel()))[self.pos]

    def apply(self, values, b):
        """x with ``L U x = b`` for ``b`` of shape (n,) or (n, nrhs), in
        the wider of the values' and the right-hand side's dtypes.
        Column t of a block solve equals the solve of column t."""
        x = np.array(b, copy=True,
                     dtype=np.result_type(values, np.asarray(b)))
        if x.ndim not in (1, 2) or x.shape[0] != self.n:
            raise ValueError("right-hand side has wrong length")
        if x.ndim == 2:
            values = values[:, None]
        for operand, rows, ptr, src, lo, hi in self.program:
            s = np.add.reduceat(values[lo:hi] * x.take(src, axis=0), ptr,
                                axis=0)
            if operand == UINV:         # x_K = U_KK⁻¹ · (what is left)
                x[rows] = s
            else:
                x[rows] += s
        return x


def build_solve_plan(xsup, sn, ks, s_all, m, sptr, bounds, reach) -> SolvePlan:
    """The schedule for the partition ``xsup`` (``sn``: supernode of every
    row of ``x``) with the row sets' entries ``s_all`` (supernodes ``ks``,
    sizes ``m``, offsets ``sptr``) on the block storage laid out by
    ``bounds`` (3·nsuper + 1 offsets).  Array-shaped but for one integer
    pass over ``reach``, the (supernode, block row) pairs, ascending."""
    ns, n = xsup.size - 1, int(xsup[-1])
    w = np.diff(xsup)
    blk = sn[s_all]
    level = [0] * ns
    for k, i in zip(reach[0].tolist(), reach[1].tolist()):
        if level[i] <= level[k]:             # k ascending: level[k] final
            level[i] = level[k] + 1
    level = np.array(level, dtype=np.int64)
    nlev = int(level.max()) + 1 if ns else 0

    # the stacks: supernode K's block sits at sbase[K], padded to pad[K]
    bucket = np.searchsorted(_BUCKET_EDGES, w)
    sbase, pad = np.zeros(ns, np.int64), np.ones(ns, np.int64)
    stacks, size = [], 0
    for b in range(len(_BUCKET_EDGES) + 1):
        members = np.flatnonzero(bucket == b)
        if members.size:
            wb = pad[members] = int(w[members].max())
            sbase[members] = size + np.arange(members.size) * wb * wb
            stacks.append((size, size + members.size * wb * wb,
                           (members.size, wb, wb)))
            size = stacks[-1][1]
    eye = np.repeat(sbase, pad) + _runs(0 * pad, pad) * np.repeat(pad + 1, pad)

    # per row r of x: local index i, level, and where its stack row starts
    # (the stacks follow the flat array in what values() gathers from)
    r = np.arange(n)
    i, lev = r - xsup[sn], level[sn]
    row0 = sbase[sn] + i * pad[sn]
    q = np.arange(s_all.size) - sptr[ks]     # position of an entry in S_K
    pos, steps = [], []                      # LOWER, LINV, UPPER, UINV
    for operand, groups in enumerate((
            (level[blk], s_all, w[ks], bounds[1::3][ks] + q * w[ks],
             xsup[ks]),
            (lev, r, i, bounds[-1] + row0, xsup[sn]),
            (lev, r, m[sn], bounds[2::3][sn] + i * m[sn], sptr[sn], s_all),
            (lev, r, w[sn] - i, bounds[-1] + size + row0 + i, r))):
        layer = _layer(operand, sum(p.size for p in pos), nlev, *groups)
        pos.append(layer[0])
        steps.append(layer[1])
    # forward sweep leaves first, back sweep root first; within a level
    # the panel rows come off before the diagonal block is applied
    program = [s for pair in (*zip(steps[LOWER], steps[LINV]),
                              *zip(steps[UPPER][::-1], steps[UINV][::-1]))
               for s in pair if s]
    index = np.int32 if bounds[-1] + 2 * size < 2 ** 31 else np.int64
    return SolvePlan(
        n=n, pos=np.concatenate(pos).astype(index), program=program,
        d_src=_runs(bounds[0:-1:3][sn] + i * w[sn], w[sn]).astype(index),
        d_dst=_runs(row0, w[sn]).astype(index),
        eye=eye.astype(index), stacks=stacks)
