"""Supernodal 2-D block-cyclic distribution (paper Figure 7).

The supernode partition defines the blocks in both dimensions; block
(I, J) is owned by process ``(I mod nprow, J mod npcol)``.  Per process,
the storage mirrors the paper's:

- for each owned block (I, K) of L below the diagonal: the *nonzero row
  subset* of block I (shared by all columns of supernode K) and a dense
  ``len(rows) × width`` value array — the index[]/nzval[] pair;
- for each owned block (K, J) of U right of the diagonal: the nonzero
  column subset and a ``width × len(cols)`` value array;
- a rank's blocks of one supernode K form two *panels* (SuperLU_DIST's
  ``Lnzval_bc_ptr``): L(·, K) stacked in one ``Σ rows × width`` array,
  U(K, ·) side by side in one ``width × Σ cols`` array, each block a slice;
- diagonal blocks (K, K): the full ``width × width`` square, both
  triangles stored ("we store zeros from U in the upper triangle of the
  diagonal block").

Static pivoting fixes all of that before a number moves (§3.1), so the
layout is evaluated once, as the serial
:class:`~repro.factor.blockplan.BlockPlan` is: a rank's value arrays are
views at fixed offsets into its one float64 *store*,
:meth:`DistributedBlocks.slots` maps entries (i, j) to (rank, offset),
and a refactorization (:func:`refill_values`) is one gather per rank.

The symbolic information (partition, row sets, block index lists) is
replicated on every rank, exactly as the paper runs its symbolic phase:
"we start with a copy of the entire matrix on each processor, and run
steps (1) and (2) independently on each processor".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple

import numpy as np

from repro.dmem.grid import ProcessGrid
from repro.factor.supernodal import supernode_row_sets
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import PatternMismatchError, pattern_fingerprint
from repro.symbolic.fill import SymbolicLU
from repro.symbolic.supernode import SupernodePartition

__all__ = ["DistributedBlocks", "Offsets", "block_layout",
           "distribute_matrix", "refill_values"]


class Offsets(NamedTuple):
    """Where every block starts in its owner's store.  A *group* is the
    rows of ``S_K`` in one block I: the index set of L(I, K) and U(K, I)."""
    diag: np.ndarray        # per supernode K: the offset of D_K
    col: np.ndarray         # per group: its supernode K ...
    row: np.ndarray         # ... the block I its rows fall in ...
    size: np.ndarray        # ... how many rows ...
    lower: np.ndarray       # ... the offset of L(I, K) ...
    upper: np.ndarray       # ... and of U(K, I)'s first entry ...
    top: np.ndarray         # ... L(I, K)'s first row in its rank's panel ...
    left: np.ndarray        # ... U(K, I)'s first column in its panel ...
    tall: np.ndarray        # ... the rows of that L(·, K) panel ...
    wide: np.ndarray        # ... and the columns of that U(K, ·) panel


@dataclass
class DistributedBlocks:
    """All ranks' local block storage plus the replicated symbolic data.

    The simulator runs every rank in one process, so "per-rank storage"
    is a list indexed by rank; each rank program only ever touches its
    own slot plus read-only shared metadata, preserving SPMD semantics.

    Attributes
    ----------
    grid, part:
        Process grid and supernode partition.
    s_rows:
        ``s_rows[K]`` — sorted global rows below supernode K (== global
        columns right of K, the pattern being symmetrized).
    l_rows_by_block:
        ``l_rows_by_block[K]`` — dict mapping block-row index I to the
        sorted global rows of block (I, K) (a grouping of ``s_rows[K]``),
        and, the pattern being symmetrized, the columns of block (K, I).
    offsets, lookup, stores:
        The offset table, its per-entry form :meth:`slots` searches, and
        ``stores[rank]``, every block ``rank`` owns.
    src, pos, fingerprint:
        Per rank, which nonzeros of the matrix laid out it holds and their
        store offsets; that matrix's pattern fingerprint.
    diag, lpanel, upanel, lblk, ublk:
        Per-rank dicts of store views: ``diag[rank][K]``, the panels
        ``lpanel[rank][K]`` and ``upanel[rank][K]``, and their slices
        ``lblk[rank][(I, K)]`` and ``ublk[rank][(K, J)]``.
    widths, owners, solve_start, row_panels:
        ``widths[K]``, supernode K's width (a list).  For
        :mod:`repro.pdgstrs`: ``owners[name] = (by_row, by_col)``, the
        ranks (sorted tuples) owning an ``"lblk"`` / ``"ublk"`` block in
        each block row / column; ``solve_start[name][rank] = (by J the
        (K, flops per right-hand side, width) of its (K, J) blocks, its
        blocks per row K, partial sums due per diagonal K, messages to
        receive)``; ``row_panels[name][rank] = ((buffer, src, dst) or
        None, {K: (panel, cols, calls, dflops)})``, its (K, ·) blocks
        side by side: ``lsum(K) = panel @ x[cols]``, which counts
        ``calls`` more products and ``dflops`` (the padding, ≤ 0) more
        flops per right-hand side than one, so ``kernel.*`` count blocks.
    recordings:
        The simulator executor's recorded runs on this layout (never
        pickled).
    """

    grid: ProcessGrid
    part: SupernodePartition
    supno: np.ndarray
    s_rows: list
    l_rows_by_block: list
    offsets: Offsets
    lookup: tuple
    stores: list
    src: list
    pos: list
    fingerprint: str
    n_tiny_pivots: int = 0
    tiny_pivot_threshold: float = 0.0

    _DERIVED = ("widths", "diag", "lpanel", "upanel", "lblk", "ublk",
                "owners", "solve_start", "row_panels", "recordings")

    def __post_init__(self):
        self._bind()

    def _bind(self):
        """Derive the block views and solve maps from stores and offsets
        (also after unpickling: pickle ships no copy per view)."""
        p, xsup, off = self.grid.size, self.part.xsup, self.offsets
        w = self.widths = np.diff(xsup).tolist()
        self.recordings = {}
        self.diag, self.lpanel, self.upanel, self.lblk, self.ublk = (
            [{} for _ in range(p)] for _ in range(5))

        def view(rank, lo, shape):
            return self.stores[rank][lo:lo + shape[0] * shape[1]].reshape(shape)

        k = np.arange(len(w))
        diag_owner = self.grid.owner(k, k)
        owner = {"lblk": self.grid.owner(off.row, off.col),   # L(I, K)'s
                 "ublk": self.grid.owner(off.col, off.row)}   # U(K, I)'s
        for k, lo, r in zip(k.tolist(), off.diag.tolist(),
                            diag_owner.tolist()):
            self.diag[r][k] = view(r, lo, (w[k], w[k]))
        for k, i, m, lo, uo, top, left, tall, wide, rl, ru in zip(
                *(a.tolist() for a in off[1:]), owner["lblk"].tolist(),
                owner["ublk"].tolist()):
            if not top:
                self.lpanel[rl][k] = view(rl, lo, (tall, w[k]))
            self.lblk[rl][(i, k)] = self.lpanel[rl][k][top:top + m]
            if not left:
                self.upanel[ru][k] = view(ru, uo, (w[k], wide))
            self.ublk[ru][(k, i)] = self.upanel[ru][k][:, left:left + m]
        self.owners, self.solve_start, self.row_panels = {}, {}, {}
        for name in ("lblk", "ublk"):
            self._solve_maps(name, owner[name], diag_owner)

    def _solve_maps(self, name, owner, diag_owner):
        """The solve maps of the ``name`` blocks (``owner``: each group's
        block's rank), in array passes over the offset table.  A row
        panel of U is its ``upanel`` (``refill`` None); L(K, J) blocks sit
        in different column panels, so a rank's are laid out ``w_K`` rows
        by their x(J) columns (the rest zero) in a buffer a solve refills
        by one indexed copy, ``buffer[dst] = store[src]``."""
        lower, xsup, off, p = name == "lblk", self.part.xsup, self.offsets, \
            self.grid.size
        w = np.diff(xsup)
        # a group's block as the solve sees it, (K, J): (I, K') for
        # L(I, K'), (K', I) for U(K', I); its rows are S_K''s run
        # ``s_all[at:at + size]``, and it reads x(J) (L) or those rows (U)
        kk, jj = (off.row, off.col) if lower else (off.col, off.row)
        s_all = np.concatenate([*self.s_rows, xsup[:0]])
        at, width = np.cumsum(off.size) - off.size, w[off.col]
        count, flops = width if lower else off.size, 2 * off.size * width
        order = np.lexsort((jj, kk, owner))             # by rank, K, J
        cuts = np.searchsorted(owner[order], np.arange(p + 1)).tolist()
        has = np.zeros((2, len(w), p), dtype=bool)      # owners per row / col
        has[0, kk, owner] = has[1, jj, owner] = True
        contrib, by_col = ([tuple(compress(range(p), row)) for row in side]
                           for side in has.tolist())
        self.owners[name] = (contrib, by_col)
        self.solve_start[name], self.row_panels[name] = [], []
        diag_owner = diag_owner.tolist()
        for r in range(p):
            g = order[cuts[r]:cuts[r + 1]]
            new = np.diff(kk[g], prepend=-1) > 0        # a block row K starts
            head, row = np.flatnonzero(new), np.cumsum(new) - 1  # K's index
            ks, c = kk[g][head], count[g]
            my_blocks, mod = {}, dict(zip(ks.tolist(), np.diff(
                head, append=g.size).tolist()))
            for k, j, f, wd in zip(kk[g].tolist(), jj[g].tolist(),
                                   flops[g].tolist(), width[g].tolist()):
                # Figure 9's events: a block's (K, flops, width)
                my_blocks.setdefault(j, []).append((k, f, wd))
            recv = {k: len(contrib[k]) for k in self.diag[r]}
            self.solve_start[name].append([my_blocks, mod, recv, sum(
                diag_owner[j] != r for j in my_blocks) + sum(
                n - (r in contrib[k]) for k, n in recv.items())])
            # the x row K's panel reads: its blocks' runs side by side
            wide = np.add.reduceat(c, head).astype(np.intp)
            read = (_ranges(xsup[jj[g]], c) if lower
                    else s_all[_ranges(at[g], c)])
            ends = np.cumsum(wide).tolist()
            cols = [read[lo:hi] for lo, hi in zip([0] + ends, ends)]
            area = w[ks] * wide
            base = np.cumsum(area) - area
            refill, buf = None, np.zeros(area.sum() if lower else 0)
            if lower:   # L(K, J)'s entry e, row-major from its offset, is
                # panel entry (its row - xsup[K], x(J)'s column + e % w_J)
                size, left = off.size[g] * c, np.cumsum(c) - c
                first = base[row] + left - left[head][row] \
                    - wide[row] * xsup[ks][row]
                e = _ranges(np.zeros_like(size), size)
                b = np.repeat(np.arange(g.size), size)
                dst = first[b] + e % c[b] \
                    + wide[row][b] * s_all[at[g][b] + e // c[b]]
                by_dst = np.argsort(dst)
                refill = (buf, (off.lower[g][b] + e)[by_dst], dst[by_dst])
            dflops = np.add.reduceat(flops[g], head) - 2 * area
            self.row_panels[name].append((refill, {k: (
                buf[lo:lo + a].reshape(w[k], -1) if lower
                else self.upanel[r][k], x, mod[k] - 1, d) for k, x, lo, a, d
                in zip(mod, cols, base.tolist(), area.tolist(),
                       dflops.tolist())}))

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items()
                if k not in self._DERIVED}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._bind()

    @property
    def nsuper(self):
        return self.part.nsuper

    @property
    def n(self):
        return self.part.n

    # ------------------------------------------------------------------ #

    def slots(self, i, j):
        """``(rank, offset, stored)`` of entries ``(i, j)`` (broadcast
        arrays): whose store holds each, where, and whether the layout
        has it at all — the twin of ``build_block_plan``'s position map."""
        keys, at_lower, at_upper, wide, at_diag, w = self.lookup
        ki, kj = self.supno[i], self.supno[j]
        lower, upper = ki > kj, ki < kj
        # below: row i of the column's S_K; right: column j of the row's
        key = np.where(lower, kj * self.n + i, ki * self.n + j)
        q = np.searchsorted(keys, key)
        pos = np.where(lower, at_lower[q] + j,
                       np.where(upper, at_upper[q] + i * wide[q],
                                at_diag[ki] + i * w[ki] + j))
        stored = ~(lower | upper) | (keys[q] == key)
        return self.grid.owner(ki, kj), pos, stored

    def local_bytes(self, rank):
        """Bytes of numeric storage on one rank (for memory accounting)."""
        return self.stores[rank].nbytes

    def gather_to_supernodal(self):
        """Reassemble a :class:`~repro.factor.supernodal.SupernodalFactors`
        from the distributed blocks (test/verification path)."""
        from repro.factor.supernodal import SupernodalFactors

        diag, below, right = [], [], []
        for k, groups in enumerate(self.l_rows_by_block):
            w = self.widths[k]
            diag.append(self.diag[self.grid.owner(k, k)][k].copy())
            below.append(np.concatenate([np.zeros((0, w))] + [
                self.lblk[self.grid.owner(i, k)][(i, k)] for i in groups]))
            right.append(np.concatenate([np.zeros((w, 0))] + [
                self.ublk[self.grid.owner(k, i)][(k, i)] for i in groups],
                axis=1))
        return SupernodalFactors(
            part=self.part, s_rows=self.s_rows, diag=diag, below=below,
            right=right, n_tiny_pivots=self.n_tiny_pivots,
            tiny_pivot_threshold=self.tiny_pivot_threshold, flops=0)


def block_layout(a: CSCMatrix, sym: SymbolicLU, part: SupernodePartition,
                 grid: ProcessGrid) -> DistributedBlocks:
    """The 2-D block-cyclic layout of ``a``'s pattern, every value zero
    (``a``'s values are not read).  Storage covers the *static* fill
    pattern, so the factorization never reallocates (paper §3.1)."""
    if not sym.symmetrized:
        raise ValueError("the distributed layout requires the symmetrized pattern")
    if part.n != a.ncols:
        raise ValueError("partition does not match the matrix")
    fingerprint = _check_pattern(a, sym.pattern_fingerprint,
                                 where="distribute_matrix")
    if np.iscomplexobj(a.nzval):
        raise TypeError("the distributed path is real-only (float64); complex "
                        "systems are supported by the serial GESPSolver")
    ns, xsup, supno, w = part.nsuper, part.xsup, part.supno(), part.sizes()
    s_rows = supernode_row_sets(sym, part)
    ks = np.repeat(np.arange(ns), [s.size for s in s_rows])
    s_all = np.concatenate([*s_rows, xsup[:0]])
    # groups: where (supernode, block of the row) changes along S_0, S_1 …
    cut = np.flatnonzero(np.diff(ks * ns + supno[s_all], prepend=-1))
    col, row = ks[cut], supno[s_all[cut]]
    size = np.diff(np.append(cut, s_all.size))
    l_rows_by_block = [{} for _ in range(ns)]
    for k, i, rows in zip(col.tolist(), row.tolist(), np.split(s_all, cut[1:])):
        l_rows_by_block[k][i] = rows
    # every block in the order K: D_K, L(·, K), U(K, ·); each rank's
    # store holds its blocks in that order, back to back, so its L(·, K)
    # blocks are one C-ordered panel and its U(K, ·) blocks fill one too
    k, g = np.arange(ns), np.arange(col.size)
    owner = np.concatenate((grid.owner(k, k), grid.owner(row, col),
                            grid.owner(col, row)))
    nvals = np.concatenate((w * w, size * w[col], size * w[col]))
    by_rank = np.lexsort((np.concatenate((k, g, g)),
                          np.repeat([0, 1, 2], [ns, g.size, g.size]),
                          np.concatenate((k, col, col)), owner))
    totals = np.bincount(owner, weights=nvals, minlength=grid.size).astype(np.int64)
    offset = np.empty_like(nvals)
    offset[by_rank] = np.cumsum(nvals[by_rank]) - nvals[by_rank] \
        - (np.cumsum(totals) - totals)[owner[by_rank]]
    tall, top = _panels(owner[ns:ns + g.size] * ns + col, size)
    wide, left = _panels(owner[ns + g.size:] * ns + col, size)
    # U(K, I) starts ``left`` columns into its panel, not ``left`` blocks
    offsets = Offsets(offset[:ns], col, row, size, offset[ns:ns + g.size],
                      offset[ns + g.size:] - (w[col] - 1) * left, top, left,
                      tall, wide)
    # slots' lookup: (supernode, row) of every S_K entry as one sorted key,
    # and the offset terms of its L and U blocks (a sentinel ends each)
    in_g = np.repeat(g, size)
    local = np.arange(s_all.size) - np.repeat(cut, size)
    lookup = tuple(np.append(x, end) for x, end in (
        (ks * part.n + s_all, ns * part.n),
        (offsets.lower[in_g] + local * w[ks] - xsup[ks], 0),
        (offsets.upper[in_g] + local - xsup[ks] * wide[in_g], 0),
        (wide[in_g], 0))) + (offsets.diag - xsup[:-1] * (w + 1), w)

    dist = DistributedBlocks(
        grid=grid, part=part, supno=supno, s_rows=s_rows,
        l_rows_by_block=l_rows_by_block, offsets=offsets, lookup=lookup,
        stores=[np.zeros(t) for t in totals.tolist()], src=[], pos=[],
        fingerprint=fingerprint)
    # where each nonzero of the matrix lands, grouped by rank
    rank, pos, stored = dist.slots(
        a.rowind, np.repeat(np.arange(a.ncols), np.diff(a.colptr)))
    if not stored.all():
        raise ValueError("the matrix has entries outside the block pattern")
    index = np.int32 if max(a.nnz, *totals.tolist()) < 2 ** 31 else np.int64
    by_rank = np.argsort(rank, kind="stable")
    cuts = np.cumsum(np.bincount(rank, minlength=grid.size))[:-1]
    dist.src = np.split(by_rank.astype(index), cuts)
    dist.pos = np.split(pos[by_rank].astype(index), cuts)
    return dist


def _ranges(start, length):
    """``start[i] .. start[i] + length[i]`` for every i, concatenated."""
    return np.repeat(start - np.cumsum(length) + length, length) \
        + np.arange(length.sum())


def _panels(key, size):
    """Per group, the total ``size`` of the groups sharing its ``key`` (a
    panel: one rank's blocks of one supernode) and the part before it."""
    order = np.argsort(key, kind="stable")
    before, ordered = np.empty_like(size), key[order]
    before[order] = np.cumsum(size[order]) - size[order]
    before -= before[order][np.searchsorted(ordered, key)]
    return np.bincount(key, weights=size).astype(size.dtype)[key], before


def distribute_matrix(a: CSCMatrix, sym: SymbolicLU,
                      part: SupernodePartition,
                      grid: ProcessGrid) -> DistributedBlocks:
    """Lay ``a``'s pattern out over the grid (:func:`block_layout`) and
    move its values in."""
    return _fill(block_layout(a, sym, part, grid), a)


def _check_pattern(a: CSCMatrix, *expected, where: str):
    """Guard a structure-reuse path: A's fingerprint must equal every
    ``expected`` one that is not None.  Returns A's."""
    got = pattern_fingerprint(a)
    for fp in expected:
        if fp is not None and got != fp:
            raise PatternMismatchError(expected=fp, got=got, where=where,
                                       n=a.ncols, nnz=a.nnz)
    return got


def _fill(dist: DistributedBlocks, a: CSCMatrix) -> DistributedBlocks:
    """Every store zeroed, then ``a``'s values gathered into place."""
    for store, src, pos in zip(dist.stores, dist.src, dist.pos):
        store.fill(0.0)
        store[pos] = a.nzval[src]
    dist.n_tiny_pivots = 0
    dist.tiny_pivot_threshold = 0.0
    return dist


def refill_values(dist: DistributedBlocks, a: CSCMatrix,
                  sym: SymbolicLU | None = None) -> DistributedBlocks:
    """Move new values into an existing distribution in place — the
    ``SamePattern`` fast path: each store zeroed and filled by one gather,
    nothing re-derived or reallocated.  ``a`` must have the pattern the
    layout was built for, and ``sym``'s when given
    (:class:`~repro.sparse.ops.PatternMismatchError` otherwise)."""
    if np.iscomplexobj(a.nzval):
        raise TypeError("the distributed path is real-only (float64)")
    _check_pattern(a, dist.fingerprint,
                   None if sym is None else sym.pattern_fingerprint,
                   where="refill_values")
    return _fill(dist, a)
