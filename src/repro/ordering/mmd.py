"""Minimum degree ordering on a symmetric pattern: Liu's Multiple Minimum
Degree (MMD) [Liu 1985, ref. 23 of the paper] with exact external degrees,
on a bitset quotient graph (see :func:`minimum_degree`), and GESP step
(2)'s column ordering, which runs it on the pattern of AᵀA or Aᵀ+A (see
:func:`column_ordering`)."""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.obs import trace
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import pattern_ata

__all__ = ["COL_PERMS", "column_ordering", "minimum_degree"]

#: every ``col_perm`` value: minimum degree on the pattern of AᵀA (the
#: paper's ``Pc``) or of Aᵀ+A (the graph the symmetrized analysis
#: eliminates), and the identity
COL_PERMS = ("mmd_ata", "mmd_at_plus_a", "natural")
#: a row of A with more than this share of n entries (and more than 16)
#: is left out of AᵀA, which it would make nearly dense (COLAMD practice)
DENSE_ROW_FRAC = 0.5
_DONE = np.iinfo(np.int64).max  # degree of an eliminated or merged variable


def column_ordering(a: CSCMatrix, method: str = "mmd_ata"):
    """Fill-reducing column permutation for LU on ``A`` (GESP step (2)).

    ``method`` is one of :data:`COL_PERMS`: ``"mmd_ata"`` orders the
    pattern of AᵀA, ``"mmd_at_plus_a"`` the cheaper pattern of Aᵀ+A (the
    SuperLU_DIST default for GESP, since step (1) already fixed the
    diagonal), and ``"natural"`` keeps the given order.  Returns a
    destination permutation ``perm_c`` (column ``j`` of ``A`` moves to
    position ``perm_c[j]``).  In GESP it is applied *symmetrically* (rows
    and columns) so the step-(1) diagonal survives.
    """
    if method not in COL_PERMS:
        raise ValueError(f"unknown column ordering {method!r} (expected "
                         f"one of {', '.join(COL_PERMS)})")
    if a.nrows != a.ncols:
        raise ValueError("column_ordering requires a square matrix")
    n = a.ncols
    if method == "natural" or n == 0:
        return np.arange(n, dtype=np.int64)
    with trace("ordering/colperm", method=method):
        if method == "mmd_at_plus_a":
            return minimum_degree(a)        # it orders A + Aᵀ itself
        dense = max(16, int(DENSE_ROW_FRAC * n))
        return minimum_degree(pattern_ata(a, dense_col_tol=dense))


def minimum_degree(a: CSCMatrix, multiple: bool = True):
    """Minimum degree permutation of a symmetric-pattern sparse matrix.

    Element absorption keeps memory at O(nnz); *supervariables*
    (indistinguishable nodes, keyed on ``reach(v) ∪ {v}``) are eliminated
    together; external (weighted) degrees are recomputed exactly after each
    round — the classical exact-degree MMD, not AMD's approximate bound.
    Ties go to the lowest index.

    The quotient graph is Python-int bitsets: bit ``u`` of ``adj[v]`` is an
    original edge no element implies yet, bit ``u`` of ``evars[e]`` puts
    variable ``u`` in element ``e``.  ``reach(v)`` is a few big-int ORs, a
    weighted degree one ``bit_count`` per weight bit-plane, a supervariable
    key the int itself.  Live elements and pruned adjacency only ever hold
    *remaining* variables (a pivot absorbs every element it is in; a merged
    variable leaves its elements and neighbours), so no reach is
    intersected with the remaining set.

    Parameters
    ----------
    a:
        Square matrix; the graph ordered is the pattern of A + Aᵀ, which
        the adjacency builds from ``a`` and its transpose — so
        :func:`column_ordering`'s ``"mmd_at_plus_a"`` hands A over
        as it is.  Values (and explicit zeros) are ignored.
    multiple:
        Use Liu's multiple elimination: per round, eliminate a maximal set
        of pairwise non-adjacent minimum-degree supervariables before any
        degree update.

    Returns
    -------
    perm : int64[n]
        Destination permutation: vertex ``v`` is eliminated at position
        ``perm[v]``.  Apply with :func:`repro.sparse.ops.permute_symmetric`.
    """
    if a.nrows != a.ncols:
        raise ValueError("minimum_degree requires a square matrix")
    n = a.ncols
    adj = _adjacency(a)
    elems = [set() for _ in range(n)]   # live elements adjacent to v
    evars = [0] * n                     # element id (its pivot) -> variables
    weight = [1] * n                    # supervariable sizes
    members = [[v] for v in range(n)]   # supervariable members, in order
    extra = []                          # bit-planes of weight[u] - 1
    degree = np.array([r.bit_count() for r in adj] + [_DONE], dtype=np.int64)
    order = []                          # variables in elimination order

    def reach(v):
        """Variables reachable from v through original edges and elements."""
        r = adj[v]
        for e in elems[v]:
            r |= evars[e]
        return r & ~(1 << v)

    def wdeg(r, count):
        """Weighted size of bitset ``r``, which has ``count`` bits."""
        for k, plane in enumerate(extra):
            count += (r & plane).bit_count() << k
        return count

    while (dmin := degree.min()) != _DONE:
        cands = np.flatnonzero(degree == dmin).tolist()
        # maximal independent subset of the candidates (greedy, index order)
        chosen = cands[:1]
        if multiple:
            chosen, blocked = [], 0
            for v in cands:
                if not blocked >> v & 1:
                    chosen.append(v)
                    blocked |= reach(v)
        touched = 0
        for p in chosen:
            # the new element (id p) absorbs p's old elements
            lp, absorbed = reach(p), elems[p]
            for e in absorbed:
                evars[e] = 0
            evars[p] = lp
            keep = ~(lp | 1 << p)   # edges inside the clique are implied
            for v in _ones(lp):
                adj[v] &= keep
                elems[v] -= absorbed
                elems[v].add(p)
            order += members[p]     # p and its merged members
            degree[p], adj[p], elems[p] = _DONE, 0, set()
            touched |= lp
        # exact degree recomputation for touched variables
        vs = _ones(touched)
        reaches = [reach(v) for v in vs]
        counts = [r.bit_count() for r in reaches]
        degree[vs] = degs = [wdeg(r, c) for r, c in zip(reaches, counts)]
        # supervariable (indistinguishable node) detection: only variables
        # whose (|reach|, weighted size) collide can share reach(v) ∪ {v}
        sizes = [(c, d + weight[v]) for v, c, d in zip(vs, counts, degs)]
        clash, sig = Counter(sizes), {}
        for v, r, s in zip(vs, reaches, sizes):
            if clash[s] < 2 or (u := sig.setdefault(r | 1 << v, v)) == v:
                continue
            # merge v into representative u: eliminate together later
            members[u] += members[v]
            flips = (weight[u] - 1) ^ (weight[u] + weight[v] - 1)
            weight[u] += weight[v]
            extra += [0] * (flips.bit_length() - len(extra))
            for k in _ones(flips):
                extra[k] ^= 1 << u
            drop = ~(1 << v)
            for w in _ones(adj[v]):
                adj[w] &= drop
            for e in elems[v]:
                evars[e] &= drop
            degree[v], adj[v], elems[v] = _DONE, 0, set()
            r = reach(u)
            degree[u] = wdeg(r, r.bit_count())
    return np.argsort(np.array(order, dtype=np.int64))   # position of each v


def _ones(x):
    """Indices of the set bits of the int ``x``, ascending."""
    if x.bit_count() > 32:              # numpy's fixed cost pays off
        b = np.frombuffer(x.to_bytes((x.bit_length() + 7) // 8, "little"),
                          np.uint8)
        return np.unpackbits(b, bitorder="little").nonzero()[0].tolist()
    out = []
    while x:
        out.append((x & -x).bit_length() - 1)
        x &= x - 1
    return out


def _adjacency(a):
    """Bitsets of the pattern of A + Aᵀ, no self loops, ≤ 1 MiB at a time."""
    n, nb = a.ncols, (a.ncols + 8) // 8
    col = np.repeat(np.arange(n), np.diff(a.colptr))
    src = np.concatenate([col, a.rowind])     # the pattern and its transpose
    order = np.argsort(src)
    src, dst = src[order], np.concatenate([a.rowind, col])[order]
    ptr = np.searchsorted(src, np.arange(n + 1))
    step = max(1, (1 << 17) // nb)            # columns per ≤ 1 MiB of bools
    adj = []
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        bits = np.zeros((hi - lo, nb * 8), dtype=bool)
        bits[src[ptr[lo]:ptr[hi]] - lo, dst[ptr[lo]:ptr[hi]]] = True
        bits[np.arange(hi - lo), np.arange(lo, hi)] = False
        adj += [int.from_bytes(row.tobytes(), "little")
                for row in np.packbits(bits, axis=1, bitorder="little")]
    return adj
