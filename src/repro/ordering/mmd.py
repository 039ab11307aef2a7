"""Minimum degree ordering on a symmetric pattern.

A quotient-graph implementation in the style of Liu's Multiple Minimum
Degree (MMD) [Liu 1985, ref. 23 of the paper]: element absorption keeps
memory at O(nnz); *supervariables* (indistinguishable nodes) are merged so
they are eliminated together (mass elimination); and *multiple
elimination* optionally eliminates a maximal independent set of
minimum-degree nodes per degree update round.

External (weighted) degrees are recomputed exactly after each elimination
— this is the classical exact-degree MMD rather than AMD's approximate
bound, which keeps the implementation verifiable against brute force.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix

__all__ = ["minimum_degree"]


def minimum_degree(a: CSCMatrix, multiple: bool = True, tie_break: str = "index"):
    """Minimum degree permutation of a symmetric-pattern sparse matrix.

    Parameters
    ----------
    a:
        Square matrix whose *pattern* is treated as symmetric (the union
        with its transpose is taken defensively).  Values are ignored.
    multiple:
        Use Liu's multiple elimination: per round, eliminate a maximal set
        of pairwise non-adjacent minimum-degree supervariables before any
        degree update.
    tie_break:
        ``"index"`` (deterministic, lowest index first) — the only
        implemented rule; exposed for API clarity.

    Returns
    -------
    perm : int64[n]
        Destination permutation: vertex ``v`` is eliminated at position
        ``perm[v]``.  Apply with
        :func:`repro.sparse.ops.permute_symmetric`.
    """
    if a.nrows != a.ncols:
        raise ValueError("minimum_degree requires a square matrix")
    if tie_break != "index":
        raise ValueError("only 'index' tie-breaking is implemented")
    n = a.ncols

    # ---- build symmetric adjacency sets (no self loops) ----
    adj = [set() for _ in range(n)]
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.colptr))
    for i, j in zip(a.rowind.tolist(), cols.tolist()):
        if i != j:
            adj[i].add(j)
            adj[j].add(i)

    # quotient-graph state
    elems = [set() for _ in range(n)]   # elements adjacent to variable v
    elem_list = {}                      # element id -> set of variables
    # plain lists: the loops below read them one element at a time, and
    # a numpy scalar read costs several times a list's
    weight = [1] * n                    # supervariable sizes
    members = {v: [v] for v in range(n)}  # supervariable members, in order
    # weighted external degree
    degree = [sum(map(weight.__getitem__, adj[v])) for v in range(n)]

    perm = np.empty(n, dtype=np.int64)
    next_pos = 0
    remaining = set(range(n))

    def reach(v):
        """Variables reachable from v through original edges and elements."""
        r = set(adj[v])
        for e in elems[v]:
            r |= elem_list[e]
        r.discard(v)
        return r

    while remaining:
        dmin = min(map(degree.__getitem__, remaining))
        cands = sorted(v for v in remaining if degree[v] == dmin)
        if not multiple:
            cands = cands[:1]
        # maximal independent subset of the candidates (greedy, index order)
        chosen = []
        blocked = set()
        for v in cands:
            if v in blocked:
                continue
            chosen.append(v)
            blocked |= reach(v)
        touched = set()
        for p in chosen:
            lp = reach(p) & remaining
            # create the new element; absorb p's old elements
            eid = p  # reuse the pivot's index as the element id
            for e in list(elems[p]):
                elem_list.pop(e, None)
            elem_list[eid] = set(lp)
            for v in lp:
                adj[v].discard(p)
                adj[v] -= lp          # edges inside the clique are implied
                dead = {e for e in elems[v] if e not in elem_list}
                elems[v] -= dead
                elems[v].add(eid)
            # number p (and its merged members)
            for m in members[p]:
                perm[m] = next_pos
                next_pos += 1
            remaining.discard(p)
            adj[p].clear()
            elems[p].clear()
            touched |= lp
        touched &= remaining
        # exact degree recomputation for touched variables
        reaches = {v: reach(v) & remaining for v in touched}
        for v in touched:
            degree[v] = sum(map(weight.__getitem__, reaches[v]))
        # supervariable (indistinguishable node) detection among touched
        sig = {}
        for v in sorted(touched):
            key = (frozenset(reaches[v] | {v}),)
            if key in sig:
                u = sig[key]  # representative
                # merge v into u: eliminate together later
                members[u].extend(members[v])
                weight[u] += weight[v]
                remaining.discard(v)
                for w in reaches[v]:
                    adj[w].discard(v)
                for e in list(elems[v]):
                    if e in elem_list:
                        elem_list[e].discard(v)
                adj[v].clear()
                elems[v].clear()
                # degrees of common neighbours shrink by nothing (weights
                # moved, not removed) except v no longer counts itself;
                # recompute u's degree
                degree[u] = sum(map(weight.__getitem__,
                                    reach(u) & remaining))
            else:
                sig[key] = v
    return perm
