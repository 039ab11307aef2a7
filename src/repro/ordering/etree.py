"""Elimination trees and postorder.

The elimination tree drives the supernode partition, the triangular-solve
schedule (forward substitution walks it bottom-up, back substitution
top-down — paper §3.3) and the symbolic factorization.  Both the symmetric
etree (of a symmetric pattern) and the *column* etree (the etree of
``AᵀA``, computed without forming ``AᵀA``, Liu's algorithm) are provided.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix

__all__ = ["etree_symmetric", "column_etree", "postorder"]


def etree_symmetric(a: CSCMatrix):
    """Elimination tree of a symmetric (pattern) matrix.

    ``parent[k]`` is the etree parent of node ``k`` (−1 at a root).  Uses
    the classic path-compression algorithm (Liu 1986): process columns in
    order, walking each below-diagonal entry's root path with virtual
    ancestors.  Only the *upper* triangle pattern (entries ``i < k`` of
    column ``k``) is consulted, so an unsymmetric matrix can be passed if
    its pattern has been symmetrized first.
    """
    n = a.ncols
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for k in range(n):
        lo, hi = a.colptr[k], a.colptr[k + 1]
        for i in a.rowind[lo:hi]:
            # walk from i up to the current root, compressing the path
            while i != -1 and i < k:
                inext = ancestor[i]
                ancestor[i] = k
                if inext == -1:
                    parent[i] = k
                i = inext
    return parent


def column_etree(a: CSCMatrix):
    """Column elimination tree: the etree of ``AᵀA``, without forming it.

    For each row ``i`` of ``A``, the columns with a nonzero in row ``i``
    form a clique in ``AᵀA``; it suffices to link consecutive members of
    each clique (Liu's trick), which the path-compression walk below does
    row-by-row via the CSC structure of ``Aᵀ``.
    """
    n = a.ncols
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    # prev_col[i]: the previous column seen with a nonzero in row i
    prev_col = np.full(a.nrows, -1, dtype=np.int64)
    for k in range(n):
        lo, hi = a.colptr[k], a.colptr[k + 1]
        for i in a.rowind[lo:hi]:
            # the clique edge is (prev_col[i], k)
            r = prev_col[i]
            prev_col[i] = k
            while r != -1 and r < k:
                rnext = ancestor[r]
                ancestor[r] = k
                if rnext == -1:
                    parent[r] = k
                r = rnext
    return parent


def postorder(parent):
    """A postordering of the forest given by ``parent``.

    Returns ``post`` with ``post[k]`` = position of node ``k`` in the
    postorder (destination convention).  Children are visited in
    descending index order (the last child pushed onto the stack is
    visited first); iterative DFS so deep trees (tridiagonal matrices
    give paths) do not overflow the Python stack.
    """
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    # build child lists (first_child / next_sibling), reversed so that
    # pushing onto a stack yields ascending-index visitation
    first_child = np.full(n, -1, dtype=np.int64)
    next_sibling = np.full(n, -1, dtype=np.int64)
    for v in range(n - 1, -1, -1):
        p = parent[v]
        if p >= 0:
            next_sibling[v] = first_child[p]
            first_child[p] = v
    post = np.empty(n, dtype=np.int64)
    count = 0
    for root in range(n):
        if parent[root] >= 0:
            continue
        # iterative postorder DFS from root
        stack = [root]
        while stack:
            v = stack[-1]
            c = first_child[v]
            if c >= 0:
                first_child[v] = -1  # mark children as queued
                while c >= 0:
                    stack.append(c)
                    c = next_sibling[c]
                # note: children pushed in ascending order means the *last*
                # pushed is visited first; acceptable for any valid postorder
            else:
                stack.pop()
                post[v] = count
                count += 1
    if count != n:
        raise ValueError("parent array does not describe a forest")
    return post
