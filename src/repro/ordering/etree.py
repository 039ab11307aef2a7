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
    colptr, rowind = a.colptr.tolist(), a.rowind.tolist()
    parent, ancestor = [-1] * n, [-1] * n
    for k in range(n):
        for i in rowind[colptr[k]:colptr[k + 1]]:
            # walk from i up to the current root, compressing the path
            while i != -1 and i < k:
                inext = ancestor[i]
                ancestor[i] = k
                if inext == -1:
                    parent[i] = k
                i = inext
    return np.array(parent, dtype=np.int64)


def column_etree(a: CSCMatrix):
    """Column elimination tree: the etree of ``AᵀA``, without forming it.

    For each row ``i`` of ``A``, the columns with a nonzero in row ``i``
    form a clique in ``AᵀA``; it suffices to link consecutive members of
    each clique (Liu's trick), which the path-compression walk below does
    row-by-row via the CSC structure of ``Aᵀ``.
    """
    n = a.ncols
    colptr, rowind = a.colptr.tolist(), a.rowind.tolist()
    parent, ancestor = [-1] * n, [-1] * n
    # prev_col[i]: the previous column seen with a nonzero in row i
    prev_col = [-1] * a.nrows
    for k in range(n):
        for i in rowind[colptr[k]:colptr[k + 1]]:
            # the clique edge is (prev_col[i], k)
            r = prev_col[i]
            prev_col[i] = k
            while r != -1 and r < k:
                rnext = ancestor[r]
                ancestor[r] = k
                if rnext == -1:
                    parent[r] = k
                r = rnext
    return np.array(parent, dtype=np.int64)


def postorder(parent):
    """A postordering of the forest given by ``parent``.

    Returns ``post`` with ``post[k]`` = position of node ``k`` in the
    postorder (destination convention).  Children are visited in
    descending index order (the last child pushed onto the stack is
    visited first); iterative DFS so deep trees (tridiagonal matrices
    give paths) do not overflow the Python stack.
    """
    parent = np.asarray(parent, dtype=np.int64).tolist()
    n = len(parent)
    # build child lists (first_child / next_sibling), reversed so that
    # pushing onto a stack yields ascending-index visitation
    first_child, next_sibling = [-1] * n, [-1] * n
    for v in range(n - 1, -1, -1):
        p = parent[v]
        if p >= 0:
            next_sibling[v] = first_child[p]
            first_child[p] = v
    post = [0] * n
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
            else:
                stack.pop()
                post[v] = count
                count += 1
    if count != n:
        raise ValueError("parent array does not describe a forest")
    return np.array(post, dtype=np.int64)
