"""Bipartite matching machinery for static pivot selection.

Three algorithms, all operating on the row/column bipartite graph of a
sparse matrix (one vertex per row, one per column, an edge per nonzero):

- :func:`max_transversal` — maximum cardinality matching (Duff's MC21,
  1981): a zero-free diagonal when one exists;
- :func:`bottleneck_matching` — maximize the smallest matched magnitude
  (MC64 job 3 flavour), by threshold search over the distinct magnitudes;
- :func:`sparse_assignment` — minimum-cost perfect matching by shortest
  augmenting paths with dual potentials (sparse Jonker-Volgenant /
  MC64 job 5 engine), returning the optimal duals needed for the
  Duff-Koster scaling.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.sparse.csc import CSCMatrix

__all__ = [
    "StructurallySingularError",
    "max_transversal",
    "bottleneck_matching",
    "sparse_assignment",
]


class StructurallySingularError(ValueError):
    """Raised when no perfect matching exists: the matrix is structurally
    singular, so *no* pivot order can avoid a zero pivot and GESP (like any
    LU factorization) must reject it."""


# --------------------------------------------------------------------- #
# maximum cardinality transversal (MC21)
# --------------------------------------------------------------------- #

def max_transversal(a: CSCMatrix, require_perfect=False):
    """Maximum cardinality bipartite matching of the nonzero pattern.

    Returns ``rowof`` with ``rowof[j]`` the row matched to column ``j``
    (−1 when column ``j`` is unmatched).  Uses cheap assignment followed by
    depth-first augmenting paths, the structure of Duff's MC21 algorithm.

    It runs on Python lists (``tolist()`` copies of the structure) and
    returns bit for bit the matching of the per-entry numpy loop it
    replaced (``tests/test_matching_identity.py`` keeps that loop).

    With ``require_perfect=True`` a :class:`StructurallySingularError` is
    raised when the matching is not perfect.
    """
    if a.nrows != a.ncols:
        raise ValueError("max_transversal requires a square matrix")
    n = a.ncols
    ptr, rows = a.colptr.tolist(), a.rowind.tolist()
    rowof = [-1] * n   # row matched to column j
    colof = [-1] * n   # column matched to row i

    # cheap assignment pass: take any free row in the column
    for j in range(n):
        for k in range(ptr[j], ptr[j + 1]):
            i = rows[k]
            if colof[i] < 0:
                colof[i] = j
                rowof[j] = i
                break

    # DFS augmentation for each unmatched column (iterative, with a
    # per-column visited stamp to stay O(nnz) per augmentation).
    # cursor[j]: next edge of column j to try, so each edge is scanned
    # once; parent[j] / via[j]: the column and the row that led to j
    visited, parent, via = [-1] * n, [-1] * n, [-1] * n
    cursor = [0] * n
    for j0 in range(n):
        if rowof[j0] >= 0:
            continue
        stack = [j0]
        cursor[j0] = ptr[j0]
        parent[j0] = -1
        visited[j0] = j0
        found_row = -1
        while stack:
            j = stack[-1]
            k, end = cursor[j], ptr[j + 1]
            while k < end:
                i = rows[k]
                k += 1
                if colof[i] < 0:
                    found_row = i     # free row: augment along the stack
                    break
                j2 = colof[i]
                if visited[j2] != j0:
                    visited[j2] = j0
                    cursor[j2] = ptr[j2]
                    parent[j2] = j
                    via[j2] = i
                    stack.append(j2)
                    break
            else:
                stack.pop()
                continue
            cursor[j] = k
            if found_row >= 0:
                break
        if found_row >= 0:
            # augment: assign found_row to the top column, then flip
            # matched edges upward along parent pointers
            j, i = stack[-1], found_row
            while True:
                rowof[j] = i
                colof[i] = j
                if parent[j] < 0:
                    break
                i, j = via[j], parent[j]

    if require_perfect and -1 in rowof:
        raise StructurallySingularError(
            f"pattern has maximum matching of size {n - rowof.count(-1)} < n={n}")
    return np.array(rowof, dtype=np.int64)


# --------------------------------------------------------------------- #
# bottleneck matching (MC64 job 3 flavour)
# --------------------------------------------------------------------- #

def bottleneck_matching(a: CSCMatrix):
    """Perfect matching maximizing the *smallest* matched magnitude.

    Binary search over the sorted distinct magnitudes: threshold ``t`` is
    feasible iff the subgraph of entries with ``|a_ij| >= t`` admits a
    perfect matching.  Returns (rowof, bottleneck_value).
    """
    if a.nrows != a.ncols:
        raise ValueError("bottleneck_matching requires a square matrix")
    n = a.ncols
    mags = np.abs(a.nzval)
    # feasibility at the smallest magnitude == plain max transversal
    best = max_transversal(a, require_perfect=True)
    values = np.unique(mags)
    lo, hi = 0, values.size - 1  # values[lo] always feasible
    best_val = float(values[0]) if values.size else 0.0
    while lo < hi:
        mid = (lo + hi + 1) // 2
        t = values[mid]
        sub = _threshold_subgraph(a, mags, t)
        try:
            cand = max_transversal(sub, require_perfect=True)
        except StructurallySingularError:
            hi = mid - 1
            continue
        best, best_val, lo = cand, float(t), mid
    return best, best_val


def _threshold_subgraph(a, mags, t):
    keep = mags >= t
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    colptr = np.zeros(a.ncols + 1, dtype=np.int64)
    np.add.at(colptr, cols[keep] + 1, 1)
    np.cumsum(colptr, out=colptr)
    return CSCMatrix(a.nrows, a.ncols, colptr, a.rowind[keep],
                     a.nzval[keep], check=False)


# --------------------------------------------------------------------- #
# minimum-cost perfect matching with duals (sparse JV / MC64 job 5 engine)
# --------------------------------------------------------------------- #

def sparse_assignment(n, colptr, rowind, cost):
    """Minimum-cost perfect bipartite matching on a sparse cost structure.

    Parameters
    ----------
    n:
        Number of rows = number of columns.
    colptr, rowind:
        CSC-style structure: column ``j``'s admissible rows are
        ``rowind[colptr[j]:colptr[j+1]]``.
    cost:
        Finite edge costs parallel to ``rowind`` (must be >= 0 after the
        caller's normalization for the duals to initialize cleanly; any
        finite costs work, initialization handles offsets).

    Returns
    -------
    rowof : int64[n]
        ``rowof[j]`` is the row matched to column ``j``.
    u : float64[n]
        Row duals.
    v : float64[n]
        Column duals, satisfying ``u[i] + v[j] <= cost(i,j)`` for every
        edge with equality on matched edges (complementary slackness).

    Raises
    ------
    StructurallySingularError
        If no perfect matching exists.

    Notes
    -----
    Shortest-augmenting-path algorithm with Dijkstra on reduced costs
    (sparse Jonker-Volgenant; the engine inside MC64).  One Dijkstra per
    column; total complexity ``O(n (nnz + n) log n)`` worst case, far less
    in practice — the paper makes the same observation about MC64.

    The initial duals, the reduced costs and the cheap assignment are
    array passes; the Dijkstra runs on ``tolist()`` copies, with its
    ``dist`` / ``final`` lists reset only at the rows a path touched.
    Every floating-point expression keeps the order of the per-column
    numpy loop this replaced, so ``rowof``, ``u`` and ``v`` are that
    loop's byte for byte (``tests/test_matching_identity.py``).
    """
    colptr = np.asarray(colptr, dtype=np.int64)
    rowind = np.asarray(rowind, dtype=np.int64)
    cost = np.asarray(cost, dtype=np.float64)
    if np.any(~np.isfinite(cost)):
        raise ValueError("edge costs must be finite")
    counts = np.diff(colptr[:n + 1])
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise StructurallySingularError(f"column {empty[0]} is empty")
    cols = np.repeat(np.arange(n, dtype=np.int64), counts)

    # Column duals v[j] = min cost in column j (nonnegative reduced costs
    # before the first augmentation); row duals u[i] = min over edges
    # (i,j) of cost - v[j], 0 for rows with no edges (they fail later
    # with a clear error).
    v = np.minimum.reduceat(cost, colptr[:n])
    u = np.full(n, np.inf)
    np.minimum.at(u, rowind, cost - v[cols])
    u[~np.isfinite(u)] = 0.0

    # Cheap assignment on tight edges (reduced cost == 0), in column order:
    # a column takes its first tight edge whose row is still free.
    rowof = [-1] * n   # row matched to column j
    colof = [-1] * n   # column matched to row i
    tight = np.flatnonzero(cost - u[rowind] - v[cols] <= 1e-15)
    for i, j in zip(rowind[tight].tolist(), cols[tight].tolist()):
        if rowof[j] < 0 and colof[i] < 0:
            colof[i] = j
            rowof[j] = i

    ptr, rows, c = colptr.tolist(), rowind.tolist(), cost.tolist()
    u, v = u.tolist(), v.tolist()
    INF = math.inf
    dist = [INF] * n
    final = [False] * n
    prev_col = [-1] * n   # column preceding row i (read only on reached rows)
    heappush, heappop = heapq.heappush, heapq.heappop
    for j0 in range(n):
        if rowof[j0] >= 0:
            continue
        # Dijkstra from free column j0 over alternating paths.  States are
        # ROWS here (paths alternate col -> row via any edge, row -> col via
        # matched edge); distances are to rows.
        heap, touched, finals = [], [], []
        vj = v[j0]
        for k in range(ptr[j0], ptr[j0 + 1]):
            i = rows[k]
            d = c[k] - u[i] - vj
            if d < dist[i]:
                dist[i] = d
                prev_col[i] = j0
                heappush(heap, (d, i))
                touched.append(i)
        found_row = -1
        while heap:
            d, i = heappop(heap)
            if final[i] or d > dist[i]:
                continue
            final[i] = True
            finals.append(i)
            j = colof[i]
            if j < 0:
                found_row, dfinal = i, d
                break
            # follow the matched edge row i -> column j (reduced cost zero
            # by complementary slackness), then relax every edge of j
            vj = v[j]
            for k in range(ptr[j], ptr[j + 1]):
                i2 = rows[k]
                if final[i2]:
                    continue
                nd = d + c[k] - u[i2] - vj
                if nd < dist[i2] - 1e-300:
                    dist[i2] = nd
                    prev_col[i2] = j
                    heappush(heap, (nd, i2))
                    touched.append(i2)
        if found_row < 0:
            raise StructurallySingularError(
                "no augmenting path: matrix is structurally singular")
        # Dual updates preserving complementary slackness.
        for i in finals:
            if dist[i] <= dfinal:
                u[i] += dist[i] - dfinal
                j = colof[i]
                if j >= 0:
                    v[j] -= dist[i] - dfinal
        v[j0] += dfinal  # the source column absorbs the full path length
        for i in touched:
            dist[i] = INF
            final[i] = False
        # Augment along prev_col chain from found_row back to j0.
        i = found_row
        while True:
            j = prev_col[i]
            prev_i = rowof[j]
            rowof[j] = i
            colof[i] = j
            if j == j0:
                break
            i = prev_i

    return (np.array(rowof, dtype=np.int64), np.array(u, dtype=np.float64),
            np.array(v, dtype=np.float64))
