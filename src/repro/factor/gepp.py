"""GEPP baseline: left-looking sparse LU with partial pivoting.

This is the Gilbert-Peierls algorithm — per-column symbolic reach by
depth-first search through the partially built L, then numeric updates in
topological order, then a row exchange to bring the largest remaining
entry to the pivot — the same algorithmic core as SuperLU, which is the
paper's GEPP reference in Figure 4.

Everything GESP statically precomputes, GEPP must discover dynamically:
the structure of each column depends on the pivots chosen so far.  That
dynamic discovery is exactly what makes GEPP hard to distribute, which is
the paper's motivation for static pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.factor.gesp import col_scale, spa_axpy
from repro.sparse.csc import CSCMatrix

__all__ = ["GEPPFactors", "gepp_factor"]


@dataclass
class GEPPFactors:
    """Factors with row pivoting: ``P A = L U``.

    ``perm_r`` is the SuperLU destination convention — row ``i`` of A is
    row ``perm_r[i]`` of ``P A``.  ``l`` is unit lower triangular (unit
    diagonal stored), ``u`` upper triangular, both CSC in pivoted row
    coordinates.
    """

    l: CSCMatrix
    u: CSCMatrix
    perm_r: np.ndarray
    flops: int = 0

    def solve(self, b):
        """x with A x = b, i.e. U x = L^{-1} P b."""
        from repro.solve.triangular import solve_lower_csc, solve_upper_csc

        b = np.asarray(b)
        pb = np.empty(b.shape, dtype=np.result_type(self.l.nzval, b, np.float64))
        pb[self.perm_r] = b
        y = solve_lower_csc(self.l, pb, unit_diagonal=True)
        return solve_upper_csc(self.u, y)


def gepp_factor(a: CSCMatrix, pivot_threshold: float = 1.0,
                prefer_diagonal: bool = False) -> GEPPFactors:
    """Factor ``P A = L U`` by Gilbert-Peierls with partial pivoting.

    Parameters
    ----------
    a:
        Square sparse matrix.
    pivot_threshold:
        Threshold-pivoting parameter ``u`` in (0, 1]: any row with
        ``|x_i| >= u * max|x|`` is an acceptable pivot.  1.0 is classic
        partial pivoting.
    prefer_diagonal:
        With threshold pivoting, prefer the diagonal entry when it
        qualifies (SuperLU's default heuristic).

    Raises
    ------
    ZeroDivisionError
        If a column has no nonzero candidate pivot (matrix is singular).
    """
    if a.nrows != a.ncols:
        raise ValueError("gepp_factor requires a square matrix")
    n = a.ncols
    if not (0.0 < pivot_threshold <= 1.0):
        raise ValueError("pivot_threshold must be in (0, 1]")

    # L columns in *original* row indices, gathered per column
    l_cols_rows = []
    l_cols_vals = []
    u_cols_rows = []  # pivot-coordinates (k) per column
    u_cols_vals = []
    # pinv[orig_row] = pivot step at which the row became pivotal, else -1
    pinv = np.full(n, -1, dtype=np.int64)

    dtype = a.nzval.dtype
    spa = np.zeros(n, dtype=dtype)
    stats = kernels.stats()
    snap = stats.snapshot()

    # adjacency of current L for the DFS: l_cols_rows[k] lists original rows
    for j in range(n):
        alo, ahi = a.colptr[j], a.colptr[j + 1]
        arows = a.rowind[alo:ahi]

        # ---- symbolic: reach of pattern(A(:,j)) through pivotal columns ----
        topo = []       # pivotal originals in reverse-topological order
        visited = set()
        for start in arows:
            s = int(start)
            if s in visited:
                continue
            # iterative DFS; only pivotal rows expand
            stack = [(s, 0)]
            visited.add(s)
            while stack:
                v, ptr = stack[-1]
                k = pinv[v]
                if k < 0:
                    stack.pop()
                    continue  # non-pivotal: a leaf, lives in L(:,j) pattern
                children = l_cols_rows[k]
                advanced = False
                while ptr < len(children):
                    w = int(children[ptr])
                    ptr += 1
                    if w not in visited:
                        visited.add(w)
                        stack[-1] = (v, ptr)
                        stack.append((w, 0))
                        advanced = True
                        break
                if not advanced:
                    stack.pop()
                    topo.append(v)
        # topo currently holds pivotal vertices in postorder; updates must
        # run parents-before-children along U dependencies = reverse postorder
        topo.reverse()

        # ---- numeric ----
        spa[arows] = a.nzval[alo:ahi]
        for v in topo:
            k = pinv[v]
            xk = spa[v]
            if xk != 0.0:
                rows = l_cols_rows[k]
                vals = l_cols_vals[k]
                spa_axpy(spa, rows, vals, xk)

        # ---- pivot selection among non-pivotal rows in the reach ----
        cand = [v for v in visited if pinv[v] < 0]
        if not cand:
            raise ZeroDivisionError(f"column {j} is numerically empty")
        cand_arr = np.fromiter(cand, dtype=np.int64, count=len(cand))
        mags = np.abs(spa[cand_arr])
        mmax = mags.max()
        if mmax == 0.0:
            raise ZeroDivisionError(f"no nonzero pivot in column {j}")
        pivot_row = -1
        if prefer_diagonal:
            # the diagonal of the current column in original coordinates is
            # row j (driver pre-permutes); accept it when within threshold
            dmask = cand_arr == j
            if np.any(dmask) and abs(spa[j]) >= pivot_threshold * mmax:
                pivot_row = j
        if pivot_row < 0:
            # the largest magnitude, lowest index to break ties
            best = np.nonzero(mags >= pivot_threshold * mmax)[0]
            # choose max magnitude among qualifying (classic PP when u=1)
            pivot_row = int(cand_arr[best[np.argmax(mags[best])]])
        pivot_val = spa[pivot_row]
        pinv[pivot_row] = j

        # ---- gather U(:,j): pivotal rows of the reach (mapped to steps) ----
        urows, uvals = [j], [pivot_val]
        for v in visited:
            k = pinv[v]
            if 0 <= k < j and spa[v] != 0.0:
                urows.append(k)
                uvals.append(spa[v])
        order = np.argsort(urows)
        u_cols_rows.append(np.asarray(urows, dtype=np.int64)[order])
        u_cols_vals.append(np.asarray(uvals, dtype=dtype)[order])

        # ---- gather L(:,j): non-pivotal rows (original coords), scaled ----
        lrows = [v for v in visited if pinv[v] < 0 and spa[v] != 0.0]
        lrows_arr = np.asarray(lrows, dtype=np.int64)
        l_cols_rows.append(lrows_arr)
        l_cols_vals.append(col_scale(spa[lrows_arr], pivot_val)
                           .astype(dtype, copy=False))

        # clear SPA
        spa[np.fromiter(visited, dtype=np.int64, count=len(visited))] = 0.0

    # assemble CSC L (rows remapped to pivot coordinates) and U
    perm_r = pinv  # destination convention: original row -> pivot position
    l_colptr = np.zeros(n + 1, dtype=np.int64)
    for j in range(n):
        l_colptr[j + 1] = l_colptr[j] + l_cols_rows[j].size + 1
    l_rowind = np.empty(l_colptr[-1], dtype=np.int64)
    l_nzval = np.empty(l_colptr[-1], dtype=dtype)
    for j in range(n):
        lo = l_colptr[j]
        rows_p = perm_r[l_cols_rows[j]]
        order = np.argsort(rows_p)
        l_rowind[lo] = j
        l_nzval[lo] = 1.0
        l_rowind[lo + 1:l_colptr[j + 1]] = rows_p[order]
        l_nzval[lo + 1:l_colptr[j + 1]] = l_cols_vals[j][order]
    u_colptr = np.zeros(n + 1, dtype=np.int64)
    for j in range(n):
        u_colptr[j + 1] = u_colptr[j] + u_cols_rows[j].size
    u_rowind = np.concatenate(u_cols_rows) if n else np.empty(0, np.int64)
    u_nzval = np.concatenate(u_cols_vals) if n else np.empty(0, dtype)

    l = CSCMatrix(n, n, l_colptr, l_rowind, l_nzval, check=False)
    u = CSCMatrix(n, n, u_colptr, u_rowind, u_nzval, check=False)
    return GEPPFactors(l=l, u=u, perm_r=perm_r.copy(),
                       flops=int(stats.flops_since(snap)))
