"""Static fill patterns of L and U for a fixed diagonal pivot sequence.

Two algorithms:

- :func:`symbolic_lu_unsymmetric` — *exact* unsymmetric fill, by the
  classic row-merge simulation of Gaussian elimination on patterns
  (fill path theorem of Rose-Tarjan: L+U has entry (i,j) iff a path
  i ⇝ j exists in G(A) through vertices < min(i,j));
- :func:`symbolic_lu_symmetrized` — fill of the *symmetrized* pattern
  A+Aᵀ via etree-based symbolic Cholesky.  A superset of the true
  pattern (equal when A is structurally symmetric); this is what
  SuperLU_DIST uses, trading a few extra stored zeros for a much
  cheaper analysis — and it makes L and Uᵀ share one pattern, which
  the 2-D distributed data structure exploits.

Both return a :class:`SymbolicLU` with L in CSC (unit diagonal *included*
in the pattern) and U in CSR (diagonal included).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import add, get_tracer, trace
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import pattern_fingerprint, pattern_union_transpose

__all__ = [
    "SymbolicLU",
    "symbolic_lu",
    "symbolic_lu_unsymmetric",
    "symbolic_lu_symmetrized",
]


@dataclass
class SymbolicLU:
    """Static structure of an LU factorization with diagonal pivoting.

    Attributes
    ----------
    n:
        Matrix order.
    l_colptr, l_rowind:
        CSC pattern of L, *including* the unit diagonal, rows sorted.
    u_rowptr, u_colind:
        CSR pattern of U, *including* the diagonal, columns sorted.
    etree:
        Elimination tree over columns: for the symmetrized analysis the
        etree of A+Aᵀ; for exact unsymmetric analysis the column etree
        (etree of AᵀA), which is an upper bound on the true dependencies.
    symmetrized:
        Whether the pattern came from the A+Aᵀ analysis.
    pattern_fingerprint:
        :func:`repro.sparse.ops.pattern_fingerprint` of the matrix this
        analysis was computed for, recorded by the public entry points.
        Reuse paths (``Fact=SAME_PATTERN...``) compare it against the new
        matrix before trusting the cached structure, so a stale symbolic
        factorization can never silently produce garbage factors.
    """

    n: int
    l_colptr: np.ndarray
    l_rowind: np.ndarray
    u_rowptr: np.ndarray
    u_colind: np.ndarray
    etree: np.ndarray
    symmetrized: bool
    pattern_fingerprint: str | None = None

    @property
    def nnz_l(self):
        return self.l_rowind.size

    @property
    def nnz_u(self):
        return self.u_colind.size

    @property
    def nnz_lu(self):
        """nnz(L+U) counting the diagonal once (the paper's fill metric)."""
        return self.nnz_l + self.nnz_u - self.n

    def l_pattern_dense(self):
        out = np.zeros((self.n, self.n), dtype=bool)
        for j in range(self.n):
            out[self.l_rowind[self.l_colptr[j]:self.l_colptr[j + 1]], j] = True
        return out

    def u_pattern_dense(self):
        out = np.zeros((self.n, self.n), dtype=bool)
        for i in range(self.n):
            out[i, self.u_colind[self.u_rowptr[i]:self.u_rowptr[i + 1]]] = True
        return out

    def factor_flops(self):
        """Floating-point operations of the numeric factorization.

        For column k with ``lk`` strictly-below-diagonal entries in L and
        ``uk`` strictly-right-of-diagonal entries in row k of U (of the
        static pattern): division costs ``lk`` and the rank-1 update costs
        ``2·lk·uk`` — the standard sparse LU flop count.
        """
        lcnt = np.diff(self.l_colptr) - 1  # strictly below diagonal
        ucnt = np.diff(self.u_rowptr) - 1  # strictly right of diagonal
        return int(np.sum(lcnt) + 2 * np.sum(lcnt * ucnt))

    def solve_flops(self):
        """Flops of one forward+back substitution: 2·nnz(L)+2·nnz(U)."""
        return 2 * (self.nnz_l + self.nnz_u)


def symbolic_lu(a: CSCMatrix, method: str = "unsymmetric") -> SymbolicLU:
    """Dispatch on ``method``: ``"unsymmetric"`` (exact) or ``"symmetrized"``."""
    if method == "unsymmetric":
        return symbolic_lu_unsymmetric(a)
    if method == "symmetrized":
        return symbolic_lu_symmetrized(a)
    raise ValueError(f"unknown symbolic method {method!r}")


def _stack(parts):
    """``(ptr, index)``: the compressed form of a list of index arrays."""
    ptr = np.zeros(len(parts) + 1, dtype=np.int64)
    ptr[1:] = np.cumsum([p.size for p in parts])
    return ptr, np.concatenate([*parts, ptr[:0]])


def _record_fill(sym: SymbolicLU):
    """Emit the symbolic counters (only computed when a tracer is live)."""
    if get_tracer().enabled:
        add("symbolic.fill_nnz", int(sym.nnz_lu))
        add("symbolic.factor_flops", int(sym.factor_flops()))


def symbolic_lu_unsymmetric(a: CSCMatrix) -> SymbolicLU:
    """Exact fill of LU with diagonal pivots on an unsymmetric pattern.

    Row-merge simulation: keep each row's current pattern as a sorted
    NumPy array; eliminating column ``k`` merges the tail of row ``k``
    (columns > k) into every row ``i > k`` that has an entry in column
    ``k``.  Complexity O(fill · average-row-length) — fine at the scale
    of the testbed, and exactness is what the serial GESP kernel and the
    tests rely on.
    """
    with trace("symbolic/fill", method="unsymmetric"):
        sym = _symbolic_lu_unsymmetric(a)
        sym.pattern_fingerprint = pattern_fingerprint(a)
        _record_fill(sym)
        return sym


def _symbolic_lu_unsymmetric(a: CSCMatrix) -> SymbolicLU:
    if a.nrows != a.ncols:
        raise ValueError("symbolic_lu requires a square matrix")
    n = a.ncols
    # build row patterns from the CSC structure (include the diagonal;
    # a missing structural diagonal still gets a pivot slot in GESP)
    at = a.transpose()
    rows = []
    for i in range(n):
        lo, hi = at.colptr[i], at.colptr[i + 1]
        r = at.rowind[lo:hi]
        if not np.any(r == i):
            r = np.sort(np.append(r, i))
        rows.append(r.astype(np.int64))

    # active column membership: for each column k, the rows i>k currently
    # holding an entry in column k.  Maintained lazily: when row i gains a
    # fill entry in column k we append it.
    col_members = [[] for _ in range(n)]
    for i in range(n):
        for k in rows[i]:
            if k < i:
                col_members[k].append(i)

    for k in range(n):
        rk = rows[k]
        tail = rk[np.searchsorted(rk, k + 1):]
        if tail.size:
            for i in col_members[k]:
                ri = rows[i]
                merged = np.union1d(ri, tail)
                if merged.size != ri.size:
                    # record new memberships for columns we just filled
                    new = np.setdiff1d(merged, ri, assume_unique=True)
                    for c in new:
                        if c < i:
                            col_members[c].append(i)
                    rows[i] = merged

    # L column k = {k} ∪ the rows still listing k (all > k; a row joins a
    # column's list only before that column is eliminated); U row i is
    # the part of row i's pattern from i on
    l_colptr, l_rowind = _stack([np.array([k, *sorted(set(rows_k))],
                                          dtype=np.int64)
                                 for k, rows_k in enumerate(col_members)])
    u_rowptr, u_colind = _stack([r[np.searchsorted(r, i):]
                                 for i, r in enumerate(rows)])
    from repro.ordering.etree import column_etree

    return SymbolicLU(
        n=n, l_colptr=l_colptr, l_rowind=l_rowind, u_rowptr=u_rowptr,
        u_colind=u_colind,
        etree=column_etree(a),
        symmetrized=False,
    )


def symbolic_lu_symmetrized(a: CSCMatrix) -> SymbolicLU:
    """Fill of the symmetrized pattern A+Aᵀ via symbolic Cholesky.

    Etree-driven column merging: pattern(L col k) = pattern(lower A+Aᵀ
    col k) ∪ (∪ over etree children c of pattern(L col c) minus {c}).
    L and U share the (transposed) pattern, exactly as in SuperLU_DIST's
    GESP analysis.
    """
    with trace("symbolic/fill", method="symmetrized"):
        sym = _symbolic_lu_symmetrized(a)
        sym.pattern_fingerprint = pattern_fingerprint(a)
        _record_fill(sym)
        return sym


def _symbolic_lu_symmetrized(a: CSCMatrix) -> SymbolicLU:
    if a.nrows != a.ncols:
        raise ValueError("symbolic_lu requires a square matrix")
    n = a.ncols
    sym = pattern_union_transpose(a)
    from repro.ordering.etree import etree_symmetric

    parent = etree_symmetric(sym)
    # the lower triangle of A+Aᵀ with every diagonal, column by column
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(sym.colptr))
    lower = sym.rowind >= cols
    # sorted, then deduplicated: np.unique hashes first, several × slower
    keys = np.sort(np.concatenate((cols[lower] * n + sym.rowind[lower],
                                   np.arange(n, dtype=np.int64) * (n + 1))))
    keys = keys[np.diff(keys, prepend=-1) != 0]
    ptr = np.searchsorted(keys, np.arange(n + 1) * n).tolist()
    rows = keys - np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(ptr))

    # column k's pattern is [k, p, …] with p its etree parent, so all of
    # it but k goes into column p: merged once, when p is reached
    col_pat, tails = [], [[] for _ in range(n)]
    for k, p in enumerate(parent.tolist()):
        pat = rows[ptr[k]:ptr[k + 1]]
        if tails[k]:
            pat = np.concatenate([pat, *tails[k]])
            pat.sort()
            first = np.empty(pat.size, bool)
            first[0] = True
            np.not_equal(pat[1:], pat[:-1], out=first[1:])
            pat = pat[first]
        if p >= 0:
            tails[p].append(pat[1:])
        col_pat.append(pat)

    l_colptr, l_rowind = _stack(col_pat)
    # U pattern = transpose of L pattern (CSR of U == CSC of L, reinterpreted)
    return SymbolicLU(
        n=n,
        l_colptr=l_colptr,
        l_rowind=l_rowind,
        u_rowptr=l_colptr.copy(),
        u_colind=l_rowind.copy(),
        etree=parent,
        symmetrized=True,
    )
