"""Kernel-level sparse operations.

All routines operate on :class:`~repro.sparse.csc.CSCMatrix` and are
vectorized with NumPy: the only Python-level loops left are over columns
where an O(n) loop carries O(nnz) vector work, which is the idiomatic
NumPy trade-off for sparse kernels.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csc import CSCMatrix

__all__ = [
    "spmv",
    "spmv_t",
    "abs_matvec",
    "norm1",
    "norm_inf",
    "max_abs",
    "permute_rows",
    "permute_cols",
    "permute_symmetric",
    "ValueMap",
    "scale_rows",
    "scale_cols",
    "pattern_union_transpose",
    "pattern_ata",
    "structural_symmetry",
    "numerical_symmetry",
    "add",
    "extract_lower",
    "extract_upper",
    "residual",
    "pattern_fingerprint",
    "PatternMismatchError",
]


class PatternMismatchError(ValueError):
    """A pattern-reuse path was handed a structurally different matrix.

    Raised instead of producing garbage factors when ``SAME_PATTERN`` /
    ``SAME_PATTERN_SAME_ROWPERM`` reuse is requested for a matrix whose
    sparsity structure does not match the cached one.  Carries the
    structured facts a caller needs to diagnose the mismatch.
    """

    def __init__(self, expected: str, got: str, where: str = "",
                 n: int | None = None, nnz: int | None = None):
        self.expected = expected
        self.got = got
        self.where = where
        self.n = n
        self.nnz = nnz
        detail = f" (n={n}, nnz={nnz})" if n is not None else ""
        super().__init__(
            f"sparsity pattern mismatch{' in ' + where if where else ''}: "
            f"expected fingerprint {expected[:16]}…, got {got[:16]}…{detail}"
            " — pattern reuse requires a structurally identical matrix")


def pattern_fingerprint(a: CSCMatrix) -> str:
    """Stable hex digest of A's sparsity structure (shape + pattern).

    Two matrices share a fingerprint iff they have the same shape and
    identical (colptr, rowind) arrays — the key of the refactorization
    cache (docs/REFACTORIZATION.md).  Values are deliberately excluded:
    the whole point of static pivoting is that every structure derived
    here is valid for *any* values on the same pattern.
    """
    import hashlib

    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(a.nrows).tobytes())
    h.update(np.int64(a.ncols).tobytes())
    h.update(np.ascontiguousarray(a.colptr).tobytes())
    h.update(np.ascontiguousarray(a.rowind).tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------- #
# matrix-vector products
# --------------------------------------------------------------------- #

def spmv(a: CSCMatrix, x):
    """y = A @ x for CSC A — fully vectorized scatter-add.

    The sparse matrix-vector product is the workhorse of the residual
    computation in iterative refinement (paper step (4)).
    """
    x = np.asarray(x)
    if x.shape[0] != a.ncols:
        raise ValueError("dimension mismatch in spmv")
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    y = np.zeros(a.nrows, dtype=np.result_type(a.nzval, x, np.float64))
    np.add.at(y, a.rowind, a.nzval * x[cols])
    return y


def spmv_t(a: CSCMatrix, x):
    """y = A^T @ x for CSC A — a gather per column, reduced with reduceat."""
    x = np.asarray(x)
    if x.shape[0] != a.nrows:
        raise ValueError("dimension mismatch in spmv_t")
    dtype = np.result_type(a.nzval, x, np.float64)
    if a.nnz == 0:
        return np.zeros(a.ncols, dtype=dtype)
    prod = a.nzval * x[a.rowind]
    y = np.zeros(a.ncols, dtype=dtype)
    nonempty = np.diff(a.colptr) > 0
    starts = a.colptr[:-1][nonempty]
    y[nonempty] = np.add.reduceat(prod, starts)
    return y


def abs_matvec(a: CSCMatrix, x):
    """y = |A| @ |x| — needed for the componentwise backward error berr."""
    x = np.abs(np.asarray(x))
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    y = np.zeros(a.nrows)
    np.add.at(y, a.rowind, np.abs(a.nzval) * x[cols])
    return y


def residual(a: CSCMatrix, x, b):
    """r = b - A x."""
    return np.asarray(b) - spmv(a, x)


# --------------------------------------------------------------------- #
# norms
# --------------------------------------------------------------------- #

def norm1(a: CSCMatrix):
    """The matrix 1-norm: max column sum of |a_ij|."""
    if a.nnz == 0:
        return 0.0
    sums = np.zeros(a.ncols)
    nonempty = np.diff(a.colptr) > 0
    starts = a.colptr[:-1][nonempty]
    sums[nonempty] = np.add.reduceat(np.abs(a.nzval), starts)
    return float(sums.max(initial=0.0))


def norm_inf(a: CSCMatrix):
    """The matrix inf-norm: max row sum of |a_ij|."""
    if a.nnz == 0:
        return 0.0
    sums = np.zeros(a.nrows)
    np.add.at(sums, a.rowind, np.abs(a.nzval))
    return float(sums.max(initial=0.0))


def max_abs(a: CSCMatrix):
    """max_ij |a_ij| (0 for an empty matrix)."""
    return float(np.abs(a.nzval).max(initial=0.0))


# --------------------------------------------------------------------- #
# permutation and scaling
# --------------------------------------------------------------------- #

def _check_perm(p, n):
    p = np.ascontiguousarray(p, dtype=np.int64)
    if p.shape != (n,) or np.any(np.bincount(p, minlength=n) != 1):
        raise ValueError("not a permutation of 0..n-1")
    return p


def permute_rows(a: CSCMatrix, perm):
    """Return P A where row i of A becomes row perm[i] of the result.

    ``perm`` follows the SuperLU ``perm_r`` convention: ``perm[i]`` is the
    *destination* of row ``i`` (so the result's row ``perm[i]`` holds old
    row ``i``).
    """
    perm = _check_perm(perm, a.nrows)
    rowind = perm[a.rowind]
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    order = np.lexsort((rowind, cols))  # restore sortedness within columns
    return CSCMatrix(a.nrows, a.ncols, a.colptr.copy(), rowind[order],
                     a.nzval[order], check=False)


def permute_cols(a: CSCMatrix, perm):
    """Return A Q^T where column j of A becomes column perm[j] of the result.

    ``perm`` follows the SuperLU ``perm_c`` convention: ``perm[j]`` is the
    destination of column ``j``.
    """
    perm = _check_perm(perm, a.ncols)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(a.ncols, dtype=np.int64)
    counts = np.diff(a.colptr)[inv]
    colptr = np.zeros(a.ncols + 1, dtype=np.int64)
    np.cumsum(counts, out=colptr[1:])
    # slot s of new column j reads slot s - colptr[j] + a.colptr[inv[j]]
    src = np.arange(a.nnz) + np.repeat(a.colptr[inv] - colptr[:-1], counts)
    return CSCMatrix(a.nrows, a.ncols, colptr, a.rowind[src], a.nzval[src],
                     check=False)


def permute_symmetric(a: CSCMatrix, perm):
    """Return P A P^T with the same destination convention as above.

    This is how the fill-reducing ordering Pc is applied in GESP step (2):
    symmetrically, so the large diagonal from step (1) stays on the diagonal.
    """
    if a.nrows != a.ncols:
        raise ValueError("symmetric permutation requires a square matrix")
    return permute_rows(permute_cols(a, perm), perm)


class ValueMap:
    """``Pc·Pr·Dr·A·Dc·Pcᵀ`` for one pattern, ``perm_r`` and ``perm_c``,
    as a gather.

    Where each nonzero of A lands under the two permutations depends on
    the pattern alone, so it is computed once: ``colptr`` / ``rowind``
    are the result's static sorted pattern, ``src`` the position in
    ``A.nzval`` of each of its nonzeros, and ``row`` / ``col`` that
    nonzero's original coordinates (the subscripts its scalings are
    looked up by).  :meth:`apply` then only moves numbers, and it
    reproduces ``permute_symmetric(permute_rows(scale_cols(scale_rows(a,
    dr), dc), perm_r), perm_c)`` bit for bit.
    """

    __slots__ = ("colptr", "rowind", "src", "row", "col")

    def __init__(self, a: CSCMatrix, perm_r, perm_c):
        if a.nrows != a.ncols:
            raise ValueError("a value map requires a square matrix")
        n = a.ncols
        perm_r, perm_c = _check_perm(perm_r, n), _check_perm(perm_c, n)
        col = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.colptr))
        new_row, new_col = perm_c[perm_r[a.rowind]], perm_c[col]
        self.src = np.lexsort((new_row, new_col))
        self.row, self.col = a.rowind[self.src], col[self.src]
        self.rowind = new_row[self.src]
        self.colptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(new_col, minlength=n), out=self.colptr[1:])

    def apply(self, a: CSCMatrix, dr, dc) -> CSCMatrix:
        """The transformed matrix for ``a``'s current values."""
        n = self.colptr.size - 1
        return CSCMatrix(n, n, self.colptr, self.rowind,
                         a.nzval[self.src] * dr[self.row] * dc[self.col],
                         check=False)


def scale_rows(a: CSCMatrix, d):
    """Return diag(d) @ A."""
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (a.nrows,):
        raise ValueError("row scale vector has wrong length")
    return CSCMatrix(a.nrows, a.ncols, a.colptr.copy(), a.rowind.copy(),
                     a.nzval * d[a.rowind], check=False)


def scale_cols(a: CSCMatrix, d):
    """Return A @ diag(d)."""
    d = np.asarray(d, dtype=np.float64)
    if d.shape != (a.ncols,):
        raise ValueError("column scale vector has wrong length")
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    return CSCMatrix(a.nrows, a.ncols, a.colptr.copy(), a.rowind.copy(),
                     a.nzval * d[cols], check=False)


# --------------------------------------------------------------------- #
# pattern algebra
# --------------------------------------------------------------------- #

def add(a: CSCMatrix, b: CSCMatrix, alpha=1.0, beta=1.0):
    """alpha*A + beta*B by triplet merge."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch in add")
    from repro.sparse.coo import COOMatrix

    ca = a.to_coo()
    cb = b.to_coo()
    row = np.concatenate([ca.row, cb.row])
    col = np.concatenate([ca.col, cb.col])
    val = np.concatenate([alpha * ca.val, beta * cb.val])
    return COOMatrix(a.nrows, a.ncols, row, col, val).to_csc()


def pattern_union_transpose(a: CSCMatrix):
    """The structure of A + A^T (values: a_ij + a_ji) as CSC.

    Minimum degree in GESP step (2) may run on this symmetrized structure
    (the SuperLU_DIST default for GESP).
    """
    return add(a, a.transpose())


def pattern_ata(a: CSCMatrix, dense_col_tol=None):
    """The *structure* of A^T A as a CSC matrix with unit values.

    This is the graph the original SuperLU column ordering runs on.  The
    values are structural (1.0) — only the pattern matters.  Columns of A
    denser than ``dense_col_tol`` (a count) can be excluded from the
    products to avoid catastrophic densification, matching COLAMD's
    dense-row handling.
    """
    n = a.ncols
    at = a.transpose()  # rows of A, compressed
    k = np.diff(at.colptr)
    kept = k > 0 if dense_col_tol is None else (k > 0) & (k <= dense_col_tol)
    k, start = k[kept], at.colptr[:-1][kept]
    # every pair (j1, j2) with a_ij1, a_ij2 nonzero produces an entry,
    # row by row and j1-major within a row
    sq = k * k
    if not sq.sum():
        return CSCMatrix.empty(n, n)
    row = np.repeat(np.arange(k.size), sq)
    t = np.arange(row.size) - np.repeat(np.cumsum(sq) - sq, sq)
    k, start = k[row], start[row]
    r = at.rowind[start + t // k]
    c = at.rowind[start + t % k]
    from repro.sparse.coo import COOMatrix

    return CSCMatrix.from_coo(COOMatrix(n, n, r, c, np.ones(r.size)))


def structural_symmetry(a: CSCMatrix):
    """StrSym of paper Table 2: fraction of nonzeros matched by a nonzero
    in the symmetric (transposed) position.  Diagonal entries always match.
    """
    if a.nnz == 0:
        return 1.0
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    here = set(zip(a.rowind.tolist(), cols.tolist()))
    matched = sum(1 for (i, j) in here if (j, i) in here)
    return matched / len(here)


def numerical_symmetry(a: CSCMatrix, rtol=0.0):
    """NumSym of paper Table 2: fraction of nonzeros matched by an *equal*
    value in the symmetric position (a_ij == a_ji, exactly by default).
    """
    if a.nnz == 0:
        return 1.0
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    vals = {}
    for i, j, v in zip(a.rowind.tolist(), cols.tolist(), a.nzval.tolist()):
        vals[(i, j)] = v
    matched = 0
    for (i, j), v in vals.items():
        w = vals.get((j, i))
        if w is None:
            continue
        if v == w or (rtol > 0 and abs(v - w) <= rtol * max(abs(v), abs(w))):
            matched += 1
    return matched / len(vals)


def extract_lower(a: CSCMatrix, unit_diagonal=False):
    """The lower triangle of A (including diagonal; diagonal forced to 1
    when ``unit_diagonal``), as CSC."""
    return _extract_triangle(a, lower=True, unit_diagonal=unit_diagonal)


def extract_upper(a: CSCMatrix):
    """The upper triangle of A including the diagonal, as CSC."""
    return _extract_triangle(a, lower=False, unit_diagonal=False)


def _extract_triangle(a, lower, unit_diagonal):
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    if lower:
        keep = a.rowind >= cols
    else:
        keep = a.rowind <= cols
    r, c, v = a.rowind[keep], cols[keep], a.nzval[keep].copy()
    if unit_diagonal:
        v[r == c] = 1.0
        # add any missing diagonal entries
        present = np.zeros(min(a.nrows, a.ncols), dtype=bool)
        present[r[r == c]] = True
        missing = np.nonzero(~present)[0]
        if missing.size:
            r = np.concatenate([r, missing])
            c = np.concatenate([c, missing])
            v = np.concatenate([v, np.ones(missing.size)])
    from repro.sparse.coo import COOMatrix

    return CSCMatrix.from_coo(COOMatrix(a.nrows, a.ncols, r, c, v),
                              sum_duplicates=False)
