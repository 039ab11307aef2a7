"""Triplet (coordinate) sparse storage.

COO is the assembly format: matrix generators and file readers emit
``(row, col, value)`` triplets, duplicates are summed on conversion, and the
result is compressed into CSC or CSR for computation.
"""

from __future__ import annotations

import numpy as np

__all__ = ["COOMatrix"]


def value_dtype(arr):
    """The dtype the sparse formats store values as: real input widens
    to float64, complex input to complex128.

    The whole serial stack (formats, kernels, refinement) is dtype-
    generic over these; the paper's flagship application factored a
    *complex* unsymmetric system of order 200,000 (Section 4).
    """
    return np.complex128 if np.iscomplexobj(arr) else np.float64


class COOMatrix:
    """An ``nrows``-by-``ncols`` sparse matrix in coordinate (triplet) form.

    Parameters
    ----------
    nrows, ncols:
        Matrix shape.
    row, col:
        Integer arrays of equal length holding the coordinates of each entry.
    val:
        Float array of the same length with the numerical values.
        Duplicate coordinates are permitted; they are *summed* when the
        matrix is compressed (finite-element assembly semantics).

    Notes
    -----
    The class is deliberately minimal: COO exists to be built and converted.
    All numerical work happens in :class:`~repro.sparse.csc.CSCMatrix` /
    :class:`~repro.sparse.csr.CSRMatrix`.
    """

    __slots__ = ("nrows", "ncols", "row", "col", "val")

    def __init__(self, nrows, ncols, row, col, val):
        row = np.ascontiguousarray(row, dtype=np.int64)
        col = np.ascontiguousarray(col, dtype=np.int64)
        val = np.ascontiguousarray(val, dtype=value_dtype(val))
        if not (row.shape == col.shape == val.shape) or row.ndim != 1:
            raise ValueError("row, col, val must be 1-D arrays of equal length")
        if nrows < 0 or ncols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if row.size:
            if row.min() < 0 or row.max() >= nrows:
                raise ValueError("row index out of range")
            if col.min() < 0 or col.max() >= ncols:
                raise ValueError("column index out of range")
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.row = row
        self.col = col
        self.val = val

    # ------------------------------------------------------------------ #

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def nnz(self):
        """Number of stored triplets (before duplicate summation)."""
        return self.row.size

    @classmethod
    def from_dense(cls, dense, drop_tol=0.0):
        """Build a COO matrix from a dense 2-D array, dropping |a| <= drop_tol."""
        dense = np.asarray(dense, dtype=value_dtype(dense))
        if dense.ndim != 2:
            raise ValueError("dense must be 2-D")
        mask = np.abs(dense) > drop_tol
        r, c = np.nonzero(mask)
        return cls(dense.shape[0], dense.shape[1], r, c, dense[r, c])

    def to_dense(self):
        """Return the dense equivalent (duplicates summed)."""
        out = np.zeros(self.shape, dtype=self.val.dtype)
        np.add.at(out, (self.row, self.col), self.val)
        return out

    def to_csc(self, sum_duplicates=True, drop_zeros=False):
        """Compress to CSC.  Duplicates are summed; explicit zeros kept unless asked."""
        from repro.sparse.csc import CSCMatrix

        return CSCMatrix.from_coo(self, sum_duplicates=sum_duplicates, drop_zeros=drop_zeros)

    def to_csr(self, sum_duplicates=True, drop_zeros=False):
        """Compress to CSR (via the transpose relationship with CSC)."""
        from repro.sparse.csr import CSRMatrix

        return CSRMatrix.from_coo(self, sum_duplicates=sum_duplicates, drop_zeros=drop_zeros)

    def transpose(self):
        """Return the (lazy, triplet-level) transpose."""
        return COOMatrix(self.ncols, self.nrows, self.col, self.row, self.val)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"COOMatrix(shape={self.shape}, nnz={self.nnz})"
