"""Sparse-matrix substrate.

Every data structure in this package is built from scratch on top of raw
NumPy arrays (no ``scipy.sparse``).  The three classic storage schemes are
provided:

- :class:`~repro.sparse.coo.COOMatrix` — triplet form, the assembly format;
- :class:`~repro.sparse.csc.CSCMatrix` — compressed sparse column, the
  working format of all factorization kernels (SuperLU convention);
- :class:`~repro.sparse.csr.CSRMatrix` — compressed sparse row, used for
  row-wise traversals (U is stored row-wise in the distributed code).

:mod:`~repro.sparse.ops` holds the kernel-level operations (SpMV, norms,
permutation, pattern algebra) and :mod:`~repro.sparse.io` the
Harwell-Boeing / Matrix Market readers and writers.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.ops import (
    spmv,
    spmv_t,
    abs_matvec,
    norm1,
    norm_inf,
    permute_rows,
    permute_cols,
    permute_symmetric,
    ValueMap,
    scale_rows,
    scale_cols,
    pattern_union_transpose,
    pattern_ata,
    structural_symmetry,
    numerical_symmetry,
    pattern_fingerprint,
    PatternMismatchError,
)
from repro.sparse.io import (
    read_matrix_market,
    write_matrix_market,
    read_harwell_boeing,
    write_harwell_boeing,
)

__all__ = [
    "COOMatrix",
    "CSCMatrix",
    "CSRMatrix",
    "spmv",
    "spmv_t",
    "abs_matvec",
    "norm1",
    "norm_inf",
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
    "pattern_fingerprint",
    "PatternMismatchError",
    "read_matrix_market",
    "write_matrix_market",
    "read_harwell_boeing",
    "write_harwell_boeing",
]
