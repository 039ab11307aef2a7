"""Unit tests for sparse kernel operations."""

import numpy as np
import pytest

from repro.sparse import CSCMatrix
from repro.sparse.ops import (
    abs_matvec,
    add,
    extract_lower,
    extract_upper,
    max_abs,
    norm1,
    norm_inf,
    numerical_symmetry,
    pattern_ata,
    pattern_union_transpose,
    permute_cols,
    permute_rows,
    permute_symmetric,
    residual,
    scale_cols,
    scale_rows,
    spmv,
    spmv_t,
    structural_symmetry,
)

from conftest import random_sparse_dense


@pytest.fixture
def a_dense(rng):
    return random_sparse_dense(rng, 8, density=0.4)


@pytest.fixture
def a(a_dense):
    return CSCMatrix.from_dense(a_dense)


def test_spmv(a, a_dense, rng):
    x = rng.standard_normal(8)
    assert np.allclose(spmv(a, x), a_dense @ x)


def test_spmv_dimension_check(a):
    with pytest.raises(ValueError):
        spmv(a, np.ones(5))


def test_spmv_t(a, a_dense, rng):
    x = rng.standard_normal(8)
    assert np.allclose(spmv_t(a, x), a_dense.T @ x)


def test_spmv_t_dimension_check(a):
    with pytest.raises(ValueError):
        spmv_t(a, np.ones(5))


def test_spmv_t_empty_columns():
    a = CSCMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
    y = spmv_t(a, np.array([2.0, 3.0]))
    assert np.allclose(y, [2.0, 0.0])


def test_abs_matvec(a, a_dense, rng):
    x = rng.standard_normal(8)
    assert np.allclose(abs_matvec(a, x), np.abs(a_dense) @ np.abs(x))


def test_residual(a, a_dense, rng):
    x = rng.standard_normal(8)
    b = rng.standard_normal(8)
    assert np.allclose(residual(a, x, b), b - a_dense @ x)


def test_norms(a, a_dense):
    assert norm1(a) == pytest.approx(np.abs(a_dense).sum(axis=0).max())
    assert norm_inf(a) == pytest.approx(np.abs(a_dense).sum(axis=1).max())
    assert max_abs(a) == pytest.approx(np.abs(a_dense).max())


def test_norms_empty():
    e = CSCMatrix.empty(3, 3)
    assert norm1(e) == 0.0
    assert norm_inf(e) == 0.0
    assert max_abs(e) == 0.0


def test_permute_rows(rng):
    d = random_sparse_dense(rng, 6)
    a = CSCMatrix.from_dense(d)
    p = rng.permutation(6)
    pm = np.zeros((6, 6))
    pm[p, np.arange(6)] = 1.0
    out = permute_rows(a, p)
    assert np.allclose(out.to_dense(), pm @ d)
    assert out.has_sorted_indices()


def test_permute_cols(rng):
    d = random_sparse_dense(rng, 6)
    a = CSCMatrix.from_dense(d)
    p = rng.permutation(6)
    pm = np.zeros((6, 6))
    pm[p, np.arange(6)] = 1.0
    assert np.allclose(permute_cols(a, p).to_dense(), d @ pm.T)


def test_permute_symmetric(rng):
    d = random_sparse_dense(rng, 7)
    a = CSCMatrix.from_dense(d)
    p = rng.permutation(7)
    pm = np.zeros((7, 7))
    pm[p, np.arange(7)] = 1.0
    assert np.allclose(permute_symmetric(a, p).to_dense(), pm @ d @ pm.T)


def test_permute_rejects_non_permutation():
    a = CSCMatrix.identity(3)
    with pytest.raises(ValueError):
        permute_rows(a, [0, 0, 1])
    with pytest.raises(ValueError):
        permute_cols(a, [0, 1])


def test_permute_symmetric_requires_square():
    a = CSCMatrix.empty(2, 3)
    with pytest.raises(ValueError):
        permute_symmetric(a, [0, 1])


def test_scale_rows_cols(rng):
    d = random_sparse_dense(rng, 5)
    a = CSCMatrix.from_dense(d)
    dr = rng.random(5) + 0.5
    dc = rng.random(5) + 0.5
    assert np.allclose(scale_rows(a, dr).to_dense(), np.diag(dr) @ d)
    assert np.allclose(scale_cols(a, dc).to_dense(), d @ np.diag(dc))


def test_scale_wrong_length():
    a = CSCMatrix.identity(3)
    with pytest.raises(ValueError):
        scale_rows(a, np.ones(2))
    with pytest.raises(ValueError):
        scale_cols(a, np.ones(4))


def test_add(rng):
    d1 = random_sparse_dense(rng, 5)
    d2 = random_sparse_dense(rng, 5)
    a = add(CSCMatrix.from_dense(d1), CSCMatrix.from_dense(d2),
            alpha=2.0, beta=-0.5)
    assert np.allclose(a.to_dense(), 2.0 * d1 - 0.5 * d2)


def test_pattern_union_transpose(rng):
    d = random_sparse_dense(rng, 6)
    a = CSCMatrix.from_dense(d)
    s = pattern_union_transpose(a)
    ref = (d != 0) | (d.T != 0)
    # note: values that cancel may produce explicit zeros, pattern kept
    got = np.zeros((6, 6), dtype=bool)
    cols = np.repeat(np.arange(6), np.diff(s.colptr))
    got[s.rowind, cols] = True
    assert np.array_equal(got, ref)


def test_pattern_ata(rng):
    d = random_sparse_dense(rng, 7, density=0.3)
    a = CSCMatrix.from_dense(d)
    ref = (np.abs(d.T) @ np.abs(d)) > 0
    got = pattern_ata(a).to_dense() > 0
    assert np.array_equal(got, ref)


def test_pattern_ata_dense_row_stripped():
    d = np.zeros((4, 4))
    d[0, :] = 1.0  # dense row couples all columns
    d[1, 1] = d[2, 2] = d[3, 3] = 1.0
    a = CSCMatrix.from_dense(d)
    full = pattern_ata(a)
    stripped = pattern_ata(a, dense_col_tol=3)
    assert full.nnz > stripped.nnz


# the frozen per-row loop — copied verbatim from the historical
# ``pattern_ata``.  DO NOT "fix" or modernise it: the one-pass index
# expansion must hand ``from_coo`` the same pairs in the same order
def golden_pattern_ata(a, dense_col_tol=None):
    from repro.sparse.coo import COOMatrix

    n = a.ncols
    at = a.transpose()  # rows of A, compressed
    rows_cols = []
    cols_cols = []
    dense_rows = None
    if dense_col_tol is not None:
        dense_rows = np.nonzero(np.diff(at.colptr) > dense_col_tol)[0]
        dense_rows = set(dense_rows.tolist())
    for i in range(at.ncols):
        lo, hi = at.colptr[i], at.colptr[i + 1]
        if dense_rows is not None and i in dense_rows:
            continue
        cols_in_row = at.rowind[lo:hi]
        k = cols_in_row.size
        if k == 0:
            continue
        # every pair (j1, j2) with a_ij1, a_ij2 nonzero produces an entry
        rows_cols.append(np.repeat(cols_in_row, k))
        cols_cols.append(np.tile(cols_in_row, k))
    if not rows_cols:
        return CSCMatrix.empty(n, n)
    r = np.concatenate(rows_cols)
    c = np.concatenate(cols_cols)
    coo = COOMatrix(n, n, r, c, np.ones(r.size))
    return CSCMatrix.from_coo(coo)


def _assert_same_csc(got, want):
    assert got.shape == want.shape
    for field in ("colptr", "rowind", "nzval"):
        g, w = getattr(got, field), getattr(want, field)
        assert g.dtype == w.dtype and np.array_equal(g, w), field


def test_pattern_ata_matches_the_frozen_loop_on_the_testbed():
    from repro.matrices import testbed_53

    for m in testbed_53():
        a = m.build()
        for tol in (None, max(16, a.ncols // 2), 4):
            _assert_same_csc(pattern_ata(a, dense_col_tol=tol),
                             golden_pattern_ata(a, dense_col_tol=tol))


@pytest.mark.parametrize("d", [
    np.zeros((0, 0)),
    np.ones((5, 5)),                      # every row dense under tol 3
    np.array([[1.0, 0, 2], [0, 0, 0], [0, 3, 0], [0, 0, 0]]),  # empty rows
], ids=["n0", "all_rows_dense", "empty_rows"])
@pytest.mark.parametrize("tol", [None, 3])
def test_pattern_ata_edge_cases_match_the_frozen_loop(d, tol):
    a = CSCMatrix.from_dense(d)
    _assert_same_csc(pattern_ata(a, dense_col_tol=tol),
                     golden_pattern_ata(a, dense_col_tol=tol))


def test_structural_symmetry():
    sym = CSCMatrix.from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert structural_symmetry(sym) == 1.0
    unsym = CSCMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 4.0]]))
    assert structural_symmetry(unsym) == pytest.approx(2.0 / 3.0)


def test_numerical_symmetry():
    d = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert numerical_symmetry(CSCMatrix.from_dense(d)) == 1.0
    d2 = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert numerical_symmetry(CSCMatrix.from_dense(d2)) == 0.5


def test_extract_triangles(rng):
    d = random_sparse_dense(rng, 6)
    a = CSCMatrix.from_dense(d)
    assert np.allclose(extract_lower(a).to_dense(), np.tril(d))
    assert np.allclose(extract_upper(a).to_dense(), np.triu(d))


def test_extract_lower_unit_diagonal(rng):
    d = random_sparse_dense(rng, 5)
    np.fill_diagonal(d, 0.0)
    a = CSCMatrix.from_dense(d)
    l = extract_lower(a, unit_diagonal=True).to_dense()
    assert np.allclose(np.diag(l), 1.0)
    assert np.allclose(np.tril(l, -1), np.tril(d, -1))
