"""Unit tests for fill-reducing orderings (MMD, column orderings, ND)."""

import numpy as np
import pytest

from repro.ordering import (
    column_ordering,
    minimum_degree,
    nested_dissection,
)
from repro.sparse import CSCMatrix, permute_symmetric

from conftest import laplace2d_dense


def symbolic_fill_count(dense_pattern):
    """nnz(L) of the Cholesky factor of a symmetric pattern."""
    n = dense_pattern.shape[0]
    pat = dense_pattern.copy()
    np.fill_diagonal(pat, True)
    count = 0
    for k in range(n):
        rows = np.nonzero(pat[k + 1:, k])[0] + k + 1
        count += rows.size + 1
        for r in rows:
            pat[r, rows] = True
    return count


def fill_under(perm, a):
    p = permute_symmetric(a, perm)
    return symbolic_fill_count(p.to_dense() != 0)


@pytest.fixture
def grid_matrix():
    return CSCMatrix.from_dense(laplace2d_dense(8))


def test_mmd_is_permutation(rng):
    for _ in range(15):
        n = int(rng.integers(2, 40))
        d = rng.random((n, n)) < 0.2
        d = d | d.T
        a = CSCMatrix.from_dense(d.astype(float))
        p = minimum_degree(a)
        assert sorted(p.tolist()) == list(range(n))


def test_mmd_reduces_fill_on_grid(grid_matrix):
    n = grid_matrix.ncols
    natural = fill_under(np.arange(n), grid_matrix)
    md = fill_under(minimum_degree(grid_matrix), grid_matrix)
    assert md < natural


def test_mmd_single_vs_multiple_both_valid(grid_matrix):
    n = grid_matrix.ncols
    p1 = minimum_degree(grid_matrix, multiple=False)
    p2 = minimum_degree(grid_matrix, multiple=True)
    assert sorted(p1.tolist()) == list(range(n))
    assert sorted(p2.tolist()) == list(range(n))
    natural = fill_under(np.arange(n), grid_matrix)
    assert fill_under(p1, grid_matrix) < natural
    assert fill_under(p2, grid_matrix) < natural


def test_mmd_diagonal_matrix():
    a = CSCMatrix.identity(5)
    p = minimum_degree(a)
    assert sorted(p.tolist()) == list(range(5))


def test_mmd_rejects_rectangular():
    with pytest.raises(ValueError):
        minimum_degree(CSCMatrix.empty(2, 3))


def test_mmd_dense_matrix():
    a = CSCMatrix.from_dense(np.ones((6, 6)))
    p = minimum_degree(a)
    assert sorted(p.tolist()) == list(range(6))


# blake2b-8 of minimum_degree's permutation (int64 bytes) on the pattern
# of AᵀA and of Aᵀ+A, recorded at the commit before ``weight`` / ``degree``
# became plain lists: a faster loop must not move a single tie-break
MMD_DIGESTS = {
    "cfd06": ("2ede1c994019a23d", "13c41b5b8a1eb918"),
    "circuit03": ("3a12230c7ef5ba00", "4f517b96e8eab778"),
    "fem05": ("c84a57d67e66aac8", "7585218b48ffb3cd"),
    "chem06": ("5890b50ac3ab9f98", "c8e1460123ed6d79"),
    "resv02": ("e0d44279748d47e1", "edb7853269ffef71"),
    "hb02": ("0c25095a1f77cbce", "fb19010e45f92465"),
    "kkt01": ("39104b9c922af27a", "da8f10aa46113022"),
    "kkt02": ("2a09ac94bbc55a40", "7aeac3e61bd1170b"),
}


@pytest.mark.parametrize("name", sorted(MMD_DIGESTS))
def test_mmd_permutation_is_the_recorded_one(name):
    import hashlib

    from repro.matrices import matrix_by_name
    from repro.ordering.colamd import pattern_ata, pattern_union_transpose

    a = matrix_by_name(name).build()
    graphs = (pattern_ata(a, dense_col_tol=max(16, a.ncols // 2)),
              pattern_union_transpose(a))
    got = tuple(hashlib.blake2b(minimum_degree(g).astype(np.int64).tobytes(),
                                digest_size=8).hexdigest() for g in graphs)
    assert got == MMD_DIGESTS[name]
    if name == "cfd06":                 # ... and single elimination
        single = tuple(hashlib.blake2b(
            minimum_degree(g, multiple=False).astype(np.int64).tobytes(),
            digest_size=8).hexdigest() for g in graphs)
        assert single == ("248438efc5532999", "f5f661c59732f180")


def test_nested_dissection_reduces_fill():
    a = CSCMatrix.from_dense(laplace2d_dense(10))
    n = a.ncols
    natural = fill_under(np.arange(n), a)
    nd = fill_under(nested_dissection(a, leaf_size=8), a)
    assert nd < natural


def test_nested_dissection_permutation(rng):
    for _ in range(10):
        n = int(rng.integers(2, 50))
        d = rng.random((n, n)) < 0.15
        d = d | d.T
        a = CSCMatrix.from_dense(d.astype(float))
        p = nested_dissection(a)
        assert sorted(p.tolist()) == list(range(n))


@pytest.mark.parametrize("method", ["mmd_ata", "mmd_at_plus_a", "colamd",
                                    "nd_ata", "natural"])
def test_column_ordering_valid(method, rng):
    n = 25
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    np.fill_diagonal(d, 1.0)
    a = CSCMatrix.from_dense(d)
    p = column_ordering(a, method=method)
    assert sorted(p.tolist()) == list(range(n))


def test_column_ordering_natural_is_identity():
    a = CSCMatrix.identity(4)
    assert np.array_equal(column_ordering(a, "natural"), np.arange(4))


def test_column_ordering_unknown_method():
    with pytest.raises(ValueError):
        column_ordering(CSCMatrix.identity(3), method="bogus")


def test_column_ordering_reduces_lu_fill():
    from repro.symbolic import symbolic_lu_unsymmetric
    from repro.sparse.ops import permute_symmetric as psym

    a = CSCMatrix.from_dense(laplace2d_dense(7))
    natural_fill = symbolic_lu_unsymmetric(a).nnz_lu
    p = column_ordering(a, "mmd_ata")
    fill = symbolic_lu_unsymmetric(psym(a, p)).nnz_lu
    assert fill < natural_fill
