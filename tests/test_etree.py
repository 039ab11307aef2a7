"""Unit tests for elimination trees and postorder."""

import numpy as np
import pytest

from repro.ordering import column_etree, etree_symmetric, postorder
from repro.sparse import CSCMatrix

from conftest import laplace2d_dense


def brute_force_etree(pattern):
    """Reference etree: parent[k] = min{i > k : L[i,k] != 0} of the
    Cholesky factor pattern computed by elimination on the dense pattern."""
    n = pattern.shape[0]
    pat = pattern.copy()
    np.fill_diagonal(pat, True)
    for k in range(n):
        rows = np.nonzero(pat[k + 1:, k])[0] + k + 1
        for i in rows:
            pat[i, rows] = True
            pat[rows, i] = True
    parent = np.full(n, -1, dtype=np.int64)
    for k in range(n):
        below = np.nonzero(pat[k + 1:, k])[0]
        if below.size:
            parent[k] = below[0] + k + 1
    return parent


def test_etree_symmetric_matches_brute_force(rng):
    for _ in range(25):
        n = int(rng.integers(3, 18))
        d = rng.random((n, n)) < 0.25
        d = d | d.T
        np.fill_diagonal(d, True)
        a = CSCMatrix.from_dense(d.astype(float))
        got = etree_symmetric(a)
        assert np.array_equal(got, brute_force_etree(d))


def test_etree_laplacian():
    d = laplace2d_dense(4) != 0
    a = CSCMatrix.from_dense(d.astype(float))
    parent = etree_symmetric(a)
    # natural-ordered grid: the etree is connected with root n-1
    assert parent[-1] == -1
    assert np.sum(parent == -1) == 1


def test_column_etree_equals_etree_of_ata(rng):
    for _ in range(25):
        n = int(rng.integers(3, 14))
        d = (rng.random((n, n)) < 0.3).astype(float)
        np.fill_diagonal(d, 1.0)
        a = CSCMatrix.from_dense(d)
        ata = (d.T @ d) != 0
        expected = brute_force_etree(ata)
        assert np.array_equal(column_etree(a), expected)


def test_postorder_is_permutation_and_topological(rng):
    for _ in range(20):
        n = int(rng.integers(2, 30))
        # random forest
        parent = np.full(n, -1, dtype=np.int64)
        for v in range(n - 1):
            if rng.random() < 0.8:
                parent[v] = int(rng.integers(v + 1, n))
        post = postorder(parent)
        assert sorted(post.tolist()) == list(range(n))
        for v in range(n):
            if parent[v] >= 0:
                assert post[v] < post[parent[v]]


def test_postorder_path_tree_no_recursion_limit():
    n = 50_000
    parent = np.arange(1, n + 1, dtype=np.int64)
    parent[-1] = -1
    post = postorder(parent)
    assert post[0] == 0 and post[-1] == n - 1


def test_postorder_rejects_cycle():
    with pytest.raises(ValueError):
        postorder(np.array([1, 0], dtype=np.int64))
