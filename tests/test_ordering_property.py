"""Property-based tests for ordering invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import etree_symmetric, minimum_degree, postorder
from repro.sparse import CSCMatrix, permute_symmetric
from repro.sparse.ops import pattern_union_transpose
from repro.symbolic import symbolic_lu_symmetrized


@st.composite
def symmetric_patterns(draw, max_n=16):
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 100_000))
    density = draw(st.floats(0.05, 0.5))
    rng = np.random.default_rng(seed)
    d = rng.random((n, n)) < density
    d = d | d.T
    np.fill_diagonal(d, True)
    return d.astype(float)


@given(symmetric_patterns())
@settings(max_examples=40, deadline=None)
def test_postorder_preserves_fill(d):
    """Postordering the etree is an *equivalent reordering*: the fill of
    the symmetrized symbolic factorization is identical — the property
    the distributed driver's postorder step relies on."""
    a = CSCMatrix.from_dense(d)
    base = symbolic_lu_symmetrized(a).nnz_lu
    post = postorder(etree_symmetric(pattern_union_transpose(a)))
    reordered = symbolic_lu_symmetrized(permute_symmetric(a, post)).nnz_lu
    assert reordered == base


@given(symmetric_patterns())
@settings(max_examples=30, deadline=None)
def test_minimum_degree_never_catastrophic(d):
    """MD may not always beat natural order, but it must never blow fill
    up beyond the dense bound, and must return a valid permutation."""
    a = CSCMatrix.from_dense(d)
    n = a.ncols
    p = minimum_degree(a)
    assert sorted(p.tolist()) == list(range(n))
    fill = symbolic_lu_symmetrized(permute_symmetric(a, p)).nnz_lu
    assert fill <= n * n


@given(symmetric_patterns())
@settings(max_examples=30, deadline=None)
def test_etree_parent_above_child(d):
    a = CSCMatrix.from_dense(d)
    parent = etree_symmetric(a)
    for v, p in enumerate(parent):
        assert p == -1 or p > v


@given(st.integers(1, 24), st.integers(0, 100_000), st.floats(0.05, 0.5))
@settings(max_examples=40, deadline=None)
def test_minimum_degree_orders_the_union_with_the_transpose(n, seed, density):
    """``column_ordering(a, "mmd_at_plus_a")`` hands an unsymmetric A
    straight to :func:`minimum_degree`: its adjacency is the pattern of
    A + Aᵀ, so symmetrizing first changes nothing — antisymmetric pairs
    (whose sum is an explicit zero) and empty diagonals included."""
    rng = np.random.default_rng(seed)
    d = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0)
    d[rng.random((n, n)) < 0.1] = 0.0
    pairs = np.triu(rng.random((n, n)) < 0.2, 1)
    d[pairs.T] = -d.T[pairs.T]                  # a_ji = -a_ij
    a = CSCMatrix.from_dense(d)
    assert np.array_equal(minimum_degree(a),
                          minimum_degree(pattern_union_transpose(a)))
