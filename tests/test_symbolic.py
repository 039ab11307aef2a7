"""Unit tests for symbolic factorization, supernodes, and EDAGs."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering.etree import postorder
from repro.sparse import CSCMatrix
from repro.symbolic import (
    block_partition,
    build_block_dag,
    find_supernodes,
    relax_subtrees,
    relax_supernodes,
    split_supernodes,
    symbolic_lu,
    symbolic_lu_symmetrized,
    symbolic_lu_unsymmetric,
)
from repro.symbolic.supernode import RELAX_SIZE, SupernodePartition

from conftest import laplace2d_dense, random_nonsingular_dense


def dense_lu_pattern(d):
    """Ground truth: patterns of L and U under no-pivoting elimination."""
    n = d.shape[0]
    pat = (d != 0).copy()
    np.fill_diagonal(pat, True)
    for k in range(n):
        rows = np.nonzero(pat[k + 1:, k])[0] + k + 1
        cols = np.nonzero(pat[k, k + 1:])[0] + k + 1
        for r in rows:
            pat[r, cols] = True
    lpat = np.tril(pat)
    upat = np.triu(pat)
    np.fill_diagonal(lpat, True)
    np.fill_diagonal(upat, True)
    return lpat, upat


def test_unsymmetric_fill_exact(rng):
    for _ in range(30):
        n = int(rng.integers(2, 22))
        d = random_nonsingular_dense(rng, n, hidden_perm=False)
        sym = symbolic_lu_unsymmetric(CSCMatrix.from_dense(d))
        lref, uref = dense_lu_pattern(d)
        assert np.array_equal(sym.l_pattern_dense(), lref)
        assert np.array_equal(sym.u_pattern_dense(), uref)


def test_symmetrized_is_superset(rng):
    for _ in range(20):
        n = int(rng.integers(2, 18))
        d = random_nonsingular_dense(rng, n, hidden_perm=False)
        a = CSCMatrix.from_dense(d)
        exact = symbolic_lu_unsymmetric(a)
        sup = symbolic_lu_symmetrized(a)
        assert not np.any(exact.l_pattern_dense() & ~sup.l_pattern_dense())
        assert not np.any(exact.u_pattern_dense() & ~sup.u_pattern_dense())


def test_symmetrized_equals_exact_for_symmetric_pattern():
    d = laplace2d_dense(5)
    a = CSCMatrix.from_dense(d)
    exact = symbolic_lu_unsymmetric(a)
    sup = symbolic_lu_symmetrized(a)
    assert np.array_equal(exact.l_pattern_dense(), sup.l_pattern_dense())
    assert exact.nnz_lu == sup.nnz_lu


def test_nnz_lu_counts_diagonal_once():
    a = CSCMatrix.identity(4)
    sym = symbolic_lu_unsymmetric(a)
    assert sym.nnz_l == 4 and sym.nnz_u == 4 and sym.nnz_lu == 4


def test_factor_flops_tridiagonal():
    # tridiagonal: each of the first n-1 columns does 1 div + 2 mul-add
    n = 10
    d = np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)
    sym = symbolic_lu_unsymmetric(CSCMatrix.from_dense(d))
    assert sym.factor_flops() == (n - 1) * 3


def test_solve_flops():
    a = CSCMatrix.identity(5)
    sym = symbolic_lu_unsymmetric(a)
    assert sym.solve_flops() == 2 * (5 + 5)


def test_symbolic_dispatch():
    a = CSCMatrix.identity(3)
    assert symbolic_lu(a, "unsymmetric").symmetrized is False
    assert symbolic_lu(a, "symmetrized").symmetrized is True
    with pytest.raises(ValueError):
        symbolic_lu(a, "wrong")


def test_rejects_rectangular():
    with pytest.raises(ValueError):
        symbolic_lu_unsymmetric(CSCMatrix.empty(2, 3))


# ------------------------------ supernodes ---------------------------- #

def test_supernode_partition_covers(rng):
    d = random_nonsingular_dense(rng, 30, hidden_perm=False)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = find_supernodes(sym)
    assert part.xsup[0] == 0 and part.xsup[-1] == 30
    assert np.all(np.diff(part.xsup) > 0)


def test_supernode_column_structure_property(rng):
    d = random_nonsingular_dense(rng, 25, hidden_perm=False)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = find_supernodes(sym)
    lpat = sym.l_pattern_dense()
    for s in range(part.nsuper):
        for j in range(int(part.xsup[s]) + 1, int(part.xsup[s + 1])):
            a = set(np.nonzero(lpat[:, j - 1])[0].tolist())
            b = set(np.nonzero(lpat[:, j])[0].tolist())
            assert b == a - {j - 1}


def test_dense_matrix_single_supernode():
    d = np.ones((6, 6)) + 6 * np.eye(6)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = find_supernodes(sym)
    assert part.nsuper == 1
    assert part.mean_size() == 6.0


def test_diagonal_matrix_all_singleton_supernodes():
    sym = symbolic_lu_symmetrized(CSCMatrix.identity(5))
    part = find_supernodes(sym)
    assert part.nsuper == 5


def test_split_supernodes_cap():
    d = np.ones((20, 20)) + 20 * np.eye(20)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = split_supernodes(find_supernodes(sym), max_size=6)
    assert np.diff(part.xsup).max() <= 6
    assert part.xsup[-1] == 20


def test_split_rejects_bad_max():
    part = find_supernodes(symbolic_lu_symmetrized(CSCMatrix.identity(3)))
    with pytest.raises(ValueError):
        split_supernodes(part, max_size=0)


def test_relax_merges_chains():
    # tridiagonal: all supernodes are singletons forming one etree chain
    n = 12
    d = np.eye(n) * 4 + np.eye(n, k=1) + np.eye(n, k=-1)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = find_supernodes(sym)
    relaxed = relax_supernodes(sym, part, relax_size=4)
    assert relaxed.nsuper < part.nsuper
    assert np.diff(relaxed.xsup).max() <= 4
    assert relaxed.xsup[-1] == n


# ------------------------- subtree relaxation -------------------------- #

def golden_relax_snode(parent, relax_size):
    """The ``(first, last)`` column ranges of SuperLU's ``relax_snode``
    on a postordered etree: from each leaf, climb while the parent's
    subtree has at most ``relax_size`` columns.  Frozen: do not "fix" or
    modernise it."""
    n = len(parent)
    descendants = [0] * n
    for j in range(n):
        if parent[j] >= 0:
            descendants[parent[j]] += descendants[j] + 1
    ranges = []
    j = 0
    while j < n:
        start = j
        while parent[j] >= 0 and descendants[parent[j]] < relax_size:
            j = parent[j]
        ranges.append((start, j))
        j += 1
        while j < n and descendants[j] != 0:     # search for a new leaf
            j += 1
    return ranges


def golden_subtree_ranges(parent, relax_size):
    """Every etree subtree of at most ``relax_size`` columns that is a
    contiguous column range, as ``(first, last)``, from explicit
    descendant sets (any etree).  Frozen."""
    n = len(parent)
    subtree = [{j} for j in range(n)]
    for j in range(n):
        if parent[j] >= 0:
            subtree[parent[j]] |= subtree[j]
    return [(j + 1 - len(s), j) for j, s in enumerate(subtree)
            if len(s) <= relax_size and s == set(range(j + 1 - len(s), j + 1))]


def _merged(xsup, ranges):
    """``xsup`` with every boundary inside a range removed."""
    inside = {c for lo, hi in ranges for c in range(lo + 1, hi + 1)}
    return [c for c in xsup if c not in inside]


def _random_etree(n, span, root_share, seed, postordered):
    rng = np.random.default_rng(seed)
    parent = [-1 if j == n - 1 or rng.random() < root_share
              else int(rng.integers(j + 1, min(n, j + 1 + span)))
              for j in range(n)]
    if postordered:
        post = postorder(parent).tolist()
        relabelled = [-1] * n
        for v, p in enumerate(parent):
            relabelled[post[v]] = -1 if p < 0 else post[p]
        parent = relabelled
    return parent


@given(n=st.integers(1, 60), span=st.integers(1, 60),
       root_share=st.sampled_from([0.0, 0.05, 0.3]),
       seed=st.integers(0, 2 ** 16), postordered=st.booleans(),
       chain=st.integers(1, RELAX_SIZE), relax=st.integers(1, 24),
       max_size=st.integers(1, 24))
@settings(max_examples=150, deadline=None)
def test_relax_subtrees_is_the_frozen_loop_property(
        n, span, root_share, seed, postordered, chain, relax, max_size):
    """Against the frozen loops on random etrees, postordered or not, from
    chain partitions at any cap; and the rule's invariants."""
    parent = _random_etree(n, span, root_share, seed, postordered)
    sym = SimpleNamespace(n=n, etree=np.array(parent, dtype=np.int64))
    chains = relax_supernodes(
        sym, SupernodePartition(np.arange(n + 1, dtype=np.int64)), chain)
    part = relax_subtrees(sym, chains, relax)
    xsup, cuts = part.xsup.tolist(), chains.xsup.tolist()
    ranges = golden_subtree_ranges(parent, relax)
    assert xsup == _merged(cuts, ranges)
    if postordered:
        assert xsup == _merged(cuts, golden_relax_snode(parent, relax))
    # whole subtrees: each one lies in one supernode, and every boundary
    # is the chain partition's
    supno = part.supno()
    assert all(supno[lo] == supno[hi] for lo, hi in ranges)
    assert set(xsup) <= set(cuts)
    # a merged supernode is chain runs joined by the subtrees they touch
    for lo, hi in zip(xsup, xsup[1:]):
        inner = [(f, j) for f, j in ranges if lo <= f < j < hi]
        for a, b in zip(cuts, cuts[1:]):
            if lo <= a < hi and (a, b) != (lo, hi):
                assert any(f < b and a <= j for f, j in inner)
    # nothing to amalgamate beyond the chains: the chain partition
    if all(np.searchsorted(cuts, lo, "right") == np.searchsorted(
            cuts, hi, "right") for lo, hi in ranges):
        assert xsup == cuts
    assert np.diff(split_supernodes(part, max_size).xsup).max(
        initial=0) <= max_size


@pytest.mark.parametrize("parent, relax, chains, subtrees", [
    # two interleaved chains (parent[j] = j + 2): no subtree wider than
    # one column is a contiguous range, so the partition is the chains'
    ([j + 2 if j < 10 else -1 for j in range(12)], RELAX_SIZE,
     list(range(13)), list(range(13))),
    # a root with eight leaf children: the chain rule joins only the last
    # leaf to the root, the subtree rule all nine columns ...
    ([8] * 8 + [-1], RELAX_SIZE, [0, 1, 2, 3, 4, 5, 6, 7, 9], [0, 9]),
    # ... unless they exceed the cap
    ([8] * 8 + [-1], 8, [0, 1, 2, 3, 4, 5, 6, 7, 9],
     [0, 1, 2, 3, 4, 5, 6, 7, 9]),
])
def test_relax_subtrees_on_small_trees(parent, relax, chains, subtrees):
    n = len(parent)
    sym = SimpleNamespace(n=n, etree=np.array(parent, dtype=np.int64))
    part = relax_supernodes(
        sym, SupernodePartition(np.arange(n + 1, dtype=np.int64)), relax)
    assert part.xsup.tolist() == chains
    assert relax_subtrees(sym, part, relax).xsup.tolist() == subtrees


def test_block_partition_pipeline(rng):
    d = random_nonsingular_dense(rng, 30, hidden_perm=False)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = block_partition(sym, max_size=5)
    assert np.diff(part.xsup).max() <= 5
    assert part.xsup[-1] == 30
    chains = relax_supernodes(sym, find_supernodes(sym), RELAX_SIZE)
    assert np.array_equal(part.xsup, split_supernodes(
        relax_subtrees(sym, chains, RELAX_SIZE), max_size=5).xsup)


def test_supno_map():
    from repro.symbolic.supernode import SupernodePartition

    part = SupernodePartition(np.array([0, 2, 5], dtype=np.int64))
    assert part.supno().tolist() == [0, 0, 1, 1, 1]
    assert part.nsuper == 2
    assert part.mean_size() == 2.5


# ------------------------------ edag ---------------------------------- #

def test_block_dag_structure(rng):
    d = random_nonsingular_dense(rng, 24, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=3)
    dag = build_block_dag(sym, part)
    lpat = sym.l_pattern_dense()
    supno = part.supno()
    for k in range(dag.nsuper):
        lo, hi = int(part.xsup[k]), int(part.xsup[k + 1])
        expected = set(np.unique(supno[np.nonzero(
            lpat[:, lo:hi].any(axis=1))[0]]).tolist()) | {k}
        assert set(dag.l_blocks[k].tolist()) == expected


def test_block_dag_symmetrized_l_u_equal(rng):
    d = laplace2d_dense(5)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = block_partition(sym, max_size=4)
    dag = build_block_dag(sym, part)
    for k in range(dag.nsuper):
        assert np.array_equal(dag.l_blocks[k], dag.u_blocks[k])


def test_update_blocks_cartesian():
    d = laplace2d_dense(4)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = block_partition(sym, max_size=2)
    dag = build_block_dag(sym, part)
    for k in range(dag.nsuper):
        ub = dag.update_blocks(k)
        ls = dag.l_send_targets(k)
        us = dag.u_send_targets(k)
        assert len(ub) == ls.size * us.size


def test_critical_path_bounds():
    # diagonal matrix: no dependencies between supernodes
    sym = symbolic_lu_symmetrized(CSCMatrix.identity(5))
    part = find_supernodes(sym)
    dag = build_block_dag(sym, part)
    assert dag.critical_path_length() == 1
    # dense matrix: single supernode
    d = np.ones((4, 4)) + 4 * np.eye(4)
    sym2 = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    dag2 = build_block_dag(sym2, split_supernodes(find_supernodes(sym2), 1))
    assert dag2.critical_path_length() == 4


def test_reachable_transitive():
    n = 8
    d = np.eye(n) * 4 + np.eye(n, k=1) + np.eye(n, k=-1)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = find_supernodes(sym)
    dag = build_block_dag(sym, part)
    r = dag.reachable(0)
    assert r.size == part.nsuper - 1  # chain: everything downstream
