"""Unit tests for symbolic factorization, supernodes, and EDAGs."""

import numpy as np
import pytest

from repro.sparse import CSCMatrix
from repro.symbolic import (
    block_partition,
    build_block_dag,
    find_supernodes,
    relax_supernodes,
    split_supernodes,
    symbolic_lu,
    symbolic_lu_symmetrized,
    symbolic_lu_unsymmetric,
)
from repro.symbolic.supernode import RELAX_SIZE

from conftest import laplace2d_dense, random_nonsingular_dense, \
    primitive_partition


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


def test_block_partition_pipeline(rng):
    d = random_nonsingular_dense(rng, 30, hidden_perm=False)
    sym = symbolic_lu_symmetrized(CSCMatrix.from_dense(d))
    part = block_partition(sym, max_size=5)
    assert np.diff(part.xsup).max() <= 5
    assert part.xsup[-1] == 30
    assert np.array_equal(
        part.xsup, primitive_partition(sym, max_size=5, relax=RELAX_SIZE).xsup)


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
