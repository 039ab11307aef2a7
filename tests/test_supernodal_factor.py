"""Unit tests for the serial supernodal blocked factorization."""

import numpy as np
import pytest

from repro.factor import gesp_factor, supernodal_factor
from repro.factor.supernodal import supernode_row_sets
from repro.kernels import lu_nopivot, trsm_lower_unit, trsm_upper
from repro.sparse import CSCMatrix
from repro.symbolic import block_partition, symbolic_lu_symmetrized

from conftest import laplace2d_dense, random_nonsingular_dense, \
    primitive_partition


def test_factor_diagonal_block_matches_dense(rng):
    d = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    ref = d.copy()
    replaced = lu_nopivot(d, thresh=1e-12)
    assert replaced == []
    l = np.tril(d, -1) + np.eye(6)
    u = np.triu(d)
    assert np.allclose(l @ u, ref, atol=1e-10)


def test_factor_diagonal_block_tiny_pivot():
    d = np.array([[1.0, 2.0], [0.5, 1.0]])  # pivot 2 becomes exactly 0
    replaced = lu_nopivot(d, thresh=1e-8)
    assert replaced == [1]
    assert abs(d[1, 1]) == pytest.approx(1e-8)


def test_factor_diagonal_block_zero_raises():
    d = np.array([[1.0, 2.0], [0.5, 1.0]])
    with pytest.raises(ZeroDivisionError):
        lu_nopivot(d, thresh=0.0)


def test_panel_solve_l(rng):
    w = 5
    d = rng.standard_normal((w, w)) + w * np.eye(w)
    lu_nopivot(d, thresh=0.0)
    u = np.triu(d)
    b = rng.standard_normal((7, w))
    ref = b @ np.linalg.inv(u)
    trsm_upper(d, b)
    assert np.allclose(b, ref, atol=1e-9)


def test_panel_solve_u(rng):
    w = 5
    d = rng.standard_normal((w, w)) + w * np.eye(w)
    lu_nopivot(d, thresh=0.0)
    l = np.tril(d, -1) + np.eye(w)
    r = rng.standard_normal((w, 8))
    ref = np.linalg.solve(l, r)
    trsm_lower_unit(d, r)
    assert np.allclose(r, ref, atol=1e-9)


@pytest.mark.parametrize("max_block", [1, 2, 4, 24])
def test_supernodal_matches_gesp(rng, max_block):
    d = random_nonsingular_dense(rng, 35, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    sf = supernodal_factor(a, max_block_size=max_block)
    ls, us = sf.to_csc_factors()
    assert np.allclose(ls.to_dense() @ us.to_dense(), d, atol=1e-9)
    # against the column kernel on the same (symmetrized) pattern
    ref = gesp_factor(a, symbolic_method="symmetrized")
    assert np.allclose(ls.to_dense(), ref.l.to_dense(), atol=1e-9)
    assert np.allclose(us.to_dense(), ref.u.to_dense(), atol=1e-9)


def test_supernodal_solve(rng):
    d = random_nonsingular_dense(rng, 40, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    sf = supernodal_factor(a, max_block_size=5)
    x = rng.standard_normal(40)
    assert np.allclose(sf.solve(d @ x), x, atol=1e-6)


def test_supernodal_with_relaxation(rng):
    # relaxation pads with explicit zeros; numerics must be unchanged
    n = 12
    d = np.eye(n) * 4 + np.eye(n, k=1) + np.eye(n, k=-1)
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = primitive_partition(sym, max_size=24, relax=4)
    assert part.nsuper < n  # relaxation actually merged something
    sf = supernodal_factor(a, sym=sym, part=part)
    ls, us = sf.to_csc_factors()
    assert np.allclose(ls.to_dense() @ us.to_dense(), d, atol=1e-10)
    x = np.ones(n)
    assert np.allclose(sf.solve(d @ x), x, atol=1e-8)


def test_supernodal_tiny_pivots():
    d = np.array([[1.0, 1.0, 0.0],
                  [1.0, 1.0, 1.0],
                  [0.0, 1.0, 1.0]])
    sf = supernodal_factor(CSCMatrix.from_dense(d))
    assert sf.n_tiny_pivots == 1


def test_supernodal_requires_symmetrized():
    from repro.symbolic import symbolic_lu_unsymmetric

    a = CSCMatrix.identity(3)
    with pytest.raises(ValueError):
        supernodal_factor(a, sym=symbolic_lu_unsymmetric(a))


def test_supernode_row_sets_laplacian():
    a = CSCMatrix.from_dense(laplace2d_dense(4))
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=3)
    rows = supernode_row_sets(sym, part)
    assert len(rows) == part.nsuper
    for k, s in enumerate(rows):
        assert np.all(s >= part.xsup[k + 1])
        assert np.all(np.diff(s) > 0)
    # the last supernode has nothing below it
    assert rows[-1].size == 0


def test_supernodal_flops_counted(rng):
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    sf = supernodal_factor(CSCMatrix.from_dense(d))
    assert sf.flops > 0
