"""Unit tests for mixed static / diagonal-block pivoting (§5 extension)."""

import numpy as np
import pytest

from repro.factor import supernodal_factor
from repro.factor.blockpivot import supernodal_factor_block_pivoting
from repro.kernels import lu_partial
from repro.solve import iterative_refinement
from repro.sparse import CSCMatrix

from conftest import random_nonsingular_dense


def test_kernel_pa_equals_lu(rng):
    for _ in range(40):
        w = int(rng.integers(1, 9))
        d = rng.standard_normal((w, w))
        ref = d.copy()
        piv, replaced = lu_partial(d, thresh=0.0)
        l = np.tril(d, -1) + np.eye(w)
        u = np.triu(d)
        pm = np.zeros((w, w))
        pm[np.arange(w), piv] = 1.0
        assert np.allclose(l @ u, pm @ ref, atol=1e-10)
        assert np.abs(l).max() <= 1.0 + 1e-12  # partial pivoting bound


def test_kernel_threshold_pivoting(rng):
    d = np.array([[0.1, 1.0], [1.0, 1.0]])
    # threshold 0.05: diagonal qualifies, no swap
    piv, _ = lu_partial(d.copy(), thresh=0.0,
                                           pivot_threshold=0.05)
    assert piv.tolist() == [0, 1]
    # threshold 1.0: classic partial pivoting, swap
    piv, _ = lu_partial(d.copy(), thresh=0.0,
                                           pivot_threshold=1.0)
    assert piv.tolist() == [1, 0]


def test_kernel_tiny_pivot_replacement():
    # a singular block: no pivot candidate anywhere in the first column
    d = np.zeros((2, 2))
    d[0, 1] = 1.0
    piv, replaced = lu_partial(d, thresh=1e-8)
    assert len(replaced) >= 1
    assert abs(d[0, 0]) == pytest.approx(1e-8)


def test_kernel_zero_raises_without_threshold():
    d = np.zeros((2, 2))
    with pytest.raises(ZeroDivisionError):
        lu_partial(d, thresh=0.0)


@pytest.mark.parametrize("max_block", [2, 4, 8])
def test_factorization_pa_equals_lu(rng, max_block):
    for _ in range(10):
        n = int(rng.integers(8, 40))
        d = random_nonsingular_dense(rng, n, hidden_perm=False)
        a = CSCMatrix.from_dense(d)
        f = supernodal_factor_block_pivoting(a, max_block_size=max_block,
                                             replace_tiny_pivots=False)
        # reconstruct L, U, P and verify P A = L U
        xsup = f.part.xsup
        l = np.zeros((n, n))
        u = np.zeros((n, n))
        for k in range(f.part.nsuper):
            lo, hi = int(xsup[k]), int(xsup[k + 1])
            dk = f.diag[k]
            l[lo:hi, lo:hi] = np.tril(dk, -1) + np.eye(hi - lo)
            u[lo:hi, lo:hi] = np.triu(dk)
            s = f.s_rows[k]
            if s.size:
                l[np.ix_(s, np.arange(lo, hi))] = f.below[k]
                u[np.ix_(np.arange(lo, hi), s)] = f.right[k]
        pa = d.copy()
        for k in range(f.part.nsuper):
            lo, hi = int(xsup[k]), int(xsup[k + 1])
            pa[lo:hi, :] = pa[lo:hi, :][f.piv[k], :]
        scale = max(1.0, np.abs(u).max())
        assert np.allclose(l @ u, pa, atol=1e-10 * scale)


def test_solve_with_refinement(rng):
    for _ in range(10):
        n = int(rng.integers(10, 40))
        d = random_nonsingular_dense(rng, n, hidden_perm=False)
        a = CSCMatrix.from_dense(d)
        f = supernodal_factor_block_pivoting(a, max_block_size=4)
        b = d @ np.ones(n)
        res = iterative_refinement(a, f.solve, b)
        assert res.berr <= 1e-12
        assert np.abs(res.x - 1.0).max() < 1e-6


def test_improves_growth_over_static():
    """The §5 claim: within-block pivoting 'can further enhance
    stability'.  On a growth-engineered matrix the |L| of the static
    factorization explodes while the block-pivoted one stays bounded
    within blocks."""
    n = 48
    d = np.eye(n)
    for i in range(n):
        d[i + 1:, i] = -1.0
    d[:, -1] = 1.0
    rng = np.random.default_rng(0)
    d += 1e-12 * rng.standard_normal((n, n))
    a = CSCMatrix.from_dense(d)
    static = supernodal_factor(a, max_block_size=n,
                               replace_tiny_pivots=False)
    pivoted = supernodal_factor_block_pivoting(a, max_block_size=n,
                                               replace_tiny_pivots=False)
    # one supernode covering everything: block pivoting == full partial
    # pivoting, so U's growth collapses from 2^(n-1) to O(1)
    u_static = max(np.abs(s).max() for s in static.diag)
    u_piv = max(np.abs(s).max() for s in pivoted.diag)
    assert u_static > 1e10
    assert u_piv < 1e3
    assert pivoted.max_l_magnitude() <= 1.0 + 1e-9


def test_identity_permutations_when_diagonal_dominant(rng):
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    d += 50.0 * np.eye(20)
    a = CSCMatrix.from_dense(d)
    f = supernodal_factor_block_pivoting(a, max_block_size=4,
                                         pivot_threshold=0.1)
    for pk in f.piv:
        assert np.array_equal(pk, np.arange(pk.size))


def test_rejects_bad_threshold():
    a = CSCMatrix.identity(4)
    with pytest.raises(ValueError):
        supernodal_factor_block_pivoting(a, pivot_threshold=0.0)


def test_rejects_rectangular():
    with pytest.raises(ValueError):
        supernodal_factor_block_pivoting(CSCMatrix.empty(2, 3))
