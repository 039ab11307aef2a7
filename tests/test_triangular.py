"""Unit tests for serial sparse triangular solves."""

import numpy as np
import pytest

from repro.solve import (
    solve_lower_csc,
    solve_lower_t_csc,
    solve_upper_csc,
    solve_upper_t_csc,
)
from repro.sparse import CSCMatrix

from conftest import random_sparse_dense


@pytest.fixture
def lower(rng):
    d = np.tril(random_sparse_dense(rng, 12, density=0.4), -1)
    np.fill_diagonal(d, 2.0 + rng.random(12))
    return d


@pytest.fixture
def upper(rng):
    d = np.triu(random_sparse_dense(rng, 12, density=0.4), 1)
    np.fill_diagonal(d, 2.0 + rng.random(12))
    return d


def test_lower(lower, rng):
    b = rng.standard_normal(12)
    x = solve_lower_csc(CSCMatrix.from_dense(lower), b)
    assert np.allclose(x, np.linalg.solve(lower, b), atol=1e-10)
    block = rng.standard_normal((12, 3))        # (n, nrhs): same function
    xb = solve_lower_csc(CSCMatrix.from_dense(lower), block)
    assert np.allclose(xb, np.linalg.solve(lower, block), atol=1e-10)


def test_lower_unit_diagonal(lower, rng):
    unit = lower.copy()
    np.fill_diagonal(unit, 1.0)
    b = rng.standard_normal(12)
    # stored diagonal values are ignored with unit_diagonal=True
    x = solve_lower_csc(CSCMatrix.from_dense(lower), b, unit_diagonal=True)
    assert np.allclose(x, np.linalg.solve(unit, b), atol=1e-10)


def test_upper(upper, rng):
    b = rng.standard_normal(12)
    x = solve_upper_csc(CSCMatrix.from_dense(upper), b)
    assert np.allclose(x, np.linalg.solve(upper, b), atol=1e-10)
    block = rng.standard_normal((12, 3))
    xb = solve_upper_csc(CSCMatrix.from_dense(upper), block)
    assert np.allclose(xb, np.linalg.solve(upper, block), atol=1e-10)


def test_lower_transpose(lower, rng):
    b = rng.standard_normal(12)
    x = solve_lower_t_csc(CSCMatrix.from_dense(lower), b)
    assert np.allclose(x, np.linalg.solve(lower.T, b), atol=1e-10)


def test_lower_transpose_unit(lower, rng):
    unit = lower.copy()
    np.fill_diagonal(unit, 1.0)
    b = rng.standard_normal(12)
    x = solve_lower_t_csc(CSCMatrix.from_dense(lower), b, unit_diagonal=True)
    assert np.allclose(x, np.linalg.solve(unit.T, b), atol=1e-10)


def test_upper_transpose(upper, rng):
    b = rng.standard_normal(12)
    x = solve_upper_t_csc(CSCMatrix.from_dense(upper), b)
    assert np.allclose(x, np.linalg.solve(upper.T, b), atol=1e-10)


def test_missing_diagonal_raises():
    d = np.array([[0.0, 0.0], [1.0, 2.0]])
    a = CSCMatrix.from_dense(d)  # (0,0) not stored
    with pytest.raises(ZeroDivisionError):
        solve_lower_csc(a, np.ones(2))
    with pytest.raises(ZeroDivisionError):
        solve_lower_t_csc(a, np.ones(2))
    u = CSCMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 0.0]]))
    with pytest.raises(ZeroDivisionError):
        solve_upper_csc(u, np.ones(2))
    with pytest.raises(ZeroDivisionError):
        solve_upper_t_csc(u, np.ones(2))


def test_input_not_mutated(lower):
    for b in (np.ones(12), np.ones((12, 2))):
        b0 = b.copy()
        solve_lower_csc(CSCMatrix.from_dense(lower), b)
        assert np.array_equal(b, b0)


def test_wrong_length_rhs(lower):
    for shape in (5, (5, 2), (12, 2, 2), ()):
        with pytest.raises(ValueError):
            solve_lower_csc(CSCMatrix.from_dense(lower), np.ones(shape))


def test_rejects_rectangular():
    with pytest.raises(ValueError):
        solve_lower_csc(CSCMatrix.empty(2, 3), np.ones(3))


def test_identity_solves():
    i = CSCMatrix.identity(5)
    b = np.arange(5.0)
    for fn in (solve_lower_csc, solve_upper_csc,
               solve_lower_t_csc, solve_upper_t_csc):
        assert np.allclose(fn(i, b), b)
