"""Property-based tests for solves: triangular, multi-RHS, ILU, Krylov."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.iterative import gmres, ilu0
from repro.solve.triangular import (
    solve_lower_csc,
    solve_upper_csc,
    solve_lower_t_csc,
    solve_upper_t_csc,
)
from repro.sparse import CSCMatrix


@st.composite
def triangular_systems(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    seed = draw(st.integers(0, 100_000))
    density = draw(st.floats(0.0, 0.8))
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    np.fill_diagonal(d, np.where(rng.random(n) < 0.5, 1.0, -1.0) *
                     (1.0 + rng.random(n)))
    return d


@given(triangular_systems(), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_lower_solve_residual(d, bseed):
    n = d.shape[0]
    low = np.tril(d)
    a = CSCMatrix.from_dense(low)
    b = np.random.default_rng(bseed).standard_normal(n)
    x = solve_lower_csc(a, b)
    assert np.allclose(low @ x, b, atol=1e-8 * max(1, np.abs(x).max()))


@given(triangular_systems(), st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_upper_solve_residual(d, bseed):
    n = d.shape[0]
    up = np.triu(d)
    a = CSCMatrix.from_dense(up)
    b = np.random.default_rng(bseed).standard_normal(n)
    x = solve_upper_csc(a, b)
    assert np.allclose(up @ x, b, atol=1e-8 * max(1, np.abs(x).max()))


@given(triangular_systems(), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_transpose_solves_are_adjoint(d, bseed):
    """<L^{-1} u, v> == <u, L^{-T} v> — the transpose solves really are
    the adjoints of the forward solves."""
    n = d.shape[0]
    low = np.tril(d)
    a = CSCMatrix.from_dense(low)
    rng = np.random.default_rng(bseed)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    lhs = solve_lower_csc(a, u) @ v
    rhs = u @ solve_lower_t_csc(a, v)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) < 1e-7 * scale


@given(triangular_systems(), st.integers(1, 5), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_multi_rhs_equals_column_solves(d, nrhs, bseed):
    n = d.shape[0]
    low = np.tril(d)
    up = np.triu(d)
    al = CSCMatrix.from_dense(low)
    au = CSCMatrix.from_dense(up)
    b = np.random.default_rng(bseed).standard_normal((n, nrhs))
    xl = solve_lower_csc(al, b)
    xu = solve_upper_csc(au, b)
    for t in range(nrhs):       # elementwise arithmetic: bit for bit
        assert np.array_equal(xl[:, t], solve_lower_csc(al, b[:, t]))
        assert np.array_equal(xu[:, t], solve_upper_csc(au, b[:, t]))


@given(st.integers(2, 10), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_ilu0_pattern_preserved(n, seed):
    """ILU(0) never allocates outside A's pattern (plus the inserted
    diagonal) — the defining property of zero fill."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.5)
    np.fill_diagonal(d, 2.0 + rng.random(n))
    a = CSCMatrix.from_dense(d)
    f = ilu0(a)
    # every stored ILU entry maps to an A entry
    for i in range(n):
        lo, hi = f.rowptr[i], f.rowptr[i + 1]
        for t in range(lo, hi):
            j = int(f.colind[t])
            assert d[i, j] != 0.0 or i == j


@given(st.integers(2, 12), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_gmres_full_space_is_direct(n, seed):
    """GMRES with m >= n and no restarts is a direct method in exact
    arithmetic: it must converge on any nonsingular system."""
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, n)) + n * np.eye(n)
    a = CSCMatrix.from_dense(d)
    x_true = rng.standard_normal(n)
    res = gmres(a, d @ x_true, m=n, tol=1e-10, max_iter=3 * n)
    assert res.converged
    assert np.abs(res.x - x_true).max() < 1e-5 * max(1, np.abs(x_true).max())
