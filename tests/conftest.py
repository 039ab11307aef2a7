"""Shared fixtures and matrix helpers for the test suite."""

import numpy as np
import pytest

from repro.sparse import CSCMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def testbed():
    """name -> (a, b, default-configuration solver), all 53 matrices."""
    from repro.driver import GESPSolver
    from repro.matrices import testbed_53

    out = {}
    for tm in testbed_53():
        a = tm.build()
        out[tm.name] = (a, a @ np.ones(a.ncols), GESPSolver(a, cache=False))
    return out


@pytest.fixture(scope="session")
def testbed_oracles(testbed):
    """name -> column-oracle solver (``paper_defaults``: exact fill,
    column kernel, column sweeps) of the same 53 matrices."""
    from repro.driver import GESPOptions, GESPSolver

    return {name: GESPSolver(a, GESPOptions.paper_defaults(), cache=False)
            for name, (a, _, _) in testbed.items()}


def random_sparse_dense(rng, n, m=None, density=0.3):
    """A random dense array with ~density nonzeros (helper, not fixture)."""
    m = n if m is None else m
    d = rng.standard_normal((n, m)) * (rng.random((n, m)) < density)
    return d


def random_nonsingular_dense(rng, n, density=0.3, hidden_perm=True,
                             zero_diag=False):
    """Random unsymmetric dense matrix that is structurally nonsingular.

    With ``hidden_perm`` the guaranteed transversal sits on a random
    permutation (so the natural diagonal may be structurally zero when
    ``zero_diag``); otherwise the diagonal itself is reinforced.
    """
    d = random_sparse_dense(rng, n, density=density)
    if zero_diag:
        np.fill_diagonal(d, 0.0)
    if hidden_perm:
        p = rng.permutation(n)
        if zero_diag and n > 1:
            # need a derangement so the guaranteed transversal avoids the
            # (structurally zero) diagonal
            while np.any(p == np.arange(n)):
                p = rng.permutation(n)
        for j in range(n):
            if d[p[j], j] == 0.0:
                d[p[j], j] = 2.0 + rng.random()
    else:
        for j in range(n):
            d[j, j] = 3.0 + rng.random()
    return d


def laplace2d_dense(k):
    """The 5-point Laplacian on a k×k grid (dense form, for ground truth)."""
    n = k * k
    d = np.zeros((n, n))
    for i in range(k):
        for j in range(k):
            v = i * k + j
            d[v, v] = 4.0
            for (a, b) in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if 0 <= a < k and 0 <= b < k:
                    d[v, a * k + b] = -1.0
    return d


def dense_lu_nopivot(d):
    """Ground-truth dense LU without pivoting (raises on zero pivot)."""
    d = np.array(d, dtype=np.float64, copy=True)
    n = d.shape[0]
    for k in range(n):
        if d[k, k] == 0.0:
            raise ZeroDivisionError(f"zero pivot at {k}")
        d[k + 1:, k] /= d[k, k]
        d[k + 1:, k + 1:] -= np.outer(d[k + 1:, k], d[k, k + 1:])
    l = np.tril(d, -1) + np.eye(n)
    u = np.triu(d)
    return l, u


def csc_from(dense):
    return CSCMatrix.from_dense(np.asarray(dense, dtype=np.float64))


def primitive_partition(sym, max_size=24, relax=0):
    """The partition composed from the primitives at an explicit
    amalgamation cap (``relax`` ≤ 1 leaves the fundamental supernodes)."""
    from repro.symbolic import find_supernodes, relax_supernodes, \
        split_supernodes

    return split_supernodes(relax_supernodes(sym, find_supernodes(sym), relax),
                            max_size=max_size)
