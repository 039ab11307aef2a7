"""Integration tests for the §5 extensions wired through the driver and
the switch-to-dense partition post-processing."""

import numpy as np
import pytest

from repro.driver import GESPOptions, GESPSolver
from repro.factor import supernodal_factor
from repro.sparse import CSCMatrix
from repro.symbolic import (
    block_partition,
    find_supernodes,
    merge_dense_tail,
    symbolic_lu_symmetrized,
)

from conftest import laplace2d_dense, random_nonsingular_dense

EPS = float(np.finfo(np.float64).eps)


# ------------------------- switch-to-dense ---------------------------- #

def test_merge_dense_tail_on_grid():
    """A 2-D grid under MMD densifies toward the end of elimination: the
    trailing supernodes merge into one dense block."""
    from repro.ordering import minimum_degree
    from repro.sparse.ops import permute_symmetric

    a = CSCMatrix.from_dense(laplace2d_dense(12))
    a = permute_symmetric(a, minimum_degree(a))
    sym = symbolic_lu_symmetrized(a)
    part = find_supernodes(sym)
    merged = merge_dense_tail(sym, part, density_threshold=0.6)
    assert merged.nsuper <= part.nsuper
    assert merged.n == part.n
    # the tail became one supernode of nontrivial width
    assert merged.xsup[-1] - merged.xsup[-2] >= part.xsup[-1] - part.xsup[-2]


def test_merge_dense_tail_noop_when_sparse():
    # a diagonal matrix: trailing triangle density is ~0 beyond one column
    sym = symbolic_lu_symmetrized(CSCMatrix.identity(20))
    part = find_supernodes(sym)
    merged = merge_dense_tail(sym, part, density_threshold=0.9)
    # only degenerate merges possible (a single trailing column is always
    # "dense"); the partition must stay essentially unchanged
    assert merged.nsuper >= part.nsuper - 1


def test_merge_dense_tail_numerics_unchanged(rng):
    d = random_nonsingular_dense(rng, 40, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = merge_dense_tail(sym, find_supernodes(sym), density_threshold=0.5)
    sf = supernodal_factor(a, sym=sym, part=part)
    x = rng.standard_normal(40)
    assert np.allclose(sf.solve(d @ x), x, atol=1e-6)


def test_merge_dense_tail_validates_threshold():
    sym = symbolic_lu_symmetrized(CSCMatrix.identity(4))
    part = find_supernodes(sym)
    with pytest.raises(ValueError):
        merge_dense_tail(sym, part, density_threshold=0.0)


# ---------------- driver-level diagonal-block pivoting ----------------- #

def test_driver_block_pivoting_solves(rng):
    d = random_nonsingular_dense(rng, 35, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    opts = GESPOptions(diag_block_pivoting=1.0)
    rep = GESPSolver(a, opts).solve(d @ np.ones(35))
    assert rep.berr <= 4 * EPS
    assert np.abs(rep.x - 1.0).max() < 1e-7


def test_driver_block_pivoting_threshold_variant(rng):
    d = random_nonsingular_dense(rng, 30, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    opts = GESPOptions(diag_block_pivoting=0.5)
    rep = GESPSolver(a, opts).solve(d @ np.ones(30))
    assert rep.berr <= 4 * EPS


def test_driver_block_pivoting_excludes_aggressive():
    with pytest.raises(ValueError):
        GESPOptions(diag_block_pivoting=1.0,
                    aggressive_pivot_replacement=True).validate()


def test_driver_block_pivoting_transpose_unsupported(rng):
    d = random_nonsingular_dense(rng, 15, hidden_perm=False)
    s = GESPSolver(CSCMatrix.from_dense(d),
                   GESPOptions(diag_block_pivoting=1.0))
    with pytest.raises(NotImplementedError):
        s.solve_transpose(np.ones(15))
    with pytest.raises(NotImplementedError):
        s.pivot_growth()


def test_block_pivoting_rescues_growth_prone_matrix():
    """A matrix engineered so static pivoting suffers large growth: the
    mixed strategy keeps the factorization clean (the §5 'can further
    enhance stability').  The strategies differ before refinement, so
    that is where they are compared: refinement brings both to ε, and
    their final berrs differ by rounding alone."""
    from repro.solve.refine import STAGNATION_SLACK

    n = 40
    d = np.eye(n)
    for i in range(n):
        d[i + 1:, i] = -1.0
    d[:, -1] = 1.0
    rng = np.random.default_rng(1)
    d += 1e-12 * rng.standard_normal((n, n))
    a = CSCMatrix.from_dense(d)
    b = d @ np.ones(n)
    # static pivoting: growth 2^(n-1) ruins the raw solve; refinement
    # struggles (though may still limp through)
    base = GESPSolver(a, GESPOptions(row_perm="none", equilibrate=False,
                                     col_perm="natural"))
    rep_base = base.solve(b)
    # block pivoting (single supernode ≈ full partial pivoting): clean
    piv = GESPSolver(a, GESPOptions(row_perm="none", equilibrate=False,
                                    col_perm="natural",
                                    diag_block_pivoting=1.0))
    rep_piv = piv.solve(b)
    assert rep_piv.berr_history[0] <= 1e-3 * rep_base.berr_history[0]
    assert np.abs(rep_piv.x - 1.0).max() < 1e-8
    # certified: berr ≤ ε, or a stagnation stop within the slack of it
    assert rep_piv.converged and rep_piv.berr <= STAGNATION_SLACK * EPS


def test_distributed_dense_tail(rng):
    """Switch-to-dense composed with the distributed pipeline."""
    import numpy as np
    from repro.driver.dist_driver import DistributedGESPSolver

    d = random_nonsingular_dense(rng, 40, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    s = DistributedGESPSolver(a, nprocs=4, dense_tail_threshold=0.5)
    run = s.solve_distributed(d @ np.ones(40))
    assert np.abs(run.x - 1.0).max() < 1e-6


def test_distributed_rejects_complex(rng):
    import numpy as np
    from repro.dmem import best_grid, distribute_matrix
    from repro.symbolic import block_partition, symbolic_lu_symmetrized

    d = random_nonsingular_dense(rng, 12, hidden_perm=False).astype(complex)
    d[0, 1] += 1j
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=4)
    with pytest.raises(TypeError):
        distribute_matrix(a, sym, part, best_grid(2))
