"""Unit tests for the serial GESP driver (the Figure-1 pipeline)."""

import numpy as np
import pytest

from repro.driver import GESPOptions, GESPSolver, gesp_solve
from repro.sparse import CSCMatrix

from conftest import random_nonsingular_dense

EPS = float(np.finfo(np.float64).eps)


@pytest.fixture
def hard_matrix(rng):
    """Zero diagonal, hidden transversal — fails without pivoting."""
    return random_nonsingular_dense(rng, 30, zero_diag=True)


def test_solves_accurately(rng, hard_matrix):
    a = CSCMatrix.from_dense(hard_matrix)
    b = hard_matrix @ np.ones(30)
    rep = GESPSolver(a).solve(b)
    assert rep.berr <= 4 * EPS
    assert np.abs(rep.x - 1.0).max() < 1e-6


def test_gesp_solve_convenience(rng, hard_matrix):
    a = CSCMatrix.from_dense(hard_matrix)
    b = hard_matrix @ np.ones(30)
    rep = gesp_solve(a, b)
    assert np.abs(rep.x - 1.0).max() < 1e-6


def test_no_pivoting_fails_on_zero_diagonal(hard_matrix):
    a = CSCMatrix.from_dense(hard_matrix)
    with pytest.raises(ZeroDivisionError):
        GESPSolver(a, GESPOptions.no_pivoting()).solve(
            hard_matrix @ np.ones(30))


def test_solve_without_refinement(rng):
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    rep = GESPSolver(a).solve(d @ np.ones(20), refine=False)
    assert rep.refine_steps == 0
    assert np.abs(rep.x - 1.0).max() < 1e-6


def test_repeated_solves_reuse_factors(rng):
    d = random_nonsingular_dense(rng, 25)
    a = CSCMatrix.from_dense(d)
    s = GESPSolver(a)
    for _ in range(3):
        x_true = np.random.default_rng(0).standard_normal(25)
        rep = s.solve(d @ x_true)
        assert np.abs(rep.x - x_true).max() < 1e-5


def test_solve_transpose(rng):
    d = random_nonsingular_dense(rng, 20)
    a = CSCMatrix.from_dense(d)
    s = GESPSolver(a)
    x_true = np.ones(20)
    xt = s.solve_transpose(d.T @ x_true)
    assert np.abs(xt - 1.0).max() < 1e-5


def test_forward_error_estimate(rng):
    d = random_nonsingular_dense(rng, 20)
    a = CSCMatrix.from_dense(d)
    s = GESPSolver(a)
    rep = s.solve(d @ np.ones(20), forward_error=True)
    truth = np.abs(rep.x - 1.0).max() / np.abs(rep.x).max()
    assert rep.forward_error_estimate is not None
    assert rep.forward_error_estimate >= 0.3 * truth


def test_timings_recorded(rng):
    d = random_nonsingular_dense(rng, 15)
    s = GESPSolver(CSCMatrix.from_dense(d))
    for phase in ("equil", "rowperm", "colperm", "symbolic", "factor"):
        assert s.tracer.root.find(phase).duration >= 0.0


def test_pivot_growth_reported(rng):
    d = random_nonsingular_dense(rng, 15)
    s = GESPSolver(CSCMatrix.from_dense(d))
    assert s.pivot_growth() > 0.0


def test_rejects_rectangular():
    with pytest.raises(ValueError):
        GESPSolver(CSCMatrix.empty(2, 3))


@pytest.mark.parametrize("col_perm", ["mmd_ata", "mmd_at_plus_a", "natural"])
def test_all_column_orderings(rng, col_perm):
    d = random_nonsingular_dense(rng, 25, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    rep = GESPSolver(a, GESPOptions(col_perm=col_perm)).solve(d @ np.ones(25))
    assert np.abs(rep.x - 1.0).max() < 1e-6


@pytest.mark.parametrize("row_perm", ["mc64_product", "mc64_bottleneck",
                                      "mc64_cardinality"])
def test_all_row_permutations(rng, row_perm):
    d = random_nonsingular_dense(rng, 25, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    opts = GESPOptions(row_perm=row_perm,
                       scale_diagonal=(row_perm == "mc64_product"))
    rep = GESPSolver(a, opts).solve(d @ np.ones(25))
    assert np.abs(rep.x - 1.0).max() < 1e-6


def test_scale_diagonal_off(rng):
    d = random_nonsingular_dense(rng, 20, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    s = GESPSolver(a, GESPOptions(scale_diagonal=False))
    assert np.allclose(s.dr, 1.0) or s.options.equilibrate  # only equil scales
    rep = s.solve(d @ np.ones(20))
    assert np.abs(rep.x - 1.0).max() < 1e-6


def test_aggressive_pivot_replacement_path(rng):
    # craft a matrix that triggers a tiny pivot even after MC64
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    opts = GESPOptions(aggressive_pivot_replacement=True, tiny_pivot_scale=0.2)
    a = CSCMatrix.from_dense(d)
    s = GESPSolver(a, opts)
    rep = s.solve(d @ np.ones(20))
    assert np.abs(rep.x - 1.0).max() < 1e-5
    if s.factors.n_tiny_pivots:
        assert s._smw is not None


def test_symmetrized_symbolic_option(rng):
    d = random_nonsingular_dense(rng, 20, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    rep = GESPSolver(a, GESPOptions(symbolic_method="symmetrized")).solve(
        d @ np.ones(20))
    assert np.abs(rep.x - 1.0).max() < 1e-6


def test_extra_precision_option(rng):
    d = random_nonsingular_dense(rng, 20)
    a = CSCMatrix.from_dense(d)
    rep = GESPSolver(a, GESPOptions(extra_precision_residual=True)).solve(
        d @ np.ones(20))
    assert rep.berr <= 4 * EPS


def test_options_validation():
    with pytest.raises(ValueError):
        GESPOptions(row_perm="nope").validate()
    # the four retired orderings are unknown names like any other
    for col_perm in ("nope", "amd_ata", "amd_at_plus_a", "colamd", "nd_ata"):
        with pytest.raises(ValueError,
                           match="mmd_ata, mmd_at_plus_a, natural"):
            GESPOptions(col_perm=col_perm).validate()
    with pytest.raises(ValueError):
        GESPOptions(symbolic_method="nope").validate()
    with pytest.raises(ValueError):
        GESPOptions(tiny_pivot_scale=-1.0).validate()
    with pytest.raises(ValueError):
        GESPOptions(diag_block_pivoting=2.0).validate()
    assert GESPOptions.paper_defaults().validate() is not None


# --------------------------------------------------------------------- #
# step (2)'s graph: each engine orders the one it pays for
# --------------------------------------------------------------------- #

def test_each_engine_resolves_its_own_ordering():
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.ordering import COL_PERMS

    default = GESPOptions()
    assert default.col_perm is None
    assert GESPSolver.resolve_col_perm(default) == "mmd_at_plus_a"
    assert DistributedGESPSolver.resolve_col_perm(default) == "mmd_ata"
    # the §2 configuration keeps the paper's Pc on either engine
    for opts in (GESPOptions.paper_defaults(), GESPOptions.no_pivoting()):
        assert opts.col_perm == "mmd_ata"
        assert GESPSolver.resolve_col_perm(opts) == "mmd_ata"
    for col_perm in COL_PERMS:            # an explicit value wins on both
        opts = GESPOptions(col_perm=col_perm)
        assert GESPSolver.resolve_col_perm(opts) == col_perm
        assert DistributedGESPSolver.resolve_col_perm(opts) == col_perm


def test_the_default_orders_the_engines_graph():
    """On cfd06 the serial default orders as an explicit Aᵀ+A does and
    the distributed default as an explicit AᵀA does (etree postorder
    composed in); the fills differ, and an explicit value moves either
    engine to the other graph."""
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.matrices import matrix_by_name

    a = matrix_by_name("cfd06").build()

    def serial(options=None, **kw):
        return GESPSolver(a, options or GESPOptions(**kw), cache=False)

    def dist(**kw):
        return DistributedGESPSolver(a, nprocs=4, options=GESPOptions(**kw),
                                     cache=False)

    s_plus, s_ata = serial(), serial(col_perm="mmd_ata")
    d_ata, d_plus = dist(), dist(col_perm="mmd_at_plus_a")
    assert np.array_equal(s_plus.perm_c,
                          serial(col_perm="mmd_at_plus_a").perm_c)
    assert np.array_equal(d_ata.perm_c, dist(col_perm="mmd_ata").perm_c)
    assert np.array_equal(serial(GESPOptions.paper_defaults()).perm_c,
                          s_ata.perm_c)
    # the postorder is an equivalent reordering: fill follows the graph
    assert d_ata.symbolic.nnz_lu == s_ata.symbolic.nnz_lu
    assert d_plus.symbolic.nnz_lu == s_plus.symbolic.nnz_lu
    assert s_plus.symbolic.nnz_lu < s_ata.symbolic.nnz_lu


def test_plan_keys_carry_the_resolved_ordering():
    """``None`` and the value it resolves to are one cache entry; the
    other graph is another."""
    from repro.dmem import best_grid
    from repro.driver.factcache import dist_plan_key, serial_plan_key

    def dist_key(opts):
        return dist_plan_key("fp", opts, best_grid(4), 24, 0.0, True)

    default = GESPOptions()
    assert serial_plan_key("fp", default) == \
        serial_plan_key("fp", GESPOptions(col_perm="mmd_at_plus_a")) != \
        serial_plan_key("fp", GESPOptions(col_perm="mmd_ata"))
    assert dist_key(default) == dist_key(GESPOptions(col_perm="mmd_ata")) \
        != dist_key(GESPOptions(col_perm="mmd_at_plus_a"))
