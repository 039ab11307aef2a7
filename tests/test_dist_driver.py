"""Integration tests for the end-to-end distributed GESP solver."""

import numpy as np
import pytest

from repro.driver import GESPOptions, GESPSolver
from repro.driver.dist_driver import DistributedGESPSolver
from repro.dmem import MachineModel, ProcessGrid, distribute_matrix
from repro.matrices import matrix_by_name
from repro.pdgstrf import pdgstrf
from repro.pdgstrs import pdgstrs
from repro.sparse import CSCMatrix
from repro.sparse.ops import norm1
from repro.symbolic import block_partition, build_block_dag

from conftest import laplace2d_dense, random_nonsingular_dense, \
    primitive_partition

EPS = float(np.finfo(np.float64).eps)


def test_end_to_end_accuracy(rng):
    d = random_nonsingular_dense(rng, 50, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    s = DistributedGESPSolver(a, nprocs=6)
    run = s.solve_distributed(d @ np.ones(50))
    assert np.abs(run.x - 1.0).max() < 1e-6


def test_refined_solve(rng):
    d = random_nonsingular_dense(rng, 40, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    s = DistributedGESPSolver(a, nprocs=4)
    rep = s.solve(d @ np.ones(40))
    assert rep.berr <= 4 * EPS
    assert np.abs(rep.x - 1.0).max() < 1e-8


def test_solve_without_refinement(rng):
    d = random_nonsingular_dense(rng, 30, hidden_perm=False)
    s = DistributedGESPSolver(CSCMatrix.from_dense(d), nprocs=4)
    rep = s.solve(d @ np.ones(30), refine=False)
    assert rep.refine_steps == 0


def test_matches_serial_gesp_solution(rng):
    d = random_nonsingular_dense(rng, 45, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    b = d @ np.arange(1.0, 46.0)
    serial = GESPSolver(a, GESPOptions(symbolic_method="symmetrized")).solve(b)
    dist = DistributedGESPSolver(a, nprocs=9).solve(b)
    assert np.allclose(serial.x, dist.x, atol=1e-6)


def test_explicit_grid(rng):
    d = random_nonsingular_dense(rng, 30, hidden_perm=False)
    s = DistributedGESPSolver(CSCMatrix.from_dense(d),
                              grid=ProcessGrid(3, 2))
    assert s.grid.size == 6
    run = s.solve_distributed(d @ np.ones(30))
    assert np.abs(run.x - 1.0).max() < 1e-6


def test_factorize_idempotent_entry(rng):
    d = random_nonsingular_dense(rng, 25, hidden_perm=False)
    s = DistributedGESPSolver(CSCMatrix.from_dense(d), nprocs=4)
    run = s.factorize()
    # solve_distributed must not re-factorize
    assert s.factor_run is run
    out = s.solve_distributed(d @ np.ones(25))
    assert np.abs(out.x - 1.0).max() < 1e-6


def test_second_factorize_does_not_factor_the_factors():
    """pdgstrf works in place: a repeat ``factorize()`` must return the
    resident run, not eliminate L\\U as if it were A (cfd03 on a 2x2
    grid came back off by 429, silently), nor grow an untraced solver's
    build tracer by one ``factor`` tree per call."""
    from repro.matrices import matrix_by_name

    a = matrix_by_name("cfd03").build()
    b = a @ np.ones(a.ncols)
    s = DistributedGESPSolver(a, nprocs=4, cache=False)
    run = s.factorize()
    x1 = s.solve_distributed(b).x
    spans = sum(1 for _ in s.tracer.root.walk())
    again = s.factorize()
    x2 = s.solve_distributed(b).x
    assert x1.tobytes() == x2.tobytes()
    assert np.abs(x2 - 1.0).max() < 1e-10
    assert again is run
    assert sum(1 for _ in s.tracer.root.walk()) == spans


def test_refactor_then_factorize_refactors():
    from repro.matrices import matrix_by_name

    a = matrix_by_name("cfd03").build()
    a2 = CSCMatrix(a.nrows, a.ncols, a.colptr, a.rowind, 1.5 * a.nzval)
    b = a @ np.ones(a.ncols)
    s = DistributedGESPSolver(a, nprocs=4, cache=False)
    run = s.factorize()
    s.refactor(a2)
    assert s.factor_run is None
    assert s.factorize() is not run
    assert np.abs(s.solve_distributed(b).x - 1.0 / 1.5).max() < 1e-10


def test_block_size_respected(rng):
    d = laplace2d_dense(8)
    s = DistributedGESPSolver(CSCMatrix.from_dense(d), nprocs=4,
                              max_block_size=3)
    assert np.diff(s.part.xsup).max() <= 3


def test_relaxation_increases_mean_supernode():
    s = DistributedGESPSolver(CSCMatrix.from_dense(laplace2d_dense(10)),
                              nprocs=4)
    at, sym = s.a_factored, s.symbolic
    parts = [primitive_partition(sym, relax=relax) for relax in (0, 12)]
    assert parts[1].mean_size() >= parts[0].mean_size()
    # both still solve correctly
    for part in parts:
        dist = distribute_matrix(at, sym, part, s.grid)
        pdgstrf(dist, build_block_dag(sym, part), anorm=norm1(at))
        run = pdgstrs(dist, at @ np.ones(at.ncols))
        assert np.abs(run.x - 1.0).max() < 1e-7


def test_both_drivers_partition_by_the_one_rule():
    a = matrix_by_name("cfd03").build()
    serial = GESPSolver(a, cache=False)
    assert np.array_equal(serial._block_plan.part.xsup,
                          block_partition(serial.symbolic).xsup)
    for max_block, tail in ((24, 0.0), (8, 0.3)):
        dist = DistributedGESPSolver(a, nprocs=4, cache=False,
                                     max_block_size=max_block,
                                     dense_tail_threshold=tail)
        assert np.array_equal(
            dist.part.xsup, block_partition(dist.symbolic, max_block,
                                            tail).xsup)


def test_relax_size_is_not_an_option():
    a = CSCMatrix.from_dense(laplace2d_dense(4))
    with pytest.raises(TypeError):
        DistributedGESPSolver(a, relax_size=8)


def test_postorder_composition_preserves_solution(rng):
    # perm_c includes the postorder; the transforms must still invert
    d = random_nonsingular_dense(rng, 35, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    s = DistributedGESPSolver(a, nprocs=4)
    x_true = rng.standard_normal(35)
    run = s.solve_distributed(d @ x_true)
    assert np.abs(run.x - x_true).max() < 1e-5


def test_machine_model_affects_elapsed(rng):
    d = laplace2d_dense(8)
    a = CSCMatrix.from_dense(d)
    slow = MachineModel(alpha=1e-3, beta=1e-6)
    fast = MachineModel.fast_network()
    t_slow = DistributedGESPSolver(a, nprocs=4, machine=slow).factorize().elapsed
    t_fast = DistributedGESPSolver(a, nprocs=4, machine=fast).factorize().elapsed
    assert t_slow > t_fast


def test_rejects_rectangular():
    with pytest.raises(ValueError):
        DistributedGESPSolver(CSCMatrix.empty(2, 3))
