"""Integration tests: distributed factorization vs the serial reference."""

import numpy as np
import pytest

from repro.dmem import MachineModel, best_grid, distribute_matrix
from repro.factor import supernodal_factor
from repro.pdgstrf import pdgstrf
from repro.sparse import CSCMatrix
from repro.sparse.ops import norm1
from repro.symbolic import build_block_dag, symbolic_lu_symmetrized

from conftest import laplace2d_dense, random_nonsingular_dense, \
    primitive_partition


def setup(rng_or_dense, n=40, max_block=4, relax=0):
    if isinstance(rng_or_dense, np.ndarray):
        d = rng_or_dense
    else:
        d = random_nonsingular_dense(rng_or_dense, n, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = primitive_partition(sym, max_size=max_block, relax=relax)
    dag = build_block_dag(sym, part)
    return d, a, sym, part, dag


def factors_equal(got, ref, atol=1e-10):
    for k in range(ref.part.nsuper):
        assert np.allclose(got.diag[k], ref.diag[k], atol=atol)
        assert np.allclose(got.below[k], ref.below[k], atol=atol)
        assert np.allclose(got.right[k], ref.right[k], atol=atol)


@pytest.mark.parametrize("p", [1, 2, 4, 6, 9, 16])
def test_matches_serial_across_grids(rng, p):
    d, a, sym, part, dag = setup(rng)
    ref = supernodal_factor(a, sym=sym, part=part)
    dist = distribute_matrix(a, sym, part, best_grid(p))
    pdgstrf(dist, dag, anorm=norm1(a))
    factors_equal(dist.gather_to_supernodal(), ref)


@pytest.mark.parametrize("pipeline", [False, True])
@pytest.mark.parametrize("edag", [False, True])
def test_variants_numerically_identical(rng, pipeline, edag):
    d, a, sym, part, dag = setup(rng)
    ref = supernodal_factor(a, sym=sym, part=part)
    dist = distribute_matrix(a, sym, part, best_grid(6))
    pdgstrf(dist, dag, anorm=norm1(a), pipeline=pipeline, edag_prune=edag)
    factors_equal(dist.gather_to_supernodal(), ref)


def test_edag_prunes_messages(rng):
    d, a, sym, part, dag = setup(rng, n=60, max_block=3)
    runs = {}
    for edag in (False, True):
        dist = distribute_matrix(a, sym, part, best_grid(8))
        runs[edag] = pdgstrf(dist, dag, anorm=norm1(a), edag_prune=edag)
    assert runs[True].sim.total_messages < runs[False].sim.total_messages


def test_pipelining_not_slower(rng):
    d = laplace2d_dense(9)
    _, a, sym, part, dag = setup(d, max_block=3)
    times = {}
    for pipe in (False, True):
        dist = distribute_matrix(a, sym, part, best_grid(8))
        times[pipe] = pdgstrf(dist, dag, anorm=norm1(a),
                              pipeline=pipe).elapsed
    assert times[True] <= times[False] * 1.05


def test_with_relaxed_supernodes(rng):
    d, a, sym, part, dag = setup(rng, n=50, max_block=8, relax=6)
    ref = supernodal_factor(a, sym=sym, part=part)
    dist = distribute_matrix(a, sym, part, best_grid(4))
    pdgstrf(dist, dag, anorm=norm1(a))
    factors_equal(dist.gather_to_supernodal(), ref)


def test_tiny_pivot_count_matches_serial():
    d = np.array([[1.0, 1.0, 0.0],
                  [1.0, 1.0, 1.0],
                  [0.0, 1.0, 1.0]])
    _, a, sym, part, dag = setup(d, max_block=1)
    ref = supernodal_factor(a, sym=sym, part=part, max_block_size=1)
    dist = distribute_matrix(a, sym, part, best_grid(2))
    run = pdgstrf(dist, dag, anorm=norm1(a))
    assert run.n_tiny_pivots == ref.n_tiny_pivots == 1


def test_zero_pivot_raises_when_replacement_off():
    d = np.array([[1.0, 1.0], [1.0, 1.0]])
    _, a, sym, part, dag = setup(d, max_block=1)
    dist = distribute_matrix(a, sym, part, best_grid(2))
    with pytest.raises(ZeroDivisionError):
        pdgstrf(dist, dag, anorm=norm1(a), replace_tiny_pivots=False)


def test_flops_independent_of_grid(rng):
    d, a, sym, part, dag = setup(rng)
    flops = []
    for p in (1, 4, 9):
        dist = distribute_matrix(a, sym, part, best_grid(p))
        run = pdgstrf(dist, dag, anorm=norm1(a))
        flops.append(run.sim.total_flops)
    # identical work, modulo float summation order of the per-rank counters
    assert flops[0] == pytest.approx(flops[1], rel=1e-12)
    assert flops[0] == pytest.approx(flops[2], rel=1e-12)


def test_elapsed_decreases_with_procs_on_big_problem():
    d = laplace2d_dense(16)
    _, a, sym, part, dag = setup(d, max_block=8)
    machine = MachineModel.scaled_t3e()
    t = {}
    for p in (1, 16):
        dist = distribute_matrix(a, sym, part, best_grid(p))
        t[p] = pdgstrf(dist, dag, anorm=norm1(a), machine=machine).elapsed
    assert t[16] < t[1]


def test_solve_through_distributed_factors(rng):
    d, a, sym, part, dag = setup(rng, n=45)
    dist = distribute_matrix(a, sym, part, best_grid(6))
    pdgstrf(dist, dag, anorm=norm1(a))
    sf = dist.gather_to_supernodal()
    x = rng.standard_normal(45)
    assert np.allclose(sf.solve(d @ x), x, atol=1e-6)


def test_dense_tail_updates_select_the_entries_that_have_a_home():
    """§5's switch-to-dense merges trailing supernodes across etree
    branches; split again for the grid, some ``S_K × S_K`` entries have
    no slot in their target — on fem04 whole target blocks are missing.
    Those products are exactly zero: the schedule's batches select the
    entries that have a home (the masked update really runs), and the
    factors agree with the serial engine's.  (The per-pair scatter this
    replaced looked the missing block up and raised ``KeyError``.)"""
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.matrices import matrix_by_name

    a = matrix_by_name("fem04").build()
    ds = DistributedGESPSolver(a, nprocs=4, dense_tail_threshold=0.2,
                               cache=False)
    ds.factorize()
    dist, grid = ds.dist, ds.grid
    targets, partial = ds._schedule["updates"], 0
    for k, batches in enumerate(targets.batch):
        for rank, b in enumerate(batches):
            if b < 0:
                continue
            start, end, cut, *_, take = targets.calls[b]
            if take is None:
                continue
            # the rank's product: its L panel's rows by its U panel's columns
            pr, pc = grid.coords(rank)
            kr, kc = grid.coords(grid.owner(k, k))
            size = (dist.lpanel[grid.rank(pr, kc)][k].shape[0]
                    * dist.upanel[grid.rank(kr, pc)][k].shape[1])
            partial += take.size < size          # some entries have no home
            # one target per selected entry; the look-ahead columns'
            # entries first, each part in product order
            assert take.size == end - start
            assert 0 <= cut <= take.size
            for part in (take[:cut], take[cut:]):
                assert np.all(np.diff(part) > 0)
            assert take.min(initial=0) >= 0 and take.max(initial=0) < size
    assert partial                               # partial selections exist
    ref = supernodal_factor(ds.a_factored, sym=ds.symbolic, part=ds.part)
    factors_equal(ds.dist.gather_to_supernodal(), ref)
    rep = ds.solve(a @ np.ones(a.ncols))
    assert rep.converged


def test_cfd06_counts_and_clock_hold():
    """One cfd06 factorization on a 2×2 grid, pinned.  The ``kernel.*``
    counters count the schedule's per-block operations — a rank-panel
    call adds its blocks in bulk (docs/KERNELS.md) — and the flops,
    messages, bytes and simulated clock are the message protocol's.
    Re-recorded when the partition rule began to amalgamate small etree
    subtrees (221 → 97 supernodes)."""
    from repro import kernels
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.matrices import matrix_by_name

    a = matrix_by_name("cfd06").build()
    ds = DistributedGESPSolver(a, nprocs=4, executor="sim", cache=False)
    st = kernels.stats()
    snap = st.snapshot()
    run = ds.factorize()
    assert st.counter_delta(snap) == {
        "kernel.lu_calls": 97, "kernel.trsm_calls": 732,
        "kernel.gemm_calls": 1496, "kernel.gemm_flops": 755928,
        "kernel.lu_lapack": 88 if kernels._BLAS else 0,
        "kernel.lu_fallbacks": 0}
    assert run.sim.total_flops == 1493322
    assert (run.sim.total_messages, run.sim.total_bytes) == (948, 547760)
    assert run.elapsed == 0.0057164860187739934
