"""Remaining coverage: machine model details, run-object APIs, stats."""

import numpy as np
import pytest

from repro.dmem import MachineModel, best_grid, distribute_matrix
from repro.driver.dist_driver import DistributedGESPSolver
from repro.pdgstrf import pdgstrf
from repro.pdgstrs import pdgstrs
from repro.sparse import CSCMatrix
from repro.sparse.ops import norm1
from repro.symbolic import block_partition, build_block_dag, symbolic_lu_symmetrized

from conftest import laplace2d_dense, random_nonsingular_dense


def test_machine_scaled_t3e_preserves_ratio():
    base = MachineModel()
    scaled = MachineModel.scaled_t3e()
    # latency and bandwidth shrink together; compute rate unchanged
    assert scaled.alpha < base.alpha
    assert scaled.beta < base.beta
    assert scaled.peak_flop_rate == base.peak_flop_rate


def test_machine_fast_network_zero_comm():
    m = MachineModel.fast_network()
    assert m.transfer_time(10_000) == 0.0
    assert m.send_overhead == 0.0


def test_machine_rate_monotone_in_width():
    m = MachineModel()
    rates = [m.rate(w) for w in (1, 2, 8, 32, 128)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert rates[-1] < m.peak_flop_rate


def test_factorization_run_api(rng):
    d = random_nonsingular_dense(rng, 30, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=4)
    dag = build_block_dag(sym, part)
    dist = distribute_matrix(a, sym, part, best_grid(4))
    run = pdgstrf(dist, dag, anorm=norm1(a))
    assert run.elapsed > 0
    assert run.mflops() > 0
    assert run.tiny_pivot_threshold > 0
    assert run.dist is dist


def test_blocked_by_kind_populated(rng):
    d = laplace2d_dense(8)
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=3)
    dag = build_block_dag(sym, part)
    dist = distribute_matrix(a, sym, part, best_grid(4))
    run = pdgstrf(dist, dag, anorm=norm1(a))
    total_by_kind = 0.0
    total_blocked = 0.0
    for st in run.sim.stats:
        total_by_kind += sum(st.blocked_by_kind.values())
        total_blocked += st.blocked_time
    assert total_by_kind == pytest.approx(total_blocked)


def test_solve_run_stats_shapes(rng):
    d = random_nonsingular_dense(rng, 25, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    s = DistributedGESPSolver(a, nprocs=4)
    run = s.solve_distributed(d @ np.ones(25))
    assert len(run.lower.stats) == 4
    assert len(run.upper.stats) == 4
    assert run.elapsed == run.lower.elapsed + run.upper.elapsed
    assert run.total_flops == run.lower.total_flops + run.upper.total_flops


def test_mc64result_apply_roundtrip(rng):
    from repro.scaling import mc64

    d = random_nonsingular_dense(rng, 12, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    res = mc64(a, job="product", scale=True)
    b = res.apply(a)
    # perm_r and rowof are mutually inverse views of the matching
    for j in range(12):
        assert res.perm_r[res.rowof[j]] == j


def test_equilibration_result_apply(rng):
    from repro.scaling import equilibrate

    d = random_nonsingular_dense(rng, 10) * np.exp(
        np.random.default_rng(0).uniform(-6, 6, (10, 10)))
    a = CSCMatrix.from_dense(d)
    eq = equilibrate(a)
    direct = eq.apply(a).to_dense()
    manual = np.diag(eq.dr) @ d @ np.diag(eq.dc)
    assert np.allclose(direct, manual)


def test_symbolic_lu_dataclass_patterns(rng):
    from repro.symbolic import symbolic_lu_unsymmetric

    d = random_nonsingular_dense(rng, 10, hidden_perm=False)
    sym = symbolic_lu_unsymmetric(CSCMatrix.from_dense(d))
    lp = sym.l_pattern_dense()
    up = sym.u_pattern_dense()
    assert lp.shape == (10, 10) and up.shape == (10, 10)
    assert np.all(np.diag(lp)) and np.all(np.diag(up))
    # strictly upper part of L pattern is empty, and vice versa
    assert not np.any(np.triu(lp, 1))
    assert not np.any(np.tril(up, -1))


def test_supernodal_factors_to_csc_round_trip(rng):
    from repro.factor import supernodal_factor

    d = random_nonsingular_dense(rng, 25, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    sf = supernodal_factor(a, max_block_size=4)
    l, u = sf.to_csc_factors()
    assert l.has_sorted_indices()
    assert u.has_sorted_indices()
    assert np.allclose(np.diag(l.to_dense()), 1.0)


def test_testbed_matrix_build_kwargs_hashable():
    from repro.matrices import matrix_by_name

    tm = matrix_by_name("aniso01")
    assert hash(tm)  # frozen dataclass with tuple-encoded kwargs
    a = tm.build()
    assert a.ncols == 343


def test_distributed_solver_machine_used_in_solve(rng):
    d = laplace2d_dense(6)
    a = CSCMatrix.from_dense(d)
    slow = MachineModel(alpha=1e-3, beta=1e-6)
    fast = MachineModel.fast_network()
    t_slow = DistributedGESPSolver(a, nprocs=4, machine=slow) \
        .solve_distributed(d @ np.ones(36)).elapsed
    t_fast = DistributedGESPSolver(a, nprocs=4, machine=fast) \
        .solve_distributed(d @ np.ones(36)).elapsed
    assert t_slow > t_fast


def test_condest_real(rng):
    from repro.driver import GESPSolver

    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    est = GESPSolver(a).condest()
    truth = np.linalg.norm(d, 1) * np.linalg.norm(np.linalg.inv(d), 1)
    assert est <= truth * 1.1
    assert est >= truth / 20.0
