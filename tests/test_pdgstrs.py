"""Integration tests: distributed triangular solves vs serial solves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dmem import MachineModel, best_grid, distribute_matrix
from repro.dmem.distribute import _ranges
from repro.pdgstrf import pdgstrf
from repro.pdgstrs import pdgstrs, pdgstrs_lower, pdgstrs_upper
from repro.sparse import CSCMatrix
from repro.sparse.ops import norm1
from repro.symbolic import block_partition, build_block_dag, symbolic_lu_symmetrized

from conftest import laplace2d_dense, random_nonsingular_dense, \
    primitive_partition
from test_block_engine import _random_system, shapes


def factored_dist(d, p, max_block=4, relax=0):
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = primitive_partition(sym, max_size=max_block, relax=relax)
    dag = build_block_dag(sym, part)
    dist = distribute_matrix(a, sym, part, best_grid(p))
    pdgstrf(dist, dag, anorm=norm1(a))
    return dist


@pytest.mark.parametrize("p", [1, 2, 4, 6, 9])
def test_full_solve_across_grids(rng, p):
    d = random_nonsingular_dense(rng, 40, hidden_perm=False)
    dist = factored_dist(d, p)
    x_true = rng.standard_normal(40)
    run = pdgstrs(dist, d @ x_true)
    assert np.abs(run.x - x_true).max() < 1e-6


def test_lower_solve_matches_serial(rng):
    d = random_nonsingular_dense(rng, 35, hidden_perm=False)
    dist = factored_dist(d, 6)
    sf = dist.gather_to_supernodal()
    ls, us = sf.to_csc_factors()
    b = rng.standard_normal(35)
    y, _ = pdgstrs_lower(dist, b)
    ref = np.linalg.solve(ls.to_dense(), b)
    assert np.allclose(y, ref, atol=1e-8)


def test_upper_solve_matches_serial(rng):
    d = random_nonsingular_dense(rng, 35, hidden_perm=False)
    dist = factored_dist(d, 6)
    sf = dist.gather_to_supernodal()
    ls, us = sf.to_csc_factors()
    y = rng.standard_normal(35)
    x, _ = pdgstrs_upper(dist, y)
    ref = np.linalg.solve(us.to_dense(), y)
    assert np.allclose(x, ref, atol=1e-7)


def test_with_relaxed_supernodes(rng):
    d = random_nonsingular_dense(rng, 40, hidden_perm=False)
    dist = factored_dist(d, 4, max_block=8, relax=6)
    x_true = np.ones(40)
    run = pdgstrs(dist, d @ x_true)
    assert np.abs(run.x - 1.0).max() < 1e-6


def test_solve_stats_collected(rng):
    d = random_nonsingular_dense(rng, 30, hidden_perm=False)
    dist = factored_dist(d, 4)
    run = pdgstrs(dist, d @ np.ones(30))
    assert run.elapsed > 0
    assert run.total_flops > 0
    assert 0.0 < run.load_balance_factor() <= 1.0
    assert 0.0 <= run.comm_fraction() <= 1.0
    assert run.mflops() >= 0.0
    assert run.total_messages > 0  # multi-rank: some communication happened


def test_single_rank_no_messages(rng):
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    dist = factored_dist(d, 1)
    run = pdgstrs(dist, d @ np.ones(20))
    assert run.total_messages == 0
    assert np.abs(run.x - 1.0).max() < 1e-7


def test_solve_comm_dominated(rng):
    # the paper: ">95% of the solve is communication" at scale — check the
    # qualitative claim: solve comm fraction exceeds factorization's
    from repro.pdgstrf import pdgstrf as _f

    d = laplace2d_dense(12)
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=6)
    dag = build_block_dag(sym, part)
    machine = MachineModel.scaled_t3e()
    dist = distribute_matrix(a, sym, part, best_grid(16))
    frun = _f(dist, dag, anorm=norm1(a), machine=machine)
    srun = pdgstrs(dist, d @ np.ones(d.shape[0]), machine=machine)
    assert srun.comm_fraction() > frun.sim.comm_fraction() * 0.9


def test_diagonally_distributed_rhs_consistency(rng):
    # solving twice gives identical answers (deterministic simulation)
    d = random_nonsingular_dense(rng, 25, hidden_perm=False)
    dist = factored_dist(d, 6)
    b = d @ np.arange(1.0, 26.0)
    x1 = pdgstrs(dist, b).x
    x2 = pdgstrs(dist, b).x
    assert np.array_equal(x1, x2)


def test_cfd06_solve_counts_and_clock_hold():
    """One cfd06 solve on a 2×2 grid, pinned per direction: the
    simulated clock, messages, bytes and flops are Figure 9's message
    protocol, and the ``kernel.*`` counters count its per-block
    operations — however the rank program groups the arithmetic.
    Re-recorded when the partition rule began to amalgamate small etree
    subtrees (221 → 97 supernodes)."""
    from repro import kernels
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.matrices import matrix_by_name

    a = matrix_by_name("cfd06").build()
    ds = DistributedGESPSolver(a, nprocs=4, executor="sim", cache=False)
    ds.factorize()
    st = kernels.stats()
    snap = st.snapshot()
    run = ds.solve_distributed(a @ np.ones(a.ncols))
    assert st.counter_delta(snap) == {
        "kernel.lu_calls": 0, "kernel.trsm_calls": 0,
        "kernel.gemm_calls": 732, "kernel.gemm_flops": 70792,
        "kernel.lu_lapack": 0, "kernel.lu_fallbacks": 0}
    assert st.solve_flops - snap.solve_flops == 31084
    for sim in (run.lower, run.upper):
        assert (sim.total_messages, sim.total_bytes, sim.total_flops) == \
            (162, 13768, 50938)
    assert repr(run.lower.elapsed) == "0.00034203111111111127"
    assert repr(run.upper.elapsed) == "0.00036720444444444467"


# --------------------------------------------------------------------- #
# the solve maps: array passes, bit for bit the per-block loop
# --------------------------------------------------------------------- #

def golden_solve_maps(self, name):
    """``(owners, solve_start, row_panels)`` of the ``name`` blocks, by
    the per-block loop ``DistributedBlocks._solve_maps`` ran before it
    became array passes.  Frozen: do not "fix" or modernise it."""
    owners, solve_start, row_panels = {}, {}, {}
    lower, xsup = name == "lblk", self.part.xsup
    w = np.diff(xsup)
    by_row, by_col = [set() for _ in w], [set() for _ in w]
    solve_start[name], row_panels[name] = [], []
    for r, blocks in enumerate(getattr(self, name)):
        my_blocks, mod, flops, rows = {}, {}, {}, {}
        for (k, j), blk in sorted(blocks.items()):
            my_blocks.setdefault(j, []).append(
                (k, 2 * blk.size, blk.shape[lower]))
            mod[k] = mod.get(k, 0) + 1
            flops[k] = flops.get(k, 0) + 2 * blk.size
            rows.setdefault(k, []).append(j)
            by_row[k].add(r)
            by_col[j].add(r)
        solve_start[name].append([my_blocks, mod])
        ks = np.fromiter(rows, np.intp, len(rows))
        cols = [_ranges(xsup[js], w[js]) if lower else np.concatenate(
            [self.l_rows_by_block[k][j] for j in js])
            for k, js in rows.items()]
        wide = np.array([c.size for c in cols], dtype=np.intp)
        area = w[ks] * wide
        base = (np.cumsum(area) - area).tolist()
        refill, buf = None, np.zeros(area.sum() if lower else 0)
        if lower:
            f = _ranges(np.zeros_like(area), area)
            at = np.repeat(np.arange(ks.size), area)
            _, pos, stored = self.slots(
                xsup[ks][at] + f // wide[at],
                np.concatenate(cols + [xsup[:0]])[
                    (np.cumsum(wide) - wide)[at] + f % wide[at]])
            refill = (buf, pos[stored], np.flatnonzero(stored))
        row_panels[name].append((refill, {k: (
            buf[lo:lo + a].reshape(w[k], -1) if lower
            else self.upanel[r][k], c, mod[k] - 1, flops[k] - 2 * a)
            for k, c, lo, a in zip(rows, cols, base, area.tolist())}))
    contrib = [tuple(sorted(ranks)) for ranks in by_row]
    owners[name] = (contrib, [tuple(sorted(s)) for s in by_col])
    for r, start in enumerate(solve_start[name]):
        recv = {k: len(contrib[k]) for k in self.diag[r]}
        start += [recv, sum(self.grid.owner(j, j) != r for j in start[0])
                  + sum(n - (r in contrib[k]) for k, n in recv.items())]
    return owners[name], solve_start[name], row_panels[name]


def _address(x):
    return x.__array_interface__["data"][0]


def _same_array(x, y):
    return x.dtype == y.dtype and np.array_equal(x, y)


def assert_solve_maps_match_the_loop(dist):
    for name in ("lblk", "ublk"):
        owners, start, panels = golden_solve_maps(dist, name)
        assert dist.owners[name] == owners
        for got, want in zip(dist.solve_start[name], start, strict=True):
            # values and insertion order (the rank program only looks up)
            assert [list(d.items()) for d in got[:3]] == \
                [list(d.items()) for d in want[:3]]
            assert got[3] == want[3]
        for (refill, got), (ref_refill, want) in zip(
                dist.row_panels[name], panels, strict=True):
            if refill is None:
                assert ref_refill is None
            else:
                assert all(map(_same_array, refill, ref_refill))
            assert list(got) == list(want)
            for k, (panel, cols, calls, dflops) in got.items():
                p2, c2, calls2, dflops2 = want[k]
                assert _same_array(cols, c2)
                assert (calls, dflops) == (calls2, dflops2)
                if refill is None:
                    assert panel is p2          # the U panel itself
                else:                           # same slice of the buffer
                    assert panel.shape == p2.shape
                    assert _address(panel) - _address(refill[0]) == \
                        _address(p2) - _address(ref_refill[0])


def test_cfd06_solve_maps_match_the_frozen_loop():
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.matrices import matrix_by_name

    a = matrix_by_name("cfd06").build()
    assert_solve_maps_match_the_loop(
        DistributedGESPSolver(a, nprocs=4, cache=False).dist)


@given(nprocs=st.sampled_from([1, 2, 4, 6, 9]), **shapes)
@settings(max_examples=60, deadline=None)
def test_solve_maps_match_the_frozen_loop_property(nprocs, n, density, hole,
                                                   max_block, relax, seed):
    """Random patterns (zero and structurally absent diagonals), relaxed
    and split partitions, on the grids the distributed tests use."""
    a, _ = _random_system(n, density, hole, seed)
    sym = symbolic_lu_symmetrized(a)
    part = primitive_partition(sym, max_size=max_block, relax=relax)
    assert_solve_maps_match_the_loop(
        distribute_matrix(a, sym, part, best_grid(nprocs)))
