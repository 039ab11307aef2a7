"""A warm distributed op runs its layout's static sweep.

Under static pivoting no event of a rank program depends on a value, so
the simulator executor simulates the first reliable run of a job on a
layout, keeps its stats and clock, and does every later one as the
job's static sweep: one supernode-major pass over the numeric work, no
generators and no messages (docs/EXECUTOR.md).  The contract:

- a swept op is bit for bit a fresh simulation — stores, ``x``,
  returns, elapsed, every ``RankStats`` field and the ``kernel.*``
  counts;
- a fault plan, an armed receive timeout and the process executor
  always simulate, and store nothing;
- a sweep whose flops differ from its recording raises a structured
  error when it is built;
- a new pattern is a new layout, recorded afresh;
- a factorization that raises leaves the layout holding the resident
  values, so a retry factors A.
"""

import gc
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.dmem import (
    DropRule,
    FaultPlan,
    ProcessGrid,
    ReplayDivergenceError,
)
from repro.driver.dist_driver import DistributedGESPSolver
from repro.matrices.testbed import matrix_by_name
from repro.obs import Tracer
from repro.pdgstrs import pdgstrs
from repro.sparse import CSCMatrix
from repro.workload import ScenarioSpec, generate

from conftest import random_nonsingular_dense


def _replayed(tracer):
    """How many ``dmem/simulate`` spans were swept ops."""
    return sum(bool(s.attrs.get("replayed"))
               for s in tracer.root.find_all("dmem/simulate"))


def _same_run(got, want, xsup=None):
    assert got.elapsed == want.elapsed
    assert got.stats == want.stats
    if isinstance(got.returns, np.ndarray):
        # a swept substitution returns its solution buffer: every rank's
        # x(K), each supernode once, is that buffer's slice
        solved = [(k, xk) for parts in want.returns for k, xk in parts.items()]
        assert sorted(k for k, _ in solved) == list(range(len(xsup) - 1))
        assert all(np.array_equal(got.returns[xsup[k]:xsup[k + 1]], xk)
                   for k, xk in solved)
        return
    assert len(got.returns) == len(want.returns)
    for g, w in zip(got.returns, want.returns):
        if isinstance(w, dict):
            assert g.keys() == w.keys()
            assert all(np.array_equal(g[k], w[k]) for k in w)
        else:
            assert g == w


def _counted(call):
    """``call()`` and the calling thread's kernel counts it made."""
    st, snap = kernels.stats(), kernels.stats().snapshot()
    out = call()
    return out, {f.name: getattr(st, f.name) - getattr(snap, f.name)
                 for f in fields(st)}


def _swept_is_fresh(name, grid, pipeline, edag, nrhs, tail, iters=4):
    """Every op of a drifting stream on a warm solver (the first records,
    the rest sweep) against a solver simulating afresh each time."""
    stream = generate(ScenarioSpec(scenario="newton_drift", matrix=name,
                                   newton_iters=iters, newton_drift=0.01,
                                   seed=2))
    kw = dict(grid=ProcessGrid(*grid), pipeline=pipeline, edag_prune=edag,
              dense_tail_threshold=tail, executor="sim", cache=False)
    tracer = Tracer()
    warm = DistributedGESPSolver(stream[0].matrix, tracer=tracer, **kw)
    fresh = DistributedGESPSolver(stream[0].matrix, **kw)
    rng = np.random.default_rng(4)
    for item in stream:
        b = item.b if nrhs is None else rng.standard_normal((item.b.size,
                                                             nrhs))
        for s in (warm, fresh):
            s.refactor(item.matrix)
        fresh.dist.recordings.clear()
        got, got_counts = _counted(lambda: warm.factorize().sim)
        want, want_counts = _counted(lambda: fresh.factorize().sim)
        _same_run(got, want)
        assert got_counts == want_counts
        for g, w in zip(warm.dist.stores, fresh.dist.stores):
            assert np.array_equal(g, w)
        fresh.dist.recordings.clear()
        got, got_counts = _counted(lambda: warm.solve_distributed(b))
        want, want_counts = _counted(lambda: fresh.solve_distributed(b))
        assert np.array_equal(got.x, want.x)
        _same_run(got.lower, want.lower, fresh.dist.part.xsup)
        _same_run(got.upper, want.upper, fresh.dist.part.xsup)
        assert got_counts == want_counts
    # the first op recorded three runs; every later one swept them
    assert len(warm.dist.recordings) == 3
    assert _replayed(tracer) == 3 * (len(stream) - 1)


# --------------------------------------------------------------------- #
# swept op ≡ fresh simulate on every op of a drifting stream
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name,grid,pipeline,edag,nrhs,tail", [
    ("cfd06", (2, 2), True, True, None, 0.0),
    ("cfd06", (1, 2), False, False, 3, 0.0),
    ("fem04", (2, 3), True, True, 3, 0.2),
    ("circuit03", (2, 3), False, True, None, 0.0),
    ("circuit03", (2, 2), True, False, 3, 0.0),
])
def test_replay_is_a_fresh_simulation(name, grid, pipeline, edag, nrhs, tail):
    _swept_is_fresh(name, grid, pipeline, edag, nrhs, tail)


_MATRICES = [("cfd01", 0.0), ("circuit03", 0.0), ("fem04", 0.2)]
_GRIDS = [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)]


@given(st.sampled_from(_MATRICES), st.sampled_from(_GRIDS), st.booleans(),
       st.booleans(), st.sampled_from([None, 3]))
@example(("fem04", 0.2), (1, 1), False, True, None)
@example(("cfd01", 0.0), (3, 3), True, False, 3)
@example(("circuit03", 0.0), (2, 3), False, False, 3)
@settings(max_examples=10, deadline=None)
def test_swept_op_is_a_fresh_simulation(matrix, grid, pipeline, edag, nrhs):
    """Any grid of 1, 2, 4, 6 or 9 ranks, pipeline and EDAG pruning on or
    off, one or three right-hand sides, a dense tail or none."""
    name, tail = matrix
    _swept_is_fresh(name, grid, pipeline, edag, nrhs, tail, iters=3)


def test_swept_op_publishes_the_simulated_kernel_counters():
    """A swept factorization's ``kernel.*`` counters (its
    ``factor/pdgstrf`` span) are the simulated one's on the same values."""
    a = matrix_by_name("cfd06").build()
    tracer = Tracer()
    s = DistributedGESPSolver(a, nprocs=4, cache=False, tracer=tracer)
    s.factorize()
    s.refactor(a)
    s.factorize()
    simulated, swept = (
        {k: v for k, v in span.counters.items() if k.startswith("kernel.")}
        for span in tracer.root.find_all("factor/pdgstrf"))
    assert swept == simulated and simulated["kernel.gemm_calls"] > 0
    assert _replayed(tracer) == 1


# --------------------------------------------------------------------- #
# what always simulates
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("kw", [
    dict(fault_plan=FaultPlan(seed=3, delay=0.5, delay_factor=2.0)),
    dict(executor="process", nprocs=2),
], ids=["fault_plan", "process"])
def test_bypasses_never_replay(kw):
    a = matrix_by_name("cfd01").build()
    b = a @ np.ones(a.ncols)
    tracer = Tracer()
    s = DistributedGESPSolver(a, **{"nprocs": 4, "cache": False,
                                    "tracer": tracer, **kw})
    for _ in range(2):
        s.refactor(a)
        s.factorize()
        s.solve_distributed(b)
    assert s.dist.recordings == {}
    assert _replayed(tracer) == 0


# --------------------------------------------------------------------- #
# divergence and re-recording
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("tamper", ["flops"])
def test_tampered_recording_raises_divergence(tamper):
    """The sweep is checked against its recording once, when the first
    warm op builds it: a rank whose flops differ is named."""
    a = matrix_by_name("cfd01").build()
    s = DistributedGESPSolver(a, nprocs=4, cache=False)
    s.factorize()
    (rec,) = s.dist.recordings.values()
    rec.stats[2].flops += 1.0
    s.refactor(a)
    with pytest.raises(ReplayDivergenceError) as ei:
        s.factorize()
    assert ei.value.rank == 2 and rec.run is None


def test_new_pattern_records_afresh(rng):
    d = random_nonsingular_dense(rng, 40, density=0.2, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    d[0, -1] = 0.0 if d[0, -1] else 1.0
    tracer = Tracer()
    s = DistributedGESPSolver(a, nprocs=4, cache=False, tracer=tracer)
    s.factorize()
    first = s.dist
    s.refactor(CSCMatrix.from_dense(d), fact="DOFACT")
    s.factorize()
    assert s.dist is not first and len(s.dist.recordings) == 1
    assert _replayed(tracer) == 0
    s.refactor(CSCMatrix.from_dense(d))
    s.factorize()
    assert _replayed(tracer) == 1


def test_a_built_sweep_keeps_what_it_bound_alive():
    """A sweep's bound calls hold raw addresses of stores, panels and
    buffers: with the solver and its layout dropped, the three sweeps
    still factor and solve in the arrays they bound, bit for bit a fresh
    simulation."""
    a = matrix_by_name("cfd01").build()
    b = np.random.default_rng(8).standard_normal(a.ncols)
    s = DistributedGESPSolver(a, nprocs=4, cache=False, executor="sim")
    for _ in range(2):          # the first op records, the second sweeps
        s.refactor(a)
        s.factorize()
        pdgstrs(s.dist, b, executor="sim")
    s.refactor(a)               # A's values in the stores again
    thresh = s.dist.tiny_pivot_threshold
    runs = {key[1]: rec.run for key, rec in s.dist.recordings.items()}
    stores = [weakref.ref(store) for store in s.dist.stores]
    del s
    gc.collect()
    junk = [np.full(1 << 16, np.nan) for _ in range(64)]   # reuse freed memory
    assert all(ref() is not None for ref in stores)
    n_tiny = runs[(True, True)](thresh=thresh)
    y = runs[("lower", b.shape)](b=b)
    x = runs[("upper", b.shape)](b=y)
    fresh = DistributedGESPSolver(a, nprocs=4, cache=False, executor="sim")
    assert n_tiny == fresh.factorize().sim.returns
    assert np.array_equal(x, pdgstrs(fresh.dist, b, executor="sim").x)
    assert len(junk) == 64


def test_replayed_stats_are_the_callers():
    """A swept op hands out its own copy of the recorded stats: changing a
    field or ``blocked_by_kind`` of one leaves the recording, and the
    next swept op's stats, as recorded."""
    a = matrix_by_name("cfd01").build()
    s = DistributedGESPSolver(a, nprocs=4, cache=False)
    want = s.factorize().sim.stats
    (rec,) = s.dist.recordings.values()
    s.refactor(a)
    got = s.factorize().sim.stats
    assert got == want and got[1] is not rec.stats[1]
    kind = next(iter(got[1].blocked_by_kind))
    got[0].flops += 1.0
    got[1].blocked_by_kind[kind] += 1.0
    got[1].blocked_by_kind["new"] = 1.0
    assert rec.stats == want
    s.refactor(a)
    assert s.factorize().sim.stats == want


# --------------------------------------------------------------------- #
# a failed factorization does not poison the solver
# --------------------------------------------------------------------- #

def test_failed_factorization_leaves_resident_values():
    a = matrix_by_name("cfd01").build()
    b = a @ np.ones(a.ncols)
    s = DistributedGESPSolver(a, nprocs=4, fault_plan=FaultPlan(
        drop_rules=(DropRule(tag=4 * 20 + 2, count=5),)))
    report = s.solve(b)
    assert report.failure is not None and not report.converged
    assert s.dist.recordings == {}
    s.fault_plan = None
    retry = s.solve(b)
    assert np.array_equal(retry.x, DistributedGESPSolver(a, nprocs=4)
                          .solve(b).x)
