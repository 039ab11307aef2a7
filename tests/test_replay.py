"""A warm distributed op replays its layout's recorded simulation.

Under static pivoting no event of a rank program depends on a value, so
the simulator executor records the first reliable run of a job on a
layout and replays every later one (docs/EXECUTOR.md).  The contract:

- a replayed op is bit for bit a fresh simulation — stores, ``x``,
  returns, elapsed and every ``RankStats`` field;
- a fault plan, an armed receive timeout and the process executor
  always simulate, and store nothing;
- a replay that does not match its recording raises a structured error;
- a new pattern is a new layout, recorded afresh;
- a factorization that raises leaves the layout holding the resident
  values, so a retry factors A.
"""

import numpy as np
import pytest

from repro.dmem import (
    Compute,
    DeadlockError,
    DropRule,
    FaultPlan,
    ProcessGrid,
    Recv,
    ReplayDivergenceError,
    Send,
    simulate,
)
from repro.dmem.simulator import Recording, replay
from repro.driver.dist_driver import DistributedGESPSolver
from repro.matrices.testbed import matrix_by_name
from repro.obs import Tracer
from repro.sparse import CSCMatrix
from repro.workload import ScenarioSpec, generate

from conftest import random_nonsingular_dense


def _replayed(tracer):
    """How many ``dmem/simulate`` spans were replays."""
    return sum(bool(s.attrs.get("replayed"))
               for s in tracer.root.find_all("dmem/simulate"))


def _same_run(got, want):
    assert got.elapsed == want.elapsed
    assert got.stats == want.stats
    assert len(got.returns) == len(want.returns)
    for g, w in zip(got.returns, want.returns):
        if isinstance(w, dict):
            assert g.keys() == w.keys()
            assert all(np.array_equal(g[k], w[k]) for k in w)
        else:
            assert g == w


# --------------------------------------------------------------------- #
# replay ≡ fresh simulate on every op of a drifting stream
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name,grid,pipeline,edag,nrhs,tail", [
    ("cfd06", (2, 2), True, True, None, 0.0),
    ("cfd06", (1, 2), False, False, 3, 0.0),
    ("fem04", (2, 3), True, True, 3, 0.2),
    ("circuit03", (2, 3), False, True, None, 0.0),
    ("circuit03", (2, 2), True, False, 3, 0.0),
])
def test_replay_is_a_fresh_simulation(name, grid, pipeline, edag, nrhs, tail):
    stream = generate(ScenarioSpec(scenario="newton_drift", matrix=name,
                                   newton_iters=4, newton_drift=0.01,
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
        _same_run(warm.factorize().sim, fresh.factorize().sim)
        for got, want in zip(warm.dist.stores, fresh.dist.stores):
            assert np.array_equal(got, want)
        fresh.dist.recordings.clear()
        got, want = warm.solve_distributed(b), fresh.solve_distributed(b)
        assert np.array_equal(got.x, want.x)
        _same_run(got.lower, want.lower)
        _same_run(got.upper, want.upper)
    # the first op recorded three runs; every later one replayed them
    assert len(warm.dist.recordings) == 3
    assert _replayed(tracer) == 3 * (len(stream) - 1)


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

@pytest.mark.parametrize("tamper", ["flops", "receive"])
def test_tampered_recording_raises_divergence(tamper):
    a = matrix_by_name("cfd01").build()
    s = DistributedGESPSolver(a, nprocs=4, cache=False)
    s.factorize()
    (rec,) = s.dist.recordings.values()
    if tamper == "flops":
        rec.stats[2].flops += 1.0
    else:
        rec.received[2].pop()
    s.refactor(a)
    with pytest.raises(ReplayDivergenceError) as ei:
        s.factorize()
    assert ei.value.rank == 2


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


def test_replay_checks_what_the_simulator_checks():
    def ping(dest=1, op=None):
        yield Compute(flops=10.0)
        yield op or Send(dest=dest, tag=3, payload=None, nbytes=8)

    def pong(tag=3):
        m = yield Recv(source=0, tag=tag)
        return m.payload

    rec = Recording()
    want = simulate([ping(), pong()], recording=rec)
    got = replay([ping(), pong()], rec)
    assert (got.stats, got.elapsed) == (want.stats, want.elapsed)
    assert got.stats[0] is not rec.stats[0]
    with pytest.raises(ValueError, match="invalid rank"):
        replay([ping(dest=5), pong()], rec)
    with pytest.raises(TypeError, match="unknown op"):
        replay([ping(op="nonsense"), pong()], rec)
    with pytest.raises(ReplayDivergenceError, match="tag=4"):
        replay([ping(), pong(tag=4)], rec)
    with pytest.raises(DeadlockError, match="stalled"):
        replay([pong(), pong()], Recording([[(1, 0)], [(0, 0)]],
                                           rec.stats, rec.elapsed))


def test_replayed_stats_are_the_callers():
    """A replay hands out its own copy of the recorded stats: changing a
    field or ``blocked_by_kind`` of one leaves the recording, and the
    next replay's stats, as recorded."""
    def ping():
        yield Compute(flops=10.0)
        yield Send(dest=1, tag=3, payload=None, nbytes=8)

    def pong():
        yield Recv(source=0, tag=3)

    rec = Recording()
    want = simulate([ping(), pong()], recording=rec)
    assert want.stats[1].blocked_by_kind      # pong waited on tag 3
    got = replay([ping(), pong()], rec)
    got.stats[0].flops += 1.0
    got.stats[1].blocked_by_kind[3] += 1.0
    got.stats[1].blocked_by_kind["new"] = 1.0
    assert rec.stats == want.stats
    assert replay([ping(), pong()], rec).stats == want.stats


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
