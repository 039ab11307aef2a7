"""Fault injection in the simulated machine: determinism + diagnosis.

Three contracts under test:

1. every fault decision is a pure function of (plan seed, event
   identity), so a fault scenario is bit-reproducible run after run;
2. injected message loss surfaces as a structured, attributable
   ``CommTimeoutError`` (or a failed ``SolveReport`` at the driver
   level), never a hang or a bare deadlock;
3. faults the protocol can absorb (duplicates, delays, slowdowns)
   change *timing only* — the numerics stay bit-identical.
"""

import numpy as np
import pytest

from repro.dmem import (
    CommTimeoutError,
    DeadlockError,
    DropRule,
    FaultPlan,
    MachineModel,
    Recv,
    best_grid,
    distribute_matrix,
    simulate,
)
from repro.driver.dist_driver import DistributedGESPSolver
from repro.driver.options import GESPOptions
from repro.pdgstrf import pdgstrf
from repro.pdgstrs import pdgstrs
from repro.recovery import FailureKind
from repro.sparse import CSCMatrix
from repro.sparse.ops import norm1
from repro.symbolic import build_block_dag, symbolic_lu_symmetrized

from conftest import random_nonsingular_dense, primitive_partition


def build_dist(d, p, max_block=4):
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = primitive_partition(sym, max_size=max_block)
    dag = build_block_dag(sym, part)
    dist = distribute_matrix(a, sym, part, best_grid(p))
    return a, dag, dist


# --------------------------------------------------------------------- #
# FaultPlan object semantics
# --------------------------------------------------------------------- #

def test_fault_plan_json_round_trip():
    plan = FaultPlan(seed=9, drop=0.1, duplicate=0.2, delay=0.3,
                     delay_factor=5.0, rank_slowdown={2: 3.0},
                     compute_jitter=0.25,
                     drop_rules=(DropRule(source=0, dest=1, tag=7),))
    back = FaultPlan.from_json(plan.to_json())
    assert back == plan
    assert back.rank_slowdown == {2: 3.0}
    assert back.drop_rules == (DropRule(source=0, dest=1, tag=7),)


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(drop=1.5)
    with pytest.raises(ValueError):
        FaultPlan(seed=-1)
    with pytest.raises(ValueError):
        FaultPlan(compute_jitter=1.0)
    assert not FaultPlan().active
    assert FaultPlan(drop=0.1).active
    assert FaultPlan(drop_rules=({"source": 1},)).active


def test_message_fate_is_order_independent():
    plan = FaultPlan(seed=3, drop=0.3, duplicate=0.3, delay=0.3)
    fates = [plan.message_fate(0, 1, t, s) for t in range(5)
             for s in range(5)]
    # identical keys give identical fates regardless of query order
    again = [plan.message_fate(0, 1, t, s) for t in range(4, -1, -1)
             for s in range(4, -1, -1)]
    assert fates == list(reversed(again))


# --------------------------------------------------------------------- #
# dropped message -> structured timeout, deterministically
# --------------------------------------------------------------------- #

def _run_faulted_pdgstrf(seed_matrix, plan):
    d = random_nonsingular_dense(np.random.default_rng(seed_matrix), 30,
                                 hidden_perm=False)
    a, dag, dist = build_dist(d, 4)
    return pdgstrf(dist, dag, anorm=norm1(a), fault_plan=plan)


def test_dropped_message_yields_structured_diagnosis():
    # surgically kill the first diagonal-L broadcast (tag = 4k+0): the
    # waiting rank must time out with full context, not hang
    plan = FaultPlan(drop_rules=(DropRule(tag=0),))
    with pytest.raises(CommTimeoutError) as ei:
        _run_faulted_pdgstrf(0, plan)
    err = ei.value
    assert err.rank is not None
    assert err.attempts == 3           # 1 try + 2 retries (defaults)
    assert "pdgstrf" in err.where
    assert err.blocked                 # snapshot of who else was stuck
    msg = str(err)
    assert "gave up waiting" in msg and "pdgstrf" in msg


def test_dropped_message_diagnosis_is_deterministic():
    plan = FaultPlan(drop_rules=(DropRule(tag=0),))
    errs = []
    for _ in range(3):
        with pytest.raises(CommTimeoutError) as ei:
            _run_faulted_pdgstrf(0, plan)
        errs.append(ei.value)
    assert len({(e.rank, e.source, e.tag, e.clock, e.attempts, e.where)
                for e in errs}) == 1


def test_driver_converts_comm_failure_to_failed_report():
    d = random_nonsingular_dense(np.random.default_rng(1), 30,
                                 hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    solver = DistributedGESPSolver(
        a, nprocs=4,
        options=GESPOptions(symbolic_method="symmetrized"),
        fault_plan=FaultPlan(drop_rules=(DropRule(tag=0),)))
    report = solver.solve(d @ np.ones(30))
    assert not report.converged
    assert report.failure is not None
    assert report.failure.kind == FailureKind.COMM_TIMEOUT
    assert report.failure.data["attempts"] == 3
    assert np.isnan(report.x).all()

    # same plan, fresh solver: the diagnosis is identical
    solver2 = DistributedGESPSolver(
        a, nprocs=4,
        options=GESPOptions(symbolic_method="symmetrized"),
        fault_plan=FaultPlan(drop_rules=(DropRule(tag=0),)))
    report2 = solver2.solve(d @ np.ones(30))
    assert report2.failure.data == report.failure.data


# --------------------------------------------------------------------- #
# absorbable faults: numerics bit-identical, timing may move
# --------------------------------------------------------------------- #

def test_duplicates_and_delays_do_not_corrupt_the_solve():
    d = random_nonsingular_dense(np.random.default_rng(2), 36,
                                 hidden_perm=False)
    a, dag, dist = build_dist(d, 4)
    pdgstrf(dist, dag, anorm=norm1(a))
    b = d @ np.ones(36)
    clean = pdgstrs(dist, b)

    a2, dag2, dist2 = build_dist(d, 4)
    plan = FaultPlan(seed=5, duplicate=1.0, delay=0.5, delay_factor=3.0)
    pdgstrf(dist2, dag2, anorm=norm1(a2), fault_plan=plan)
    faulted = pdgstrs(dist2, b, fault_plan=plan)

    # every message was duplicated and half were delayed; msg_id dedup
    # and source/tag matching must keep the numerics bit-identical
    np.testing.assert_array_equal(clean.x, faulted.x)
    assert faulted.lower.total_duplicated > 0


def test_rank_slowdown_and_jitter_change_timing_only():
    d = random_nonsingular_dense(np.random.default_rng(3), 30,
                                 hidden_perm=False)
    a, dag, dist = build_dist(d, 4)
    clean = pdgstrf(dist, dag, anorm=norm1(a))

    a2, dag2, dist2 = build_dist(d, 4)
    plan = FaultPlan(seed=1, rank_slowdown={0: 4.0}, compute_jitter=0.3)
    slow = pdgstrf(dist2, dag2, anorm=norm1(a2), fault_plan=plan)
    assert slow.sim.elapsed > clean.sim.elapsed
    lu_clean = dist.gather_to_supernodal().to_csc_factors()
    lu_slow = dist2.gather_to_supernodal().to_csc_factors()
    np.testing.assert_array_equal(lu_clean[0].nzval, lu_slow[0].nzval)
    np.testing.assert_array_equal(lu_clean[1].nzval, lu_slow[1].nzval)


# --------------------------------------------------------------------- #
# the grid sweep: bit-reproducibility per seed across a fault matrix
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("drop,duplicate,delay", [
    (0.0, 0.0, 0.0),
    (0.0, 0.5, 0.0),
    (0.0, 0.0, 0.5),
    (0.05, 0.0, 0.0),
    (0.05, 0.5, 0.5),
])
def test_fault_grid_bit_reproducible_per_seed(seed, drop, duplicate, delay):
    d = random_nonsingular_dense(np.random.default_rng(7), 24,
                                 hidden_perm=False)
    plan = FaultPlan(seed=seed, drop=drop, duplicate=duplicate,
                     delay=delay, delay_factor=2.0, compute_jitter=0.1)

    def one_run():
        a, dag, dist = build_dist(d, 4)
        try:
            run = pdgstrf(dist, dag, anorm=norm1(a), fault_plan=plan)
        except CommTimeoutError as err:
            return ("timeout", err.rank, err.source, err.tag, err.clock,
                    err.attempts, err.where)
        lu = dist.gather_to_supernodal().to_csc_factors()
        return ("ok", run.sim.elapsed, run.sim.total_dropped,
                run.sim.total_duplicated, run.sim.total_recv_timeouts,
                lu[0].nzval.tobytes(), lu[1].nzval.tobytes())

    first = one_run()
    second = one_run()
    assert first == second
    if drop == 0.0:
        # no message loss: the protocol absorbs everything else
        assert first[0] == "ok"
        assert first[2] == 0


# --------------------------------------------------------------------- #
# satellite: DeadlockError carries per-rank blocked state
# --------------------------------------------------------------------- #

def test_deadlock_error_carries_blocked_state():
    def r0():
        yield Recv(source=1, tag=13)

    def r1():
        m = yield Recv(source=0, tag=42)

    with pytest.raises(DeadlockError) as ei:
        simulate([r0(), r1()], machine=MachineModel())
    err = ei.value
    assert hasattr(err, "blocked") and len(err.blocked) == 2
    by_rank = {b.rank: b for b in err.blocked}
    assert by_rank[0].source == 1 and by_rank[0].tag == 13
    assert by_rank[1].source == 0 and by_rank[1].tag == 42
    assert all(b.clock >= 0.0 for b in err.blocked)
    # the message names every stuck rank with its pending receive
    msg = str(err)
    assert "rank 0" in msg and "rank 1" in msg
    assert "tag=13" in msg and "tag=42" in msg


def test_recv_timeout_preempts_deadlock():
    # identical stall, but one rank armed a timeout: diagnosis, not
    # deadlock
    def r0():
        from repro.dmem import recv_with_retry

        yield from recv_with_retry(source=1, tag=13, timeout=0.5,
                                   retries=1, where="stalled r0")

    def r1():
        m = yield Recv(source=0, tag=42)

    with pytest.raises(CommTimeoutError) as ei:
        simulate([r0(), r1()], machine=MachineModel())
    err = ei.value
    assert err.rank == 0
    assert err.attempts == 2
    assert err.where == "stalled r0"
    # the snapshot still shows the other stuck rank
    assert any(b.rank == 1 and b.tag == 42 for b in err.blocked)
