"""The executor layer: process executor bit-compared against the
simulator oracle (docs/EXECUTOR.md).

Covers the protocol seam (RankJob/resolve_executor), the pickled
payload path and its read-only receives, wire-format pickling
(Message/FaultPlan across a real multiprocessing queue), fault-injection
parity (same structured CommTimeoutError diagnosis on both backends),
deadlock fast-fail, and the pdgstrf/pdgstrs bit-identity contract over
the testbed subset x {1x2, 2x2, 2x3} grids.

Every test that spawns real worker processes runs under a hard SIGALRM
guard *and* a small ``run_timeout`` on the executor itself, so a
deadlocked run fails in seconds instead of hanging the suite.
"""

import contextlib
import gc
import multiprocessing as mp
import os
import pickle
import signal
import time

import numpy as np
import pytest

from repro.dmem import (
    CommTimeoutError,
    DeadlockError,
    DropRule,
    FaultPlan,
    RankJob,
    SimulatorExecutor,
    UnknownExecutorError,
    best_grid,
    distribute_matrix,
    resolve_executor,
)
from repro.dmem.comm import Compute, Message, Recv, Send
from repro.dmem.procexec import ProcessExecutor
from repro.matrices import matrix_by_name
from repro.pdgstrf import pdgstrf
from repro.pdgstrs import pdgstrs
from repro.sparse.ops import norm1
from repro.symbolic import (
    block_partition,
    build_block_dag,
    symbolic_lu_symmetrized,
)


@contextlib.contextmanager
def hard_timeout(seconds):
    """SIGALRM belt over the executors' run_timeout braces: a hung
    process run kills the test, not the suite."""
    def onalarm(signum, frame):
        raise TimeoutError(f"test exceeded {seconds}s hard timeout")

    old = signal.signal(signal.SIGALRM, onalarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def factored_dist(name, p, executor, max_block=8):
    a = matrix_by_name(name).build()
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=max_block)
    dag = build_block_dag(sym, part)
    dist = distribute_matrix(a, sym, part, best_grid(p))
    run = pdgstrf(dist, dag, anorm=norm1(a), executor=executor)
    return a, dist, run


def blocks_equal(d1, d2):
    for r in range(len(d1.diag)):
        for store1, store2 in ((d1.diag[r], d2.diag[r]),
                               (d1.lblk[r], d2.lblk[r]),
                               (d1.ublk[r], d2.ublk[r])):
            if set(store1) != set(store2):
                return False
            for key, blk in store1.items():
                if not np.array_equal(blk, store2[key]):
                    return False
    return True


# --------------------------------------------------------------------- #
# protocol / selection
# --------------------------------------------------------------------- #

def test_resolve_executor_precedence(monkeypatch):
    assert resolve_executor(None).name == "sim"
    assert resolve_executor("sim").name == "sim"
    assert resolve_executor("process").name == "process"
    # the argument is the only selector: no environment variable is read
    monkeypatch.setenv("REPRO_DMEM_EXECUTOR", "process")
    assert resolve_executor(None).name == "sim"
    inst = ProcessExecutor()
    assert resolve_executor(inst) is inst
    with pytest.raises(UnknownExecutorError) as ei:
        resolve_executor("threads")
    assert ei.value.name == "threads"


def test_solver_rejects_an_unknown_executor_at_construction():
    """The constructor resolves its executor: an unknown name raises
    there, not after the whole analysis at ``factorize()``, and the
    attribute holds the instance the phases run on."""
    from repro.driver.dist_driver import DistributedGESPSolver

    a = matrix_by_name("cfd01").build()
    with pytest.raises(UnknownExecutorError) as ei:
        DistributedGESPSolver(a, nprocs=2, executor="threads", cache=False)
    assert ei.value.name == "threads"
    solver = DistributedGESPSolver(a, nprocs=2, cache=False)
    assert isinstance(solver.executor, SimulatorExecutor)
    inst = ProcessExecutor()
    solver = DistributedGESPSolver(a, nprocs=2, executor=inst, cache=False)
    assert solver.executor is inst


# --------------------------------------------------------------------- #
# wire format: pickle round-trips through a real queue
# --------------------------------------------------------------------- #

def test_message_pickle_roundtrip_through_queue():
    payload = {"vals": np.arange(12.0).reshape(3, 4),
               "meta": ("idx", np.array([1, 2, 3]), [4, 5])}
    m = Message(source=3, tag=17, payload=payload, nbytes=96,
                arrival=1.25, msg_id=(3 << 32) | 7)
    q = mp.get_context().Queue()
    q.put(m)
    out = q.get(timeout=10)
    q.close()
    q.join_thread()
    assert (out.source, out.tag, out.nbytes, out.arrival, out.msg_id) == \
        (3, 17, 96, 1.25, (3 << 32) | 7)
    assert np.array_equal(out.payload["vals"], payload["vals"])
    assert out.payload["vals"].dtype == payload["vals"].dtype
    assert out.payload["meta"][0] == "idx"
    assert np.array_equal(out.payload["meta"][1], payload["meta"][1])
    assert out.payload["meta"][2] == [4, 5]


def test_fault_plan_pickle_roundtrip():
    plan = FaultPlan(seed=11, drop=0.25, duplicate=0.1, delay=0.05,
                     rank_slowdown={1: 2.0}, compute_jitter=0.1,
                     drop_rules=(DropRule(source=2, dest=0, tag=5),))
    out = pickle.loads(pickle.dumps(plan))
    assert out.seed == plan.seed and out.drop_rules == plan.drop_rules
    # seeded fates must survive the round trip bit-for-bit
    for key in [(0, 1, 2, 3), (1, 0, 7, 9), (2, 2, 4, 0)]:
        assert out.message_fate(*key) == plan.message_fate(*key)


def test_distributed_blocks_pickle_rebuilds_views_of_the_stores():
    """Pickling ships each rank's store and the offset table once; every
    block comes back a view of its rank's store, so what a rank program
    writes through a block is what ``collect`` ships home."""
    a = matrix_by_name("cfd02").build()
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=8)
    dist = distribute_matrix(a, sym, part, best_grid(4))
    out = pickle.loads(pickle.dumps(dist))
    assert blocks_equal(dist, out)
    views = [(blk, store) for r, store in enumerate(out.stores)
             for blocks in (out.diag[r], out.lblk[r], out.ublk[r])
             for blk in blocks.values()]
    assert len(views) == part.nsuper + 2 * out.offsets.col.size
    assert all(np.shares_memory(blk, store) for blk, store in views)
    assert not np.shares_memory(out.stores[0], dist.stores[0])


def test_comm_timeout_error_pickle_keeps_diagnosis():
    err = CommTimeoutError(source=2, tag=5, timeout=0.5, attempts=3,
                           where="unit test")
    err.rank = 1
    err.clock = 2.5
    out = pickle.loads(pickle.dumps(err))
    assert (out.rank, out.source, out.tag, out.attempts) == (1, 2, 5, 3)
    assert out.clock == 2.5
    assert "unit test" in str(out)


# --------------------------------------------------------------------- #
# transport paths
# --------------------------------------------------------------------- #

def _ring_program(rank, nranks, width, writer=None):
    """Each rank sends an array to (rank+1) % nranks and returns what it
    receives — enough to exercise the payload path end to end.  Rank
    ``writer`` breaks the Send contract by writing into what it got."""
    data = np.full(width, float(rank))
    yield Send(dest=(rank + 1) % nranks, tag=7, payload=data,
               nbytes=data.nbytes)
    m = yield Recv(source=(rank - 1) % nranks, tag=7)
    if rank == writer:
        m.payload[0] = -1.0
    yield Compute(flops=10.0)
    return float(np.asarray(m.payload)[0])


def test_process_ring():
    with hard_timeout(60):
        ex = ProcessExecutor(run_timeout=30.0)
        job = RankJob(nranks=3, factory=_ring_program,
                      kwargs=dict(nranks=3, width=64))
        res = ex.run(job)
    assert res.returns == [2.0, 0.0, 1.0]
    assert all(s.wall_seconds > 0 for s in res.stats)
    assert res.wall_seconds > 0


def test_process_receives_are_read_only():
    """A 64-element payload is far below any size a transport might
    special-case; it still arrives read-only, so the receiver that writes
    into it crashes, named."""
    from repro.dmem.procexec import WorkerCrashError

    with hard_timeout(60):
        ex = ProcessExecutor(run_timeout=30.0)
        job = RankJob(nranks=3, factory=_ring_program,
                      kwargs=dict(nranks=3, width=64, writer=1))
        with pytest.raises(WorkerCrashError) as ei:
            ex.run(job)
    assert ei.value.rank == 1
    assert "read-only" in ei.value.details


def test_sim_executor_matches_simulate():
    job = RankJob(nranks=3, factory=_ring_program,
                  kwargs=dict(nranks=3, width=8))
    res = SimulatorExecutor().run(job)
    assert res.returns == [2.0, 0.0, 1.0]
    assert res.collected is None
    assert res.wall_seconds > 0


# --------------------------------------------------------------------- #
# failure handling
# --------------------------------------------------------------------- #

def _stuck_program(rank, nranks):
    if rank == 0:
        m = yield Recv(source=1, tag=99)     # never sent
        return m
    return None


def test_process_deadlock_fast_fail():
    with hard_timeout(60):
        ex = ProcessExecutor(run_timeout=2.0)
        job = RankJob(nranks=2, factory=_stuck_program,
                      kwargs=dict(nranks=2))
        with pytest.raises(DeadlockError) as ei:
            ex.run(job)
    blocked = {b.rank for b in ei.value.blocked}
    assert 0 in blocked


def _drop_victim_program(rank, nranks):
    if rank == 0:
        m = yield from _recv_retry(source=2, tag=5)
        return m
    if rank == 2:
        data = np.arange(4.0)
        yield Send(dest=0, tag=5, payload=data, nbytes=data.nbytes)
    return None


def _recv_retry(source, tag):
    from repro.dmem.comm import recv_with_retry

    return (yield from recv_with_retry(source=source, tag=tag,
                                       timeout=0.2, retries=1,
                                       where="executor fault parity"))


def test_fault_parity_same_diagnosis_on_both_executors():
    """A surgical drop must surface as the *same* structured
    CommTimeoutError through both runtimes (satellite 3)."""
    from repro.recovery.health import diagnose_comm_failure

    plan = FaultPlan(seed=5, drop_rules=(DropRule(source=2, dest=0, tag=5),))
    job = RankJob(nranks=3, factory=_drop_victim_program,
                  kwargs=dict(nranks=3))
    diagnoses = {}
    for ex in (SimulatorExecutor(),
               ProcessExecutor(run_timeout=30.0)):
        with hard_timeout(60), pytest.raises(CommTimeoutError) as ei:
            ex.run(job, fault_plan=plan)
        diagnoses[ex.name] = diagnose_comm_failure(ei.value)
    for name, diag in diagnoses.items():
        assert diag.kind == "comm_timeout"
        assert diag.data["rank"] == 0
        assert diag.data["source"] == 2
        assert diag.data["tag"] == 5
        assert diag.data["attempts"] == 2
    assert diagnoses["sim"].data["executor"] == "sim"
    assert diagnoses["process"].data["executor"] == "process"


def _crash_program(rank, nranks):
    if rank == 1:
        raise RuntimeError("boom in worker")
    yield Compute(flops=1.0)
    return rank


def test_worker_crash_carries_traceback():
    from repro.dmem.procexec import WorkerCrashError

    with hard_timeout(60):
        ex = ProcessExecutor(run_timeout=30.0)
        with pytest.raises(WorkerCrashError) as ei:
            ex.run(RankJob(nranks=2, factory=_crash_program,
                           kwargs=dict(nranks=2)))
    assert ei.value.rank == 1
    assert "boom in worker" in str(ei.value)


def _result_program(rank, nranks, unpicklable_return):
    yield Compute(flops=1.0)
    if unpicklable_return and rank == 1:
        return lambda: rank
    return rank


def _unpicklable_collect(rank, nranks, unpicklable_return):
    return (lambda: rank) if rank == 1 else rank


@pytest.mark.parametrize("where", ["return", "collect"])
def test_unpicklable_rank_result_is_a_worker_crash(where):
    """A rank result that cannot travel home is that rank's crash, with
    the pickling traceback — not a watchdog deadlock naming it missing."""
    from repro.dmem.procexec import WorkerCrashError

    job = RankJob(nranks=2, factory=_result_program,
                  kwargs=dict(nranks=2,
                              unpicklable_return=where == "return"),
                  collect=_unpicklable_collect if where == "collect"
                  else None)
    with hard_timeout(60):
        with pytest.raises(WorkerCrashError) as ei:
            ProcessExecutor(run_timeout=30.0).run(job)
    assert ei.value.rank == 1
    assert "pickle" in ei.value.details


# --------------------------------------------------------------------- #
# bit-identity: the tentpole acceptance contract
# --------------------------------------------------------------------- #

GRIDS = [2, 4, 6]   # best_grid -> 1x2, 2x2, 2x3


@pytest.mark.parametrize("p", GRIDS)
def test_factor_and_solve_bit_identical_across_executors(p):
    name = "cfd02"
    with hard_timeout(300):
        a, dist_sim, run_sim = factored_dist(name, p, "sim")
        _, dist_proc, run_proc = factored_dist(name, p, "process")
        assert blocks_equal(dist_sim, dist_proc)
        b = a @ np.ones(a.ncols)
        x_sim = pdgstrs(dist_sim, b, executor="sim").x
        x_proc = pdgstrs(dist_proc, b, executor="process").x
    assert np.array_equal(x_sim, x_proc)
    assert np.abs(x_sim - 1.0).max() < 1e-6
    # wall clock is real on both; the simulator's model clock is not wall
    assert run_sim.wall_seconds > 0 and run_proc.wall_seconds > 0


def test_second_matrix_bit_identical():
    with hard_timeout(300):
        a, dist_sim, _ = factored_dist("device01", 4, "sim")
        _, dist_proc, _ = factored_dist("device01", 4, "process")
        assert blocks_equal(dist_sim, dist_proc)
        b = a @ np.ones(a.ncols)
        x_sim = pdgstrs(dist_sim, b, executor="sim").x
        x_proc = pdgstrs(dist_proc, b, executor="process").x
    assert np.array_equal(x_sim, x_proc)


# --------------------------------------------------------------------- #
# driver integration
# --------------------------------------------------------------------- #

def test_distributed_driver_process_executor():
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.driver.options import GESPOptions

    a = matrix_by_name("cfd02").build()
    b = a @ np.ones(a.ncols)
    with hard_timeout(300):
        reports = {}
        for ex in ("sim", "process"):
            opts = GESPOptions(symbolic_method="symmetrized")
            solver = DistributedGESPSolver(a, nprocs=4, options=opts,
                                           executor=ex, cache=False)
            reports[ex] = solver.solve(b)
    assert reports["sim"].converged and reports["process"].converged
    assert np.array_equal(reports["sim"].x, reports["process"].x)


def test_process_refactor_rounds_bit_identical_to_sim():
    """refactor → factorize → solve_distributed, twice, on a cfd06
    Newton stream: the process executor copies each rank's store home
    into the resident one, so the second refill reaches the blocks the
    second factorization reads — ``x`` is the simulator's, bit for bit,
    in both rounds."""
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.workload import ScenarioSpec, generate

    stream = generate(ScenarioSpec(scenario="newton_drift", matrix="cfd06",
                                   newton_iters=3, newton_drift=0.01,
                                   seed=1))
    xs = {}
    with hard_timeout(300):
        for ex in ("sim", "process"):
            ds = DistributedGESPSolver(stream[0].matrix, nprocs=2,
                                       executor=ex, cache=False)
            xs[ex] = []
            for item in stream[1:3]:
                ds.refactor(item.matrix)
                ds.factorize()
                xs[ex].append(ds.solve_distributed(item.b).x)
    assert not np.array_equal(*xs["sim"])        # the values did move
    for x_sim, x_proc in zip(xs["sim"], xs["process"]):
        assert np.array_equal(x_sim, x_proc)


def _shm_listing():
    gc.collect()      # spawn-context queues unlink their semaphores on GC
    return sorted(os.listdir("/dev/shm"))


def test_no_shm_segments_leaked():
    """Both process boundaries — a process-executor factorize + solve and
    a 2-shard service — leave /dev/shm exactly as they found it."""
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.service import ServiceConfig, ShardedSolveService, SolveRequest

    if not os.path.isdir("/dev/shm"):         # pragma: no cover
        pytest.skip("no /dev/shm on this platform")
    a = matrix_by_name("cfd01").build()
    b = a @ np.ones(a.ncols)
    before = _shm_listing()
    with hard_timeout(240):
        solver = DistributedGESPSolver(a, nprocs=2, executor="process",
                                       cache=False)
        assert solver.solve(b).converged
        with ShardedSolveService(shards=2, config=ServiceConfig()) as tier:
            assert tier.submit(SolveRequest(matrix=a, b=b)).result(120.0).ok
    del solver, tier
    # a collected queue's feeder thread lets go of its semaphores as it
    # exits, just after the collection that stopped it
    deadline = time.monotonic() + 10.0
    while _shm_listing() != before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _shm_listing() == before
