"""Integration tests: the observability layer against the real pipeline.

Two things are pinned down here beyond the unit tests:

1. a traced ``GESPSolver``/``DistributedGESPSolver`` run produces the
   documented span tree (docs/OBSERVABILITY.md) with nonzero counters;
2. the ``dmem.*`` counters emitted by the simulator agree with the
   comm-layer ground truth of :func:`repro.dmem.comm.count_ops` — i.e.
   the observability numbers are *accounting*, not estimates.
"""

import numpy as np
import pytest

from repro.dmem import ANY_SOURCE, Compute, Recv, Send, simulate
from repro.dmem.comm import OpCounts, count_ops
from repro.driver import GESPSolver
from repro.driver.dist_driver import DistributedGESPSolver
from repro.obs import NULL_TRACER, RunRecord, Tracer, get_tracer, use_tracer
from repro.sparse import CSCMatrix

from conftest import laplace2d_dense

STAGES = ("equil", "rowperm", "colperm", "symbolic", "factor")


@pytest.fixture
def a():
    return CSCMatrix.from_dense(laplace2d_dense(8))


def span_names(tracer):
    return [s.name for s in tracer.root.walk()]


def stage_seconds(solver):
    """Per-stage seconds of the solver's latest build, read off its
    top-level stage spans."""
    return {s.name: s.duration for s in solver.tracer.root.children
            if s.name in STAGES}


# ------------------------------------------------------------------ #
# serial pipeline


def test_serial_solve_trace_has_all_stage_spans(a):
    tracer = Tracer()
    with use_tracer(tracer):
        solver = GESPSolver(a)
        solver.solve(a @ np.ones(a.ncols))
    names = set(span_names(tracer))
    for stage in STAGES + ("solve", "refine"):
        assert stage in names, f"missing span {stage!r}"
    # the stage spans wrap the instrumented library calls
    assert tracer.root.find("equil").find("scaling/equilibrate") is not None
    assert tracer.root.find("rowperm").find("scaling/mc64") is not None
    assert tracer.root.find("colperm").find("ordering/colperm") is not None
    assert tracer.root.find("symbolic").find("symbolic/fill") is not None
    # the block engine's partition and static schedule are a span of
    # their own beside the fill
    assert [s.name for s in tracer.root.find("symbolic").children] \
        == ["symbolic/fill", "symbolic/plan"]
    # the default engine is the supernodal one; the column oracle
    # (symbolic_method="unsymmetric") opens factor/gesp instead
    assert tracer.root.find("factor").find("factor/supernodal") is not None


def test_serial_solve_counters_are_consistent(a):
    tracer = Tracer()
    with use_tracer(tracer):
        solver = GESPSolver(a)
        report = solver.solve(a @ np.ones(a.ncols))
    root = tracer.root
    assert root.total("factor.flops") == pytest.approx(solver.factors.flops)
    assert root.total("symbolic.fill_nnz") == solver.symbolic.nnz_lu
    assert root.total("scaling.mc64.matched") == a.ncols
    assert root.total("refine.steps") == report.refine_steps
    # berr history is recorded as events on the refine span
    berrs = [e["berr"] for e in root.find("refine").events
             if e["name"] == "berr"]
    assert berrs == list(report.berr_history)


def test_build_stage_spans_expose_stage_seconds(a):
    solver = GESPSolver(a)
    seconds = stage_seconds(solver)
    assert set(seconds) == set(STAGES)
    assert all(v >= 0.0 for v in seconds.values())
    # works identically under an ambient tracer
    with use_tracer(Tracer()):
        traced = GESPSolver(a)
    assert set(stage_seconds(traced)) == set(STAGES)


def test_untraced_solver_leaves_ambient_tracer_untouched(a):
    GESPSolver(a)
    assert get_tracer() is NULL_TRACER


def _reachable_spans(solver):
    return sum(1 for _ in solver.tracer.root.walk())


def test_untraced_solver_holds_the_spans_of_its_latest_build_only(a):
    """A solver handed no tracer must not keep every span it ever opened
    (a resident service solver lives for millions of requests)."""
    solver = GESPSolver(a, cache=False)
    assert set(stage_seconds(solver)) == set(STAGES)
    b = a @ np.ones(a.ncols)
    seen = {}
    for i in range(1, 201):
        solver.refactor(a)
        solver.solve(b)
        solver.solve_multi(b[:, None])
        if i in (5, 200):
            seen[i] = _reachable_spans(solver)
    assert seen[5] == seen[200]
    # what it holds describes the factorization now resident
    refactor = solver.tracer.root.find("refactor")
    assert {s.name for s in refactor.children} == set(STAGES)
    assert refactor.find("factor/supernodal") is not None
    assert solver.tracer.root.find("solve") is None


def test_untraced_solver_records_solves_into_the_callers_tracer(a):
    solver = GESPSolver(a, cache=False)
    tracer = Tracer()
    with use_tracer(tracer):
        solver.solve(a @ np.ones(a.ncols))
        solver.solve_multi(np.ones((a.ncols, 3)))
    solves = tracer.root.find_all("solve")
    assert len(solves) == 2
    assert all(s.find("refine") is not None for s in solves)
    assert tracer.root.find("factor") is None     # the build stayed private


def test_untraced_distributed_solver_does_not_accumulate_spans(a):
    solver = DistributedGESPSolver(a, nprocs=4, cache=False)
    b = a @ np.ones(a.ncols)
    seen = {}
    for i in range(1, 9):
        solver.refactor(a)
        solver.factorize()
        solver.solve_distributed(b)
        solver.solve(b)
        if i in (2, 8):
            seen[i] = _reachable_spans(solver)
    assert seen[2] == seen[8]


def test_record_round_trips_a_real_solve(a):
    tracer = Tracer()
    with use_tracer(tracer):
        GESPSolver(a).solve(a @ np.ones(a.ncols))
    rec = tracer.record(matrix="laplace2d")
    rt = RunRecord.from_json(rec.to_json())
    assert rt.to_dict() == rec.to_dict()
    assert rt.total("factor.flops") > 0


# ------------------------------------------------------------------ #
# distributed pipeline


def test_distributed_trace_messages_match_simulator(a):
    tracer = Tracer()
    with use_tracer(tracer):
        s = DistributedGESPSolver(a, nprocs=4)
        run = s.factorize()
        sol = s.solve_distributed(a @ np.ones(a.ncols))
    assert tracer.root.total("dmem.msgs_sent") == \
        run.sim.total_messages + sol.total_messages
    assert tracer.root.total("dmem.bytes_sent") == \
        run.sim.total_bytes + sol.lower.total_bytes + sol.upper.total_bytes
    assert tracer.root.total("factor.flops") > 0
    assert tracer.root.total("solve.flops") > 0
    # per-rank wait breakdown is attached to the simulate spans
    sim_spans = tracer.root.find_all("dmem/simulate")
    assert len(sim_spans) == 3  # factor + lower solve + upper solve
    for span in sim_spans:
        assert len(span.attrs["per_rank"]) == 4


def test_dmem_counters_match_comm_layer_ground_truth():
    """dmem.msgs_sent/bytes_sent == what the rank programs yielded."""

    def worker(rank, nranks):
        rng = np.random.default_rng(rank)
        for i in range(3 + rank):
            nbytes = int(rng.integers(8, 256))
            yield Compute(flops=100.0)
            yield Send(dest=(rank + 1) % nranks, tag=i, payload=None,
                       nbytes=nbytes, count=2)
        for i in range(3 + (rank - 1) % nranks):
            yield Recv(source=ANY_SOURCE, tag=i)

    nranks = 4
    counts = [OpCounts() for _ in range(nranks)]
    programs = [count_ops(worker(r, nranks), counts[r])
                for r in range(nranks)]
    tracer = Tracer()
    with use_tracer(tracer):
        simulate(programs)
    span = tracer.root.find("dmem/simulate")
    assert span.counters["dmem.msgs_sent"] == \
        sum(c.messages for c in counts)
    assert span.counters["dmem.bytes_sent"] == \
        sum(c.bytes_sent for c in counts)
    assert sum(c.sends for c in counts) == \
        sum(c.messages for c in counts) / 2  # count=2 per logical send


def test_distributed_trace_is_deterministic(a):
    """Simulated counters and attrs must not vary run to run."""

    def run_once():
        tracer = Tracer()
        with use_tracer(tracer):
            s = DistributedGESPSolver(a, nprocs=4)
            s.factorize()
        span = tracer.root.find("dmem/simulate")
        counters = dict(span.counters)
        # dmem.wall_seconds is real elapsed time, the one counter that
        # is wall-clock (not model-clock) by design
        counters.pop("dmem.wall_seconds", None)
        return counters, span.attrs["per_rank"]

    c1, r1 = run_once()
    c2, r2 = run_once()
    assert c1 == c2
    assert r1 == r2
