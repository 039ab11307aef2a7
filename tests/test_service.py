"""End-to-end tests of the concurrent solve service (repro.service).

The deterministic core: ``auto_start=False`` lets a test stage requests
with no dispatcher running, so queue contents and coalescing groups are
exact, not racy.  The three acceptance behaviors from the issue are all
here: overload → ServiceOverloaded, past-deadline → DeadlineExceeded,
and a poisoned batch member recovering through the ladder while its
batch-mates come back certified.
"""

import threading
import time

import numpy as np
import pytest

from repro import CSCMatrix, GESPOptions, GESPSolver
from repro.driver.factcache import FactorizationCache
from repro.obs import Tracer, use_tracer
from repro.service import (
    DeadlineExceeded,
    ServiceClient,
    ServiceClosed,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    SolveRequest,
    SolveService,
)

from conftest import random_nonsingular_dense
from test_refactor import _two_matchings

SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))

# dense matrices under "raw" options share one pattern (fully dense) and
# one plan key, so well- and ill-conditioned systems can ride the same
# pattern state — exactly the poisoned-batch-member scenario
RAW_OPTS = dict(row_perm="none", scale_diagonal=False, equilibrate=False,
                col_perm="natural")


def graded_matrix(n=40, expo=-12, seed=0):
    """Ill-conditioned dense matrix whose GESP solve stagnates above the
    certification target but is rescued by the ladder (same construction
    test_recovery.py pins)."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(np.logspace(0, expo, n)) @ q2


def healthy_dense(n=40, seed=1):
    rng = np.random.default_rng(seed)
    return np.diag(rng.uniform(2, 3, n)) + 0.1 * rng.standard_normal((n, n))


def _service(**kw):
    kw.setdefault("batch_window", 0.005)
    cfg_keys = ("queue_capacity", "batch_window", "max_batch")
    cfg = ServiceConfig(**{k: kw.pop(k) for k in cfg_keys if k in kw})
    return SolveService(cfg, **kw)


# --------------------------------------------------------------------- #
# the core promise: a warm same-pattern burst becomes one block solve
# --------------------------------------------------------------------- #

def test_burst_coalesces_into_one_batch_and_matches_direct_solve(rng):
    d = random_nonsingular_dense(rng, 30, density=0.4, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    rhs = [rng.standard_normal(30) for _ in range(8)]

    svc = _service(auto_start=False, cache=False)
    pending = [svc.submit(SolveRequest(matrix=a, b=b)) for b in rhs]
    svc.start()
    try:
        responses = [p.result(30.0) for p in pending]
    finally:
        svc.close()

    assert all(r.ok for r in responses)
    assert all(r.batch_width == 8 for r in responses)
    assert all(r.fact == "DOFACT" for r in responses)
    stats = svc.stats()
    assert stats["service.requests"] == 8
    assert stats["service.batched"] == 1
    assert stats["service.coalesce_width"] == 8
    # responses answer the request they came from, bit-identical to the
    # same block solve run directly
    direct = GESPSolver(a, cache=False).solve_multi(np.column_stack(rhs))
    for t, r in enumerate(responses):
        assert r.report.berr <= SQRT_EPS
        np.testing.assert_array_equal(r.x, direct.x[:, t])


@pytest.mark.parametrize("rounds", [(8,), (1, 7)], ids=["8", "1+7"])
def test_burst_answers_equal_eight_sequential_solves(rng, rounds):
    """A request's x, berr, step count and certificate are functions of
    (A, b) alone: the same bits whether its burst was coalesced whole or
    a straggler split it — the second round's seven race the batch
    window, and however they end up batched the answers are the same."""
    d = random_nonsingular_dense(rng, 30, density=0.4, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    rhs = [rng.standard_normal(30) for _ in range(8)]
    solver = GESPSolver(a, cache=False)
    want = [solver.solve(b) for b in rhs]
    assert max(w.refine_steps for w in want) > min(
        w.refine_steps for w in want)    # the block's columns differ

    first = rounds[0]
    svc = _service(auto_start=False, cache=False)
    staged = [svc.submit(SolveRequest(matrix=a, b=b)) for b in rhs[:first]]
    svc.start()
    try:
        responses = [p.result(30.0) for p in staged]
        late = [svc.submit(SolveRequest(matrix=a, b=b)) for b in rhs[first:]]
        responses += [p.result(30.0) for p in late]
    finally:
        svc.close()
    assert all(r.batch_width == first for r in responses[:first])
    for r, w in zip(responses, want):
        assert r.ok
        np.testing.assert_array_equal(r.x, w.x)
        assert r.report.berr == w.berr
        assert r.report.refine_steps == w.refine_steps
        assert r.report.converged == w.converged


def test_complex_system_alone_and_in_a_burst_is_not_truncated(rng):
    """b used to be cast to float64 on the way in: the service answered
    A x = Re(b), certified, with ok=True."""
    n = 20
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4) \
        + 1j * rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    np.fill_diagonal(d, 4.0 + 1.0j)
    a = CSCMatrix.from_dense(d)
    rhs = [d @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
           for _ in range(5)]
    solver = GESPSolver(a, cache=False)
    svc = _service(auto_start=False, cache=False)
    alone = svc.submit(SolveRequest(matrix=a, b=rhs[0]))
    svc.start()
    try:
        responses = [alone.result(30.0)]
        burst = [svc.submit(SolveRequest(matrix=a, b=b)) for b in rhs[1:]]
        responses += [p.result(30.0) for p in burst]
    finally:
        svc.close()
    assert responses[0].batch_width == 1
    for r, b in zip(responses, rhs):
        assert r.ok and np.iscomplexobj(r.x)
        assert np.abs(r.x - solver.solve(b).x).max() <= 1e-12


def test_cold_then_warm_then_refactor_fact_modes(rng):
    d = random_nonsingular_dense(rng, 25, density=0.4, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    a_new = CSCMatrix(a.nrows, a.ncols, a.colptr, a.rowind,
                      a.nzval * 1.0001, check=False)
    with _service(cache=False) as svc:
        client = ServiceClient(svc)
        cold = client.solve(a, np.ones(25))
        warm = client.solve(a, 2.0 * np.ones(25))
        refa = client.solve(a_new, np.ones(25))
    assert (cold.fact, warm.fact, refa.fact) == \
        ("DOFACT", "FACTORED", "SAME_PATTERN_SAME_ROWPERM")
    assert cold.ok and warm.ok and refa.ok
    stats = svc.stats()
    assert (stats["service.fact_dofact"], stats["service.fact_factored"],
            stats["service.fact_same_rowperm"]) == (1, 1, 1)
    assert stats["service.reanchored"] == 0


def test_same_pattern_different_values_do_not_share_a_block_solve(rng):
    d = random_nonsingular_dense(rng, 20, density=1.0, hidden_perm=False)
    a1 = CSCMatrix.from_dense(d)
    a2 = CSCMatrix(a1.nrows, a1.ncols, a1.colptr, a1.rowind,
                   a1.nzval * 3.0, check=False)
    svc = _service(auto_start=False, cache=False)
    p1 = svc.submit(SolveRequest(matrix=a1, b=np.ones(20)))
    p2 = svc.submit(SolveRequest(matrix=a2, b=np.ones(20)))
    svc.start()
    try:
        r1, r2 = p1.result(30.0), p2.result(30.0)
    finally:
        svc.close()
    assert r1.ok and r2.ok
    assert r1.batch_width == 1 and r2.batch_width == 1
    # the two batches shared the pattern state: one factored cold, the
    # other rode the first's anchor (order depends on worker scheduling)
    assert {r1.fact, r2.fact} == {"DOFACT", "SAME_PATTERN_SAME_ROWPERM"}
    assert svc.stats()["service.batched"] == 2


def test_per_request_solve_options_split_batches_and_are_honored(rng):
    """A request with its own refinement target never coalesces into a
    batch refined against a different target, and the shared pattern
    solver is reconciled to each batch's options (not frozen at the
    first request's)."""
    d = random_nonsingular_dense(rng, 20, density=0.5, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    loose = GESPOptions(refine_eps=1e-6)
    strict = GESPOptions()               # machine-eps target
    svc = _service(auto_start=False, cache=False)
    p1 = svc.submit(SolveRequest(matrix=a, b=np.ones(20), options=loose))
    p2 = svc.submit(SolveRequest(matrix=a, b=2 * np.ones(20),
                                 options=strict))
    svc.start()
    try:
        r1, r2 = p1.result(30.0), p2.result(30.0)
    finally:
        svc.close()
    assert r1.ok and r2.ok
    assert r1.batch_width == 1 and r2.batch_width == 1
    assert svc.stats()["service.batched"] == 2
    # each report certifies against *its* target, not its neighbor's
    assert r1.report.berr <= 1e-6
    assert r2.report.berr <= np.finfo(np.float64).eps
    # identical values + identical plan: the second batch reused the
    # factors as-is, only the solve options were swapped in
    assert {r1.fact, r2.fact} == {"DOFACT", "FACTORED"}


def test_factor_option_change_forces_refactor_not_reuse(rng):
    """Same values but a different pivot policy: the cached factors are
    invalid for the new batch, so it must re-run the numeric kernels."""
    d = random_nonsingular_dense(rng, 20, density=0.5, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    svc = _service(auto_start=False, cache=False)
    p1 = svc.submit(SolveRequest(matrix=a, b=np.ones(20),
                                 options=GESPOptions()))
    p2 = svc.submit(SolveRequest(
        matrix=a, b=np.ones(20),
        options=GESPOptions(replace_tiny_pivots=False)))
    svc.start()
    try:
        r1, r2 = p1.result(30.0), p2.result(30.0)
    finally:
        svc.close()
    assert r1.ok and r2.ok
    assert r1.batch_width == 1 and r2.batch_width == 1
    assert {r1.fact, r2.fact} == {"DOFACT", "SAME_PATTERN_SAME_ROWPERM"}


# --------------------------------------------------------------------- #
# the anchor: steps (1)-(2) once per pattern, repaired when berr says so
# --------------------------------------------------------------------- #

def _rescaled(a, factor):
    return CSCMatrix(a.nrows, a.ncols, a.colptr, a.rowind,
                     a.nzval * factor, check=False)


def _stale_anchor_pair():
    """``_two_matchings`` pushed until the stale anchor really fails: the
    entries the first matrix was matched on (its diagonal) shrink to
    1e-13 in the second, so static pivots on the old matching are all
    replaced and refinement cannot certify."""
    a, a2 = _two_matchings()
    d2 = a2.to_dense()
    idx = np.arange(a.ncols)
    d2[idx, idx] = 1e-13
    moved = CSCMatrix.from_dense(d2)
    stale = GESPSolver(a, cache=False).refactor(moved)
    assert not stale.solve(moved @ np.ones(a.ncols)).converged
    return a, moved


def test_moved_matching_is_reanchored_once_and_next_request_is_warm():
    a, moved = _stale_anchor_pair()
    n = a.ncols
    tracer = Tracer()
    with use_tracer(tracer):
        svc = _service(cache=False)
    with svc:
        client = ServiceClient(svc)
        cold = client.solve(a, a @ np.ones(n))
        repaired = client.solve(moved, moved @ np.ones(n))
        again = client.solve(moved, moved @ np.arange(1.0, n + 1))
        drifted = client.solve(_rescaled(moved, 1.0001), np.ones(n))
        new_rhs = client.solve(_rescaled(moved, 1.0001), 2.0 * np.ones(n))
    responses = [cold, repaired, again, drifted, new_rhs]
    assert all(r.ok and not r.recovered for r in responses)
    assert [r.fact for r in responses] == [
        "DOFACT", "SAME_PATTERN", "FACTORED", "SAME_PATTERN_SAME_ROWPERM",
        "FACTORED"]
    np.testing.assert_allclose(repaired.x, np.ones(n), rtol=1e-8)
    # a stale anchor costs one re-anchor, not one ladder run per request:
    # the drifted follow-up certified against the *new* anchor
    stats = svc.stats()
    assert stats["service.reanchored"] == 1
    assert stats["service.fact_same_pattern"] == 1
    assert stats["service.recovered"] == 0
    # the matching did move: the re-anchor ran one cold analysis, and
    # nothing else on this pattern re-matched
    tracer.finish()
    service = tracer.root.find("service")
    assert service.all_counters()["factor.reuse_misses"] == 1
    batches = [c for c in service.children if c.name == "service/batch"]
    assert [b.attrs["reanchored"] for b in batches] == [
        False, True, False, False, False]
    assert batches[1].attrs["fact"] == "SAME_PATTERN"
    # spans of later refactorizations are appended to the first batch's
    # tree (the solver records into the tracer it was built under)
    matched = [(r.attrs["fact"], s.attrs.get("reused", False))
               for r in service.walk() if r.name == "refactor"
               for s in r.children if s.name == "rowperm"]
    assert matched == [("SAME_PATTERN_SAME_ROWPERM", True),
                       ("SAME_PATTERN", False),
                       ("SAME_PATTERN_SAME_ROWPERM", True)]


def test_uncertified_factored_column_takes_the_reanchor_path(monkeypatch, rng):
    """Stale anchor, same values as the resident factors, and a column
    the certificate rejects: re-anchored like a refactored batch, not
    handed to the ladder with the pattern state left as it was."""
    d = random_nonsingular_dense(rng, 20, density=0.5, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    a_new = _rescaled(a, 1.0001)
    original = GESPSolver.solve_multi
    armed = []

    def lying_once(self, b_block, **kw):
        res = original(self, b_block, **kw)
        if armed:
            armed.clear()
            res = res._replace(
                col_converged=np.zeros_like(res.col_converged))
        return res

    monkeypatch.setattr(GESPSolver, "solve_multi", lying_once)
    with _service(cache=False) as svc:
        client = ServiceClient(svc)
        assert client.solve(a, np.ones(20)).fact == "DOFACT"
        assert client.solve(a_new, np.ones(20)).fact == \
            "SAME_PATTERN_SAME_ROWPERM"
        armed.append(True)
        lost = client.solve(a_new, 2.0 * np.ones(20))
        after = client.solve(a_new, 3.0 * np.ones(20))
        # the anchor is now a_new's: a lost column there goes to the
        # ladder, which opens on the resident factors
        armed.append(True)
        laddered = client.solve(a_new, 4.0 * np.ones(20))
    assert lost.ok and lost.fact == "SAME_PATTERN" and not lost.recovered
    assert after.ok and after.fact == "FACTORED"
    assert laddered.ok and laddered.recovered and laddered.fact == "FACTORED"
    assert laddered.report.recovery.path == ["warm"]
    stats = svc.stats()
    assert stats["service.reanchored"] == 1
    assert stats["service.recovered"] == 1


def test_failed_refactor_keeps_the_pattern_state(monkeypatch, rng):
    """A refactorization that raises leaves the previous one in place
    (PatternSolver), so the pattern's next request is warm, not cold."""
    d = random_nonsingular_dense(rng, 20, density=0.5, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    original = GESPSolver.refactor
    failing = []

    def refactor(self, a_new, fact=None):
        if failing:
            failing.clear()
            raise RuntimeError("injected refactorization failure")
        return original(self, a_new, fact)

    monkeypatch.setattr(GESPSolver, "refactor", refactor)
    with _service(cache=False) as svc:
        client = ServiceClient(svc)
        first = client.solve(a, np.ones(20))
        failing.append(True)
        second = client.solve(_rescaled(a, 1.0001), np.ones(20))
        third = client.solve(_rescaled(a, 1.0002), np.ones(20))
        fourth = client.solve(_rescaled(a, 1.0002), 2.0 * np.ones(20))
    assert first.ok and first.fact == "DOFACT"
    assert second.ok and second.recovered      # retried alone, cold
    assert second.report.recovery.path[0] == "gesp"
    assert third.ok and third.fact == "SAME_PATTERN_SAME_ROWPERM"
    assert fourth.ok and fourth.fact == "FACTORED"
    assert svc.stats()["patterns"] == 1


def test_default_drift_newton_streams_stay_on_their_anchor():
    """32 Newton iterates per pattern at the scenario's default 8 % per
    iterate: the matching drifts, the anchor holds — no request
    re-matches, none needs the ladder."""
    from repro.workload import ScenarioSpec, generate

    tracer = Tracer()
    with use_tracer(tracer):
        svc = _service(cache=False)
    with svc:
        client = ServiceClient(svc)
        for pattern in ("cfd06", "resv02"):
            items = generate(ScenarioSpec(
                scenario="newton_drift", matrix=pattern, newton_iters=32,
                arrival="burst", seed=7))
            responses = [client.solve(it.matrix, it.b, timeout=60.0)
                         for it in items]
            assert all(r.ok and not r.recovered for r in responses)
            assert [r.fact for r in responses] == \
                ["DOFACT"] + ["SAME_PATTERN_SAME_ROWPERM"] * 31
    stats = svc.stats()
    assert stats["service.reanchored"] == 0
    assert stats["service.recovered"] == 0
    assert stats["service.fact_same_rowperm"] == 62
    tracer.finish()
    counters = tracer.root.find("service").all_counters()
    assert counters.get("factor.reuse_misses", 0) == 0
    assert counters["factor.reuse_hits"] == 62


# --------------------------------------------------------------------- #
# acceptance: overload and deadline are structured, never silent
# --------------------------------------------------------------------- #

def test_full_queue_rejects_with_service_overloaded(rng):
    a = CSCMatrix.from_dense(healthy_dense(10))
    svc = _service(queue_capacity=2, auto_start=False)
    svc.submit(SolveRequest(matrix=a, b=np.ones(10)))
    svc.submit(SolveRequest(matrix=a, b=np.ones(10)))
    with pytest.raises(ServiceOverloaded) as exc:
        svc.submit(SolveRequest(matrix=a, b=np.ones(10)))
    assert exc.value.capacity == 2
    assert svc.stats()["service.rejected_overload"] == 1
    assert svc.stats()["service.requests"] == 2
    svc.close()


def _gate_run_batch(monkeypatch):
    """Hold the service thread at the start of every ``_run_batch`` until
    ``gate`` opens; ``running`` is set once a batch is being held and
    ``served`` lists request ids in the order batches were started."""
    gate, running, served = threading.Event(), threading.Event(), []
    original = SolveService._run_batch

    def gated_run_batch(self, batch):
        served.extend(e.request.request_id for e in batch.entries)
        running.set()
        gate.wait(60.0)
        original(self, batch)

    monkeypatch.setattr(SolveService, "_run_batch", gated_run_batch)
    return gate, running, served


def _submit(svc, a, request_id, priority=None):
    return svc.submit(SolveRequest(matrix=a, b=np.ones(a.ncols),
                                   request_id=request_id,
                                   priority=priority))


def test_overload_sheds_while_a_batch_is_running(monkeypatch, rng):
    """Admitted-but-unanswered work is bounded by the running batch plus
    ``queue_capacity``: the service thread takes nothing out of the
    bounded queue while it solves, so the queue fills and submit()
    sheds load."""
    a = CSCMatrix.from_dense(healthy_dense(10))
    gate, running, _ = _gate_run_batch(monkeypatch)
    svc = _service(max_batch=1, queue_capacity=2, batch_window=0.0,
                   cache=False)
    try:
        pending = [_submit(svc, a, "running")]
        assert running.wait(30.0)        # the one batch is on the thread
        # the next two fill the bounded queue ...
        pending += [_submit(svc, a, f"queued-{i}") for i in range(2)]
        assert svc.stats()["queue_depth"] == 2
        # ... so sustained overload is shed at admission, not absorbed
        with pytest.raises(ServiceOverloaded):
            _submit(svc, a, "shed")
        assert svc.stats()["service.rejected_overload"] == 1
        gate.set()
        responses = [p.result(60.0) for p in pending]
        assert all(r.ok for r in responses)
    finally:
        gate.set()
        svc.close()


def test_priority_arrival_overtakes_backlog_behind_a_running_batch(
        monkeypatch, rng):
    """Backlog waits in the priority queue and nowhere else, so an
    arrival that outranks it is served next."""
    a = CSCMatrix.from_dense(healthy_dense(10))
    gate, running, served = _gate_run_batch(monkeypatch)
    svc = _service(max_batch=1, batch_window=0.0, cache=False)
    try:
        pending = [_submit(svc, a, "A", priority=0)]
        assert running.wait(30.0)
        pending.append(_submit(svc, a, "B", priority=0))
        time.sleep(0.2)      # time for anything that prefetches B to do so
        pending.append(_submit(svc, a, "C", priority=5))
        gate.set()
        assert all(p.result(60.0).ok for p in pending)
    finally:
        gate.set()
        svc.close()
    assert served == ["A", "C", "B"]


def test_priority_arrival_displaces_backlog_behind_a_running_batch(
        monkeypatch, rng):
    """... and against a full queue it displaces the newest of the
    lowest-priority backlog, which is told the queue was full."""
    a = CSCMatrix.from_dense(healthy_dense(10))
    gate, running, served = _gate_run_batch(monkeypatch)
    svc = _service(max_batch=1, queue_capacity=2, batch_window=0.0,
                   cache=False)
    try:
        first = _submit(svc, a, "A", priority=0)
        assert running.wait(30.0)
        kept = _submit(svc, a, "B", priority=0)
        time.sleep(0.2)      # time for anything that prefetches B to do so
        bumped = _submit(svc, a, "C", priority=0)     # the queue is full
        vip = _submit(svc, a, "D", priority=5)
        assert isinstance(bumped.result(5.0).error, ServiceOverloaded)
        assert svc.stats()["service.tenant_displaced"] == 1
        gate.set()
        assert all(p.result(60.0).ok for p in (first, kept, vip))
    finally:
        gate.set()
        svc.close()
    assert served == ["A", "D", "B"]


def test_escaped_batch_bug_fails_its_members_and_the_service_keeps_serving(
        monkeypatch, rng):
    """A bug escaping ``_run_batch`` must strand no future and must not
    take the one service thread with it."""
    a = CSCMatrix.from_dense(healthy_dense(10))
    original = SolveService._run_batch
    bugs = [ZeroDivisionError("batch bug")]

    def buggy_once(self, batch):
        if bugs:
            raise bugs.pop()
        original(self, batch)

    monkeypatch.setattr(SolveService, "_run_batch", buggy_once)
    svc = _service(auto_start=False, cache=False)
    members = [_submit(svc, a, f"m{i}") for i in range(3)]
    svc.start()
    try:
        for p in members:
            resp = p.result(30.0)
            assert type(resp.error) is ServiceError
            assert "internal service error" in str(resp.error)
            assert "batch bug" in str(resp.error)
        assert _submit(svc, a, "next").result(30.0).ok
    finally:
        svc.close()


def test_batch_window_is_measured_from_the_oldest_entry(monkeypatch, rng):
    """A fresh lone entry waits out the window and coalesces with a
    burst-mate arriving inside it; an entry that already waited the
    window behind a running batch is served without a further sleep."""
    from types import SimpleNamespace

    from repro.service import server

    window = 0.5
    sleeps = []                          # every sleep of the service thread

    def recording_sleep(seconds):
        sleeps.append(seconds)
        time.sleep(seconds)

    monkeypatch.setattr(server, "time", SimpleNamespace(sleep=recording_sleep))
    a = CSCMatrix.from_dense(healthy_dense(10))
    gate, running, served = _gate_run_batch(monkeypatch)
    svc = _service(batch_window=window, cache=False)
    try:
        burst = [_submit(svc, a, "first")]
        time.sleep(0.05)                 # well inside the window
        burst.append(_submit(svc, a, "mate"))
        assert running.wait(30.0)
        assert served == ["first", "mate"]
        assert len(sleeps) == 1 and 0 < sleeps[0] <= window
        late = _submit(svc, a, "late")
        time.sleep(window + 0.05)        # its window passes in the queue
        gate.set()
        assert late.result(30.0).batch_width == 1
        assert [p.result(30.0).batch_width for p in burst] == [2, 2]
        assert len(sleeps) == 1          # no second sleep for "late"
    finally:
        gate.set()
        svc.close()


def test_expired_entries_are_evicted_to_admit_new_work(rng):
    a = CSCMatrix.from_dense(healthy_dense(10))
    svc = _service(queue_capacity=2, auto_start=False)
    doomed = [svc.submit(SolveRequest(matrix=a, b=np.ones(10),
                                      deadline=0.0)) for _ in range(2)]
    time.sleep(0.01)                     # let both deadlines pass
    fresh = svc.submit(SolveRequest(matrix=a, b=np.ones(10)))
    for p in doomed:                     # evicted at admission, completed
        resp = p.result(5.0)
        assert isinstance(resp.error, DeadlineExceeded)
        with pytest.raises(DeadlineExceeded):
            resp.result()
    assert not fresh.done()
    assert svc.stats()["service.deadline_expired"] == 2
    svc.start()
    assert fresh.result(30.0).ok
    svc.close()


def test_request_expired_in_queue_is_never_solved(rng):
    a = CSCMatrix.from_dense(healthy_dense(10))
    svc = _service(auto_start=False)
    expired = svc.submit(SolveRequest(matrix=a, b=np.ones(10),
                                      deadline=0.0))
    live = svc.submit(SolveRequest(matrix=a, b=np.ones(10)))
    time.sleep(0.01)
    svc.start()
    try:
        r_expired = expired.result(30.0)
        r_live = live.result(30.0)
    finally:
        svc.close()
    assert isinstance(r_expired.error, DeadlineExceeded)
    assert r_expired.error.waited >= 0.0
    assert r_expired.report is None      # the solve never ran
    assert r_live.ok
    assert svc.stats()["service.deadline_expired"] == 1


# --------------------------------------------------------------------- #
# acceptance: poisoned batch member rescued, batch-mates unharmed
# --------------------------------------------------------------------- #

def test_poisoned_member_recovers_while_batch_mates_succeed():
    n = 40
    healthy = healthy_dense(n)
    a_ok = CSCMatrix.from_dense(healthy)
    a_bad = CSCMatrix.from_dense(graded_matrix(n=n, expo=-12, seed=0))
    opts = GESPOptions(**RAW_OPTS)
    # same fully-dense pattern + options: one pattern state, two batches
    assert not GESPSolver(a_bad, opts, cache=False).solve(
        a_bad @ np.ones(n)).converged

    rng = np.random.default_rng(9)
    rhs = [rng.standard_normal(n) for _ in range(7)]
    svc = _service(auto_start=False, cache=False)
    mates = [svc.submit(SolveRequest(matrix=a_ok, b=b, options=opts))
             for b in rhs]
    poisoned = svc.submit(SolveRequest(matrix=a_bad, b=a_bad @ np.ones(n),
                                       options=opts))
    svc.start()
    try:
        mate_resps = [p.result(60.0) for p in mates]
        bad_resp = poisoned.result(60.0)
    finally:
        svc.close()

    assert all(r.ok for r in mate_resps)
    assert all(r.batch_width == 7 for r in mate_resps)
    assert not any(r.recovered for r in mate_resps)
    # the poisoned request was certified by the ladder, individually
    assert bad_resp.ok
    assert bad_resp.recovered
    assert bad_resp.report.berr <= SQRT_EPS
    assert bad_resp.report.recovery is not None
    # ... on a ladder opened on the pattern's resident factors
    assert bad_resp.report.recovery.path[0] == "warm"
    assert bad_resp.report.recovery.final_rung != "warm"
    assert svc.stats()["service.recovered"] == 1


def test_unconverged_column_retries_individually(monkeypatch, rng):
    """The per-column retry path: solve_multi reports one column lost,
    only that request goes through the ladder."""
    d = random_nonsingular_dense(rng, 20, density=0.5, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    original = GESPSolver.solve_multi

    def lying_solve_multi(self, b_block, **kw):
        res = original(self, b_block, **kw)
        cc = np.asarray(res.col_converged).copy()
        cc[0] = False                    # claim the first column lost
        return res._replace(col_converged=cc)

    monkeypatch.setattr(GESPSolver, "solve_multi", lying_solve_multi)

    rhs = [rng.standard_normal(20) for _ in range(4)]
    svc = _service(auto_start=False, cache=False)
    pending = [svc.submit(SolveRequest(matrix=a, b=b)) for b in rhs]
    svc.start()
    try:
        responses = [p.result(60.0) for p in pending]
    finally:
        svc.close()
    assert all(r.ok for r in responses)
    assert responses[0].recovered        # column 0's owner went to the ladder
    assert responses[0].report.recovery is not None
    assert not any(r.recovered for r in responses[1:])
    assert svc.stats()["service.recovered"] == 1


# --------------------------------------------------------------------- #
# registered matrices, lifecycle, concurrency
# --------------------------------------------------------------------- #

def test_registered_pattern_key_and_unknown_key(rng):
    d = random_nonsingular_dense(rng, 15, density=0.5, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    with _service(cache=False) as svc:
        svc.register_matrix("demo", a)
        resp = ServiceClient(svc).solve("demo", a @ np.ones(15))
        assert resp.ok
        np.testing.assert_allclose(resp.x, np.ones(15), rtol=1e-8)
        with pytest.raises(KeyError):
            svc.submit(SolveRequest(matrix="nope", b=np.ones(15)))
        with pytest.raises(ValueError):
            svc.submit(SolveRequest(matrix="demo", b=np.ones(3)))


def test_closed_service_rejects_submissions_and_completes_queued(rng):
    a = CSCMatrix.from_dense(healthy_dense(10))
    svc = _service(auto_start=False)
    queued = svc.submit(SolveRequest(matrix=a, b=np.ones(10)))
    svc.close()                          # never started: nothing may hang
    resp = queued.result(5.0)
    assert isinstance(resp.error, ServiceClosed)
    with pytest.raises(ServiceClosed):
        svc.submit(SolveRequest(matrix=a, b=np.ones(10)))
    with pytest.raises(ServiceClosed):
        svc.start()
    svc.close()                          # idempotent


def test_started_service_owns_exactly_one_thread(rng):
    a = CSCMatrix.from_dense(healthy_dense(10))
    before = set(threading.enumerate())
    svc = _service(auto_start=False, cache=False)
    assert set(threading.enumerate()) == before
    svc.start()
    owned = set(threading.enumerate()) - before
    assert len(owned) == 1
    assert svc.submit(SolveRequest(matrix=a, b=np.ones(10))).result(30.0).ok
    assert set(threading.enumerate()) - before == owned
    svc.close()
    assert set(threading.enumerate()) == before


def test_concurrent_submitters_all_get_their_own_answer(rng):
    """Many threads hammering submit concurrently: every caller gets a
    certified response to *its* right-hand side."""
    n = 24
    d = random_nonsingular_dense(rng, n, density=0.5, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    solver = GESPSolver(a, cache=False)
    n_threads, per_thread = 6, 5
    results = {}
    lock = threading.Lock()

    with _service(cache=False) as svc:
        svc.register_matrix("m", a)
        client = ServiceClient(svc)

        def caller(tid):
            local_rng = np.random.default_rng(1000 + tid)
            out = []
            for _ in range(per_thread):
                b = local_rng.standard_normal(n)
                out.append((b, client.solve("m", b, timeout=60.0)))
            with lock:
                results[tid] = out

        threads = [threading.Thread(target=caller, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)

    assert sorted(results) == list(range(n_threads))
    for tid, out in results.items():
        for b, resp in out:
            assert resp.ok
            expected = solver.solve(b)
            np.testing.assert_allclose(resp.x, expected.x,
                                       rtol=1e-9, atol=1e-12)
    stats = svc.stats()
    assert stats["service.requests"] == n_threads * per_thread
    # every request was answered from a batch (coalesced or singleton)
    assert stats["service.coalesce_width"] == n_threads * per_thread


# --------------------------------------------------------------------- #
# observability: one coherent trace from a concurrent run
# --------------------------------------------------------------------- #

def test_service_span_carries_counters_and_batch_children(rng):
    d = random_nonsingular_dense(rng, 20, density=0.5, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    tracer = Tracer()
    with use_tracer(tracer):
        svc = _service(auto_start=False, cache=False)
        pending = [svc.submit(SolveRequest(matrix=a,
                                           b=rng.standard_normal(20)))
                   for _ in range(5)]
        svc.start()
        for p in pending:
            assert p.result(30.0).ok
        svc.close()
    tracer.finish()
    spans = {s.name: s for s in tracer.root.walk()}
    assert "service" in spans
    service_span = spans["service"]
    assert service_span.counters["service.requests"] == 5
    assert service_span.counters["service.batched"] == 1
    assert service_span.counters["service.coalesce_width"] == 5
    batch_spans = [c for c in service_span.children
                   if c.name == "service/batch"]
    assert len(batch_spans) == 1
    assert batch_spans[0].attrs["width"] == 5
    assert batch_spans[0].attrs["fact"] == "DOFACT"
    # the numeric work is visible *inside* the batch span
    child_names = {s.name for s in batch_spans[0].walk()}
    assert any("factor" in name for name in child_names)


def test_plan_published_to_cache_for_cold_pattern(rng):
    d = random_nonsingular_dense(rng, 18, density=0.5, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    cache = FactorizationCache(maxsize=4)
    with _service(cache=cache) as svc:
        assert ServiceClient(svc).solve(a, np.ones(18)).ok
    assert cache.stats().size == 1       # DOFACT published its plan
