"""The sharded serving tier (repro.service.shard).

Process-spawning tests keep the fleet small (2 shards, n≈25 matrices)
and skip cleanly where the multiprocessing spawn context is
unavailable.  The pure pieces — rendezvous routing, spool persistence,
message/error pickling, a worker's responses — are tested without
processes.

The acceptance behaviors from the issue are all here: routing
determinism, bit-identical solutions vs the single-process service
(coalescing pinned off — max_batch=1 — since joint block refinement
makes wide-batch low bits composition-dependent), a killed shard
failing in-flight requests with structured ShardDied and respawning,
overload isolated to one shard, and a warm start from the spool.
"""

import multiprocessing as mp
import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

from repro import CSCMatrix
from repro.driver.factcache import FactorizationCache
from repro.service import (
    DeadlineExceeded,
    ServiceClosed,
    ServiceConfig,
    ServiceError,
    ServiceOverloaded,
    ShardDied,
    ShardedSolveService,
    SolveRequest,
    SolveResponse,
    SolveService,
    UnknownMatrixError,
)
from repro.service.shard import routing, spool
from repro.service.shard.messages import SubmitMsg
from repro.sparse.ops import pattern_fingerprint

try:
    mp.get_context("spawn")
    _HAVE_SPAWN = True
except ValueError:                     # pragma: no cover - exotic platform
    _HAVE_SPAWN = False

needs_spawn = pytest.mark.skipif(
    not _HAVE_SPAWN, reason="multiprocessing spawn context unavailable")


def sparse_matrix(n=25, seed=0, density=0.3):
    """A well-conditioned sparse test matrix with a seed-specific
    pattern (different seeds ⇒ different fingerprints)."""
    r = np.random.default_rng(seed)
    d = np.diag(r.uniform(2, 3, n)) + 0.1 * r.standard_normal((n, n))
    mask = r.random((n, n)) < density
    np.fill_diagonal(mask, True)
    return CSCMatrix.from_dense(np.where(mask, d, 0.0))


def _cfg(**kw):
    kw.setdefault("batch_window", 0.0)
    kw.setdefault("max_batch", 1)
    return ServiceConfig(**kw)


def _matrix_routed_to(target_shard, shards=2, n=25, max_tries=64):
    """A matrix whose pattern HRW-routes to ``target_shard``."""
    for seed in range(max_tries):
        a = sparse_matrix(n=n, seed=100 + seed)
        if routing.route(pattern_fingerprint(a),
                         range(shards)) == target_shard:
            return a
    raise AssertionError("no matrix routed to the target shard")


# --------------------------------------------------------------------- #
# routing: pure, deterministic, minimal-movement
# --------------------------------------------------------------------- #

def test_routing_is_deterministic_and_order_independent():
    fp = pattern_fingerprint(sparse_matrix(seed=3))
    rank = routing.rendezvous_rank(fp, [0, 1, 2, 3])
    assert rank == routing.rendezvous_rank(fp, [3, 1, 0, 2])
    assert sorted(rank) == [0, 1, 2, 3]
    assert routing.route(fp, [0, 1, 2, 3]) == rank[0]
    # repeated calls never disagree (no per-process hash salt)
    assert all(routing.rendezvous_rank(fp, [0, 1, 2, 3]) == rank
               for _ in range(10))


def test_routing_spreads_patterns_across_shards():
    fps = [pattern_fingerprint(sparse_matrix(seed=s)) for s in range(32)]
    owners = {routing.route(fp, range(4)) for fp in fps}
    assert owners == {0, 1, 2, 3}


def test_removing_a_shard_only_moves_its_patterns():
    fps = [pattern_fingerprint(sparse_matrix(seed=s)) for s in range(32)]
    before = {fp: routing.route(fp, range(4)) for fp in fps}
    after = {fp: routing.route(fp, [0, 1, 2]) for fp in fps}
    for fp in fps:
        if before[fp] != 3:            # survivors keep their patterns
            assert after[fp] == before[fp]
        else:                          # shard 3's patterns re-route
            assert after[fp] in (0, 1, 2)


# --------------------------------------------------------------------- #
# messages: pickling, deadlines in transit, unpicklable answers
# --------------------------------------------------------------------- #

def test_structured_errors_survive_pickling():
    o = pickle.loads(pickle.dumps(ServiceOverloaded(8, 9, shard=3)))
    assert (o.capacity, o.pending, o.shard) == (8, 9, 3)
    assert "shard 3" in str(o)
    d = pickle.loads(pickle.dumps(DeadlineExceeded(0.5, 0.75)))
    assert (d.deadline, d.waited) == (0.5, 0.75)
    s = pickle.loads(pickle.dumps(ShardDied(2, exitcode=-9)))
    assert (s.shard, s.exitcode) == (2, -9)


def test_transit_time_is_charged_against_the_deadline():
    msg = SubmitMsg(router_id="r", request_id="q", matrix="m",
                    deadline_remaining=0.5,
                    t_sent_wall=time.time() - 0.2)
    assert msg.remaining_deadline() == pytest.approx(0.3, abs=0.05)
    overdue = SubmitMsg(router_id="r", request_id="q", matrix="m",
                        deadline_remaining=0.1,
                        t_sent_wall=time.time() - 5.0)
    assert overdue.remaining_deadline() == 0.0   # clamped, never negative
    nolimit = SubmitMsg(router_id="r", request_id="q", matrix="m")
    assert nolimit.remaining_deadline() is None


class _UnpicklableError(ServiceError):
    def __reduce__(self):
        raise TypeError("this error does not pickle")


@needs_spawn
def test_unpicklable_response_is_answered_with_a_structured_error():
    """``Queue.put`` pickles on a feeder thread, where a failure is only
    printed; the worker pickles first, so the caller still gets an
    answer naming the shard."""
    from repro.service.shard.worker import _ShardWorker

    response_q = mp.get_context("spawn").Queue()
    worker = _ShardWorker(3, _cfg(), request_q=None, response_q=response_q)
    try:
        worker._respond(
            SubmitMsg(router_id="r-7", request_id="q", matrix="m"),
            SolveResponse(request_id="q", error=_UnpicklableError("x")))
        msg = pickle.loads(response_q.get(timeout=10.0))
    finally:
        worker.service.close()
        response_q.close()
        response_q.join_thread()
    assert (msg.shard_id, msg.router_id) == (3, "r-7")
    error = msg.response.error
    assert type(error) is ServiceError
    assert "shard 3 could not serialize the response" in str(error)
    assert msg.response.request_id == "q"


# --------------------------------------------------------------------- #
# spool: persistence, tolerance, content addressing
# --------------------------------------------------------------------- #

def _plans_for(matrices):
    """Factor each matrix once against a private cache; return it."""
    from repro.driver import GESPSolver

    cache = FactorizationCache(maxsize=32)
    for a in matrices:
        GESPSolver(a, cache=cache).solve(a @ np.ones(a.ncols))
    return cache


def test_spool_roundtrip_and_idempotence(tmp_path):
    cache = _plans_for([sparse_matrix(seed=s) for s in range(3)])
    plans = cache.snapshot()
    seen = set()
    assert spool.save_plans(tmp_path, plans, seen) == 3
    assert spool.save_plans(tmp_path, plans, seen) == 0   # already spooled
    fresh = FactorizationCache(maxsize=32)
    assert spool.load_plans(tmp_path, fresh) == 3
    assert {p.key for p in fresh.snapshot()} == {p.key for p in plans}


def test_spool_skips_torn_and_foreign_files(tmp_path):
    from repro.obs import Tracer, use_tracer

    cache = _plans_for([sparse_matrix(seed=9)])
    spool.save_plans(tmp_path, cache.snapshot(), set())
    (tmp_path / "torn.plan.pkl").write_bytes(b"\x80\x04 this is not")
    (tmp_path / "foreign.plan.pkl").write_bytes(
        pickle.dumps({"schema": "spool/v999", "key": (), "plan": None}))
    fresh = FactorizationCache(maxsize=32)
    tracer = Tracer()
    with use_tracer(tracer), pytest.warns(spool.SpoolSkipWarning) as rec:
        assert spool.load_plans(tmp_path, fresh) == 1
    tracer.finish()
    # skips are loud, not silent: one summary warning naming the files
    # plus a cataloged counter with the per-call count
    assert tracer.root.all_counters()["spool.load_skipped"] == 2
    msg = str(rec.list[0].message)
    assert "torn.plan.pkl" in msg and "foreign.plan.pkl" in msg
    assert "skipped 2 of 3" in msg


def test_spool_v1_plans_are_skipped_not_half_loaded(tmp_path):
    """A plan spooled before PatternPlan carried a value map and a block
    schedule unpickles without those attributes; loading it would fail
    at the first warm refactorization inside a shard.  Its schema tag
    sends it down the skip path instead, and the pattern starts cold."""
    import copy

    from repro.driver import GESPOptions, GESPSolver

    a = sparse_matrix(seed=9)
    plan = _plans_for([a]).snapshot()[0]
    old = copy.copy(plan)
    del old.__dict__["value_map"], old.__dict__["block_plan"]
    spool.spool_path(tmp_path, plan.key).write_bytes(pickle.dumps(
        {"schema": "spool/v1", "key": plan.key, "plan": old}))
    assert not hasattr(pickle.loads(spool.spool_path(
        tmp_path, plan.key).read_bytes())["plan"], "value_map")

    fresh = FactorizationCache(maxsize=32)
    with pytest.warns(spool.SpoolSkipWarning, match="spool/v1"):
        assert spool.load_plans(tmp_path, fresh) == 0
    assert len(fresh) == 0
    warm = GESPSolver(a, GESPOptions(fact="SAME_PATTERN"), cache=fresh)
    assert warm.solve(a @ np.ones(a.ncols)).converged
    # what the current code spools is loadable by the current code
    spool.save_plans(tmp_path, fresh.snapshot(), set())
    assert spool.load_plans(tmp_path, FactorizationCache()) == 1


def test_spooled_ata_plans_are_never_served_to_the_default_ordering(
        tmp_path):
    """A ``spool/v8`` file written while the serial default ordered AᵀA
    is keyed with ``"mmd_ata"``: the key carries the resolved ordering,
    so a default solver (Aᵀ+A) misses it and orders cold, while an
    explicit AᵀA request is still served from it — no schema bump."""
    from dataclasses import replace

    from repro.driver import GESPOptions, GESPSolver
    from repro.obs import Tracer

    a = sparse_matrix(seed=9)
    ata = GESPOptions(col_perm="mmd_ata")
    cache = FactorizationCache(maxsize=32)
    GESPSolver(a, ata, cache=cache)
    spool.save_plans(tmp_path, cache.snapshot(), set())
    fresh = FactorizationCache(maxsize=32)
    assert spool.load_plans(tmp_path, fresh) == 1
    for opts, hit in ((GESPOptions(fact="SAME_PATTERN"), False),
                      (GESPOptions(col_perm="mmd_ata", fact="SAME_PATTERN"),
                       True)):
        tracer = Tracer()
        warm = GESPSolver(a, opts, tracer=tracer, cache=fresh)
        counters = tracer.root.all_counters()
        assert counters.get("factor.reuse_hits", 0) == hit
        cold = GESPSolver(a, replace(opts, fact="DOFACT"), cache=False)
        assert np.array_equal(warm.perm_c, cold.perm_c)
    assert not np.array_equal(
        GESPSolver(a, cache=False).perm_c, GESPSolver(a, ata, cache=False).perm_c)


def test_spool_v2_plans_are_skipped_not_half_loaded(tmp_path):
    """A plan spooled before BlockPlan carried the solve schedule would
    load, factor, and then quietly solve through the column sweeps.  Its
    schema tag sends it down the skip path; the pattern starts cold and
    comes back with a schedule."""
    import copy

    from repro.driver import GESPOptions, GESPSolver

    a = sparse_matrix(seed=9)
    plan = _plans_for([a]).snapshot()[0]
    old = copy.copy(plan)
    old.block_plan = copy.copy(plan.block_plan)
    del old.block_plan.__dict__["solve"]
    spool.spool_path(tmp_path, plan.key).write_bytes(pickle.dumps(
        {"schema": "spool/v2", "key": plan.key, "plan": old}))

    fresh = FactorizationCache(maxsize=32)
    with pytest.warns(spool.SpoolSkipWarning, match="spool/v2"):
        assert spool.load_plans(tmp_path, fresh) == 0
    assert len(fresh) == 0
    warm = GESPSolver(a, GESPOptions(fact="SAME_PATTERN"), cache=fresh)
    assert warm.factors.sweeps is not None
    assert warm.solve(a @ np.ones(a.ncols)).converged
    spool.save_plans(tmp_path, fresh.snapshot(), set())
    reloaded = FactorizationCache()
    assert spool.load_plans(tmp_path, reloaded) == 1
    assert reloaded.snapshot()[0].block_plan.solve is not None


def test_spool_v3_plans_under_a_dead_key_are_skipped_not_counted_warm(
        tmp_path):
    """Until the kernel-backend knob went, plan keys ended in the backend
    name.  A v3 file is a whole plan under a key nothing looks up any
    more: loading it would report a warm start that every first request
    still pays cold for.  The schema tag skips it, loudly."""
    import copy

    from repro.obs import Tracer, use_tracer

    plan = _plans_for([sparse_matrix(seed=9)]).snapshot()[0]
    assert plan.key[-1] == "symmetrized"       # no trailing backend name
    old = copy.copy(plan)
    old.key = plan.key + ("reference",)
    spool.spool_path(tmp_path, old.key).write_bytes(pickle.dumps(
        {"schema": "spool/v3", "key": old.key, "plan": old}))

    fresh = FactorizationCache(maxsize=32)
    tracer = Tracer()
    with use_tracer(tracer), \
            pytest.warns(spool.SpoolSkipWarning, match="spool/v3"):
        assert spool.load_plans(tmp_path, fresh) == 0
    tracer.finish()
    assert len(fresh) == 0
    assert tracer.root.all_counters()["spool.load_skipped"] == 1


def test_spool_v4_plans_without_runs_are_skipped_not_half_loaded(tmp_path):
    """A plan spooled before BlockPlan carried the run schedule unpickles
    without ``runs`` and would fail inside the first request's numeric
    pass.  Its schema tag sends it down the skip path, loudly; the
    pattern starts cold and comes back with its runs."""
    import copy

    from repro.driver import GESPOptions, GESPSolver
    from repro.obs import Tracer, use_tracer

    a = sparse_matrix(seed=9)
    plan = _plans_for([a]).snapshot()[0]
    old = copy.copy(plan)
    old.block_plan = copy.copy(plan.block_plan)
    del old.block_plan.__dict__["runs"]
    spool.spool_path(tmp_path, plan.key).write_bytes(pickle.dumps(
        {"schema": "spool/v4", "key": plan.key, "plan": old}))
    assert not hasattr(pickle.loads(spool.spool_path(
        tmp_path, plan.key).read_bytes())["plan"].block_plan, "runs")

    fresh = FactorizationCache(maxsize=32)
    tracer = Tracer()
    with use_tracer(tracer), \
            pytest.warns(spool.SpoolSkipWarning, match="spool/v4"):
        assert spool.load_plans(tmp_path, fresh) == 0
    tracer.finish()
    assert len(fresh) == 0
    assert tracer.root.all_counters()["spool.load_skipped"] == 1
    warm = GESPSolver(a, GESPOptions(fact="SAME_PATTERN"), cache=fresh)
    assert warm.solve(a @ np.ones(a.ncols)).converged
    spool.save_plans(tmp_path, fresh.snapshot(), set())
    reloaded = FactorizationCache()
    assert spool.load_plans(tmp_path, reloaded) == 1
    assert reloaded.snapshot()[0].block_plan.runs


def test_spool_v5_plans_with_consecutive_runs_are_skipped(tmp_path):
    """A plan spooled while ``runs`` held ``(k0, k1, run)`` stretches of
    consecutive supernodes unpickles whole, and the numeric pass would
    misread its tuples as ``(members, run)`` steps.  Its schema tag sends
    it down the skip path, loudly; the pattern starts cold and comes
    back with steps."""
    import copy

    from repro.driver import GESPOptions, GESPSolver
    from repro.obs import Tracer, use_tracer

    a = sparse_matrix(seed=9)
    plan = _plans_for([a]).snapshot()[0]
    old = copy.copy(plan)
    old.block_plan = copy.copy(plan.block_plan)
    old.block_plan.runs = [(0, plan.block_plan.part.nsuper, None)]
    spool.spool_path(tmp_path, plan.key).write_bytes(pickle.dumps(
        {"schema": "spool/v5", "key": plan.key, "plan": old}))

    fresh = FactorizationCache(maxsize=32)
    tracer = Tracer()
    with use_tracer(tracer), \
            pytest.warns(spool.SpoolSkipWarning, match="spool/v5"):
        assert spool.load_plans(tmp_path, fresh) == 0
    tracer.finish()
    assert len(fresh) == 0
    assert tracer.root.all_counters()["spool.load_skipped"] == 1
    warm = GESPSolver(a, GESPOptions(fact="SAME_PATTERN"), cache=fresh)
    assert warm.solve(a @ np.ones(a.ncols)).converged
    spool.save_plans(tmp_path, fresh.snapshot(), set())
    reloaded = FactorizationCache()
    assert spool.load_plans(tmp_path, reloaded) == 1
    runs = reloaded.snapshot()[0].block_plan.runs
    assert sorted(k for members, _ in runs for k in members) == \
        list(range(plan.block_plan.part.nsuper))


def test_spool_v6_plans_keyed_with_a_factor_dtype_are_skipped(tmp_path):
    """Until factors became double precision only, plan keys ended in
    the factor dtype.  A v6 file is a whole plan under a key nothing
    looks up any more: loaded, it would count as warm and never be
    found.  Its schema tag sends it down the skip path, loudly; the
    pattern starts cold and comes back under the current key."""
    import copy

    from repro.driver import GESPOptions, GESPSolver
    from repro.obs import Tracer, use_tracer

    a = sparse_matrix(seed=9)
    plan = _plans_for([a]).snapshot()[0]
    old = copy.copy(plan)
    old.key = plan.key + ("float64",)
    spool.spool_path(tmp_path, old.key).write_bytes(pickle.dumps(
        {"schema": "spool/v6", "key": old.key, "plan": old}))

    fresh = FactorizationCache(maxsize=32)
    tracer = Tracer()
    with use_tracer(tracer), \
            pytest.warns(spool.SpoolSkipWarning, match="spool/v6"):
        assert spool.load_plans(tmp_path, fresh) == 0
    tracer.finish()
    assert len(fresh) == 0
    assert tracer.root.all_counters()["spool.load_skipped"] == 1
    warm = GESPSolver(a, GESPOptions(fact="SAME_PATTERN"), cache=fresh)
    assert warm.solve(a @ np.ones(a.ncols)).converged
    spool.save_plans(tmp_path, fresh.snapshot(), set())
    reloaded = FactorizationCache()
    # the new file sits beside the stale one, which is skipped again
    with pytest.warns(spool.SpoolSkipWarning, match="spool/v6"):
        assert spool.load_plans(tmp_path, reloaded) == 1
    assert reloaded.snapshot()[0].key == plan.key


def test_spool_v7_plans_with_an_unrelaxed_schedule_are_skipped(tmp_path):
    """Until both engines shared one partition rule, the serial block
    schedule was built on the unrelaxed partition, under a key that names
    no partition.  A v7 file is such a plan under today's key: found, it
    would refactor on a schedule a cold run no longer computes.  Its
    schema tag sends it down the skip path, loudly; the pattern starts
    cold and comes back on the rule's partition."""
    import copy

    from repro.driver import GESPOptions, GESPSolver
    from repro.factor.blockplan import build_block_plan
    from repro.matrices import matrix_by_name
    from repro.obs import Tracer, use_tracer
    from repro.symbolic import block_partition, find_supernodes, \
        split_supernodes

    a = matrix_by_name("cfd01").build()
    cache = FactorizationCache(maxsize=32)
    at = GESPSolver(a, cache=cache).a_factored
    plan = cache.snapshot()[0]
    sym = plan.symbolic
    old = copy.copy(plan)
    old.block_plan = build_block_plan(
        at, sym, split_supernodes(find_supernodes(sym)))
    assert old.block_plan.part.nsuper > plan.block_plan.part.nsuper
    spool.spool_path(tmp_path, plan.key).write_bytes(pickle.dumps(
        {"schema": "spool/v7", "key": plan.key, "plan": old}))

    fresh = FactorizationCache(maxsize=32)
    tracer = Tracer()
    with use_tracer(tracer), \
            pytest.warns(spool.SpoolSkipWarning, match="spool/v7"):
        assert spool.load_plans(tmp_path, fresh) == 0
    tracer.finish()
    assert len(fresh) == 0
    assert tracer.root.all_counters()["spool.load_skipped"] == 1
    warm = GESPSolver(a, GESPOptions(fact="SAME_PATTERN"), cache=fresh)
    assert warm.solve(a @ np.ones(a.ncols)).converged
    spool.save_plans(tmp_path, fresh.snapshot(), set())
    reloaded = FactorizationCache()
    assert spool.load_plans(tmp_path, reloaded) == 1
    assert np.array_equal(reloaded.snapshot()[0].block_plan.part.xsup,
                          block_partition(sym).xsup)


def test_spool_clean_load_emits_no_warning(tmp_path, recwarn):
    cache = _plans_for([sparse_matrix(seed=9)])
    spool.save_plans(tmp_path, cache.snapshot(), set())
    fresh = FactorizationCache(maxsize=32)
    assert spool.load_plans(tmp_path, fresh) == 1
    assert not [w for w in recwarn.list
                if isinstance(w.message, spool.SpoolSkipWarning)]


def test_spool_path_is_content_addressed(tmp_path):
    key_a = ("serial", "fp-a", True, "mc64_product")
    key_b = ("serial", "fp-b", True, "mc64_product")
    assert spool.spool_path(tmp_path, key_a) == \
        spool.spool_path(tmp_path, key_a)
    assert spool.spool_path(tmp_path, key_a) != \
        spool.spool_path(tmp_path, key_b)


# --------------------------------------------------------------------- #
# the tier end to end (spawned processes)
# --------------------------------------------------------------------- #

@needs_spawn
@pytest.mark.parametrize("coalescing", [
    {}, dict(max_batch=8, batch_window=0.005)], ids=["singletons", "batched"])
def test_sharded_solutions_are_bit_identical_to_single_process(coalescing):
    """With coalescing on too: a column of a block is refined by its own
    berr, so an answer does not depend on how either tier batched it."""
    mats = [sparse_matrix(seed=s) for s in range(4)]
    rng = np.random.default_rng(11)
    rhs = [rng.standard_normal(25) for _ in range(12)]

    with SolveService(_cfg(**coalescing), cache=FactorizationCache()) as svc:
        pend = [svc.submit(SolveRequest(matrix=mats[i % 4], b=rhs[i]))
                for i in range(12)]
        ref = [p.result(60.0) for p in pend]
    assert all(r.ok for r in ref)

    with ShardedSolveService(shards=2, config=_cfg(**coalescing)) as tier:
        pend = [tier.submit(SolveRequest(matrix=mats[i % 4], b=rhs[i]))
                for i in range(12)]
        res = [p.result(120.0) for p in pend]
    assert all(r.ok for r in res), [r.error for r in res]
    for a, b in zip(ref, res):
        np.testing.assert_array_equal(a.x, b.x)
        assert a.report.berr == b.report.berr
        assert a.report.refine_steps == b.report.refine_steps
    stats = tier.stats()
    assert stats["service.shard.requests"] == 12
    assert stats["service.shard.completed"] == 12
    assert stats["service.shard.deaths"] == 0
    # post-drain merge of the inner services' counters
    assert stats["service.requests"] == 12


@needs_spawn
def test_sharded_newton_streams_are_bit_identical_to_single_process():
    """A warm answer is a function of (A, b, anchor), and the anchor of
    the pattern's request order: the same per-pattern order through
    either tier gives the same bits, berr, step counts and modes — a
    re-anchor included."""
    from test_service import _rescaled, _stale_anchor_pair

    rng = np.random.default_rng(13)
    streams = []
    for seed in (0, 1):
        a = sparse_matrix(seed=seed)
        stream = [a]
        for _ in range(7):               # 8 % per iterate, compounding
            stream.append(CSCMatrix(
                a.nrows, a.ncols, a.colptr, a.rowind,
                stream[-1].nzval * (1 + 0.08 * rng.standard_normal(a.nnz)),
                check=False))
        streams.append(stream)
    anchor, moved = _stale_anchor_pair()
    streams.append([anchor, moved, moved, _rescaled(moved, 1.0001)])
    requests = [(a, rng.standard_normal(a.ncols))
                for step in range(8) for stream in streams
                for a in stream[step:step + 1]]

    def run(service):
        with service as svc:
            pend = [svc.submit(SolveRequest(matrix=a, b=b))
                    for a, b in requests]
            return [p.result(120.0) for p in pend], svc

    ref, svc = run(SolveService(_cfg(), cache=FactorizationCache()))
    res, tier = run(ShardedSolveService(shards=2, config=_cfg()))
    assert all(r.ok and not r.recovered for r in ref)
    assert {r.fact for r in ref} == {
        "DOFACT", "SAME_PATTERN_SAME_ROWPERM", "SAME_PATTERN", "FACTORED"}
    for a, b in zip(ref, res):
        assert b.ok, b.error
        np.testing.assert_array_equal(a.x, b.x)
        assert a.report.berr == b.report.berr
        assert a.report.refine_steps == b.report.refine_steps
        assert (a.fact, a.recovered) == (b.fact, b.recovered)
    for key in ("service.reanchored", "service.fact_same_rowperm",
                "service.fact_same_pattern", "service.fact_factored"):
        assert tier.stats()[key] == svc.stats()[key], key
    assert svc.stats()["service.reanchored"] == 1


@needs_spawn
def test_complex_system_is_rejected_at_submit_not_truncated():
    """The tier's messages carry float64: a complex matrix or
    right-hand side is refused, as the distributed driver refuses one."""
    a = sparse_matrix(seed=5)
    ac = CSCMatrix(a.nrows, a.ncols, a.colptr, a.rowind,
                   a.nzval * (1.0 + 0.5j), check=False)
    with ShardedSolveService(shards=1, config=_cfg()) as tier:
        tier.register_matrix("complex", ac)
        for matrix, b in ((a, np.ones(25) * 1j), (ac, np.ones(25)),
                          ("complex", np.ones(25))):
            with pytest.raises(TypeError, match="real-only"):
                tier.submit(SolveRequest(matrix=matrix, b=b))
        assert tier.submit(SolveRequest(matrix=a, b=np.ones(25))) \
            .result(60.0).ok
    assert tier.stats()["service.shard.requests"] == 1


@needs_spawn
def test_registered_matrix_key_routes_and_solves():
    a = sparse_matrix(seed=5)
    b = np.ones(25)
    with ShardedSolveService(shards=2, config=_cfg()) as tier:
        tier.register_matrix("jac", a)
        r = tier.submit(SolveRequest(matrix="jac", b=b)).result(60.0)
        with pytest.raises(Exception, match="not registered"):
            tier.submit(SolveRequest(matrix="nope", b=b))
    assert r.ok


@needs_spawn
@pytest.mark.parametrize("tier", ["service", "shards"])
def test_keyed_request_is_checked_at_submit_on_both_tiers(tier):
    """An unknown matrix key and a ``b`` of the wrong length are refused
    by ``submit`` itself, with the same errors on both tiers, before a
    queue or a quota token is touched — not shipped to a shard
    and handed back as a failed future."""
    a = sparse_matrix(seed=5)
    service = (SolveService(_cfg(), cache=False) if tier == "service"
               else ShardedSolveService(shards=2, config=_cfg()))
    with service as svc:
        svc.register_matrix("jac", a)
        with pytest.raises(UnknownMatrixError, match="not registered") as exc:
            svc.submit(SolveRequest(matrix="nope", b=np.ones(25)))
        assert isinstance(exc.value, KeyError) and exc.value.key == "nope"
        assert str(exc.value).startswith("matrix key 'nope'")
        assert pickle.loads(pickle.dumps(exc.value)).key == "nope"
        with pytest.raises(ValueError, match="b has length 3 .* order 25"):
            svc.submit(SolveRequest(matrix="jac", b=np.ones(3)))
        assert svc.submit(SolveRequest(matrix="jac", b=a @ np.ones(25))) \
            .result(60.0).ok
        stats = svc.stats()
    admitted = ("service.requests" if tier == "service"
                else "service.shard.requests")
    assert stats[admitted] == 1                # the refused two never got in


@needs_spawn
@pytest.mark.parametrize("tier", ["service", "shards"])
def test_registry_follows_one_rule_on_both_tiers(tier):
    """A matrix registered before ``start`` is served by key once the
    tier is up (every spawn replays the registry), and a closed tier
    refuses a registration with ``ServiceClosed``: the same on both
    tiers, since both register through the same front door."""
    a = sparse_matrix(seed=5)
    service = (SolveService(_cfg(), cache=False, auto_start=False)
               if tier == "service" else
               ShardedSolveService(shards=2, config=_cfg(), auto_start=False))
    service.register_matrix("k", a)
    with service as svc:
        resp = svc.submit(SolveRequest(matrix="k", b=a @ np.ones(25))) \
            .result(60.0)
    assert resp.ok, resp.error
    np.testing.assert_allclose(resp.x, np.ones(25), rtol=1e-8)
    with pytest.raises(ServiceClosed):
        service.register_matrix("late", a)


@needs_spawn
def test_overload_is_isolated_to_one_shard():
    a0 = _matrix_routed_to(0)
    a1 = _matrix_routed_to(1)
    with ShardedSolveService(shards=2,
                             config=_cfg(queue_capacity=3)) as tier:
        tier.pause_shard(0, 3.0)       # shard 0 stops consuming
        time.sleep(0.3)
        held = [tier.submit(SolveRequest(matrix=a0, b=np.ones(25)))
                for _ in range(3)]     # fill shard 0's window
        with pytest.raises(ServiceOverloaded) as exc:
            tier.submit(SolveRequest(matrix=a0, b=np.ones(25)))
        assert exc.value.shard == 0
        # shard 1 keeps admitting and solving
        other = tier.submit(SolveRequest(matrix=a1, b=np.ones(25)))
        assert other.result(60.0).ok
        # once the pause ends the held requests complete normally
        assert all(p.result(120.0).ok for p in held)
    assert tier.stats()["service.shard.rejected_overload"] == 1


@needs_spawn
def test_shard_spans_count_their_own_completions():
    from repro.obs import Tracer

    a0, a1 = _matrix_routed_to(0), _matrix_routed_to(1)
    tracer = Tracer()
    with ShardedSolveService(shards=2, config=_cfg(),
                             tracer=tracer) as tier:
        pend = [tier.submit(SolveRequest(matrix=a, b=np.ones(25)))
                for a in (a0, a0, a1)]
        assert all(p.result(120.0).ok for p in pend)
    tracer.finish()
    spans = [tracer.root.find(f"shard[{i}]") for i in range(2)]
    assert [s.attrs["routed"] for s in spans] == [2, 1]
    assert [s.attrs["completed"] for s in spans] == [2, 1]
    assert tier.stats()["service.shard.completed"] == 3


def _feeder_threads():
    return {t for t in threading.enumerate()
            if t.name == "QueueFeederThread"}


@needs_spawn
def test_shard_death_fails_inflight_structurally_and_respawns():
    a0 = _matrix_routed_to(0)
    feeders = _feeder_threads()
    with ShardedSolveService(shards=2, config=_cfg()) as tier:
        tier.pause_shard(0, 30.0)      # the request will sit unanswered
        time.sleep(0.3)
        doomed = tier.submit(SolveRequest(matrix=a0, b=np.ones(25)))
        os.kill(tier.shard_pid(0), signal.SIGKILL)
        resp = doomed.result(30.0)     # structured failure, not a hang
        assert isinstance(resp.error, ShardDied)
        assert resp.error.shard == 0
        assert resp.error.exitcode == -signal.SIGKILL
        with pytest.raises(ShardDied):
            resp.result()
        # the monitor respawns the shard; the tier keeps serving
        assert tier.wait_ready(60.0)
        again = tier.submit(SolveRequest(matrix=a0, b=np.ones(25)))
        assert again.result(60.0).ok
    stats = tier.stats()
    assert stats["service.shard.deaths"] == 1
    assert stats["service.shard.respawns"] == 1
    # every request queue, the one the respawn replaced included, was
    # closed and its feeder joined by the tier, not by the collector
    assert _feeder_threads() == feeders


@needs_spawn
def test_warm_start_from_the_spool_skips_dofact(tmp_path):
    mats = [sparse_matrix(seed=s) for s in range(3)]
    cfg = _cfg()
    with ShardedSolveService(shards=2, config=cfg,
                             spool_dir=tmp_path) as tier:
        pend = [tier.submit(SolveRequest(matrix=a, b=np.ones(25)))
                for a in mats]
        assert all(p.result(60.0).ok for p in pend)
    saved = tier.stats()["service.shard.spool_saved"]
    assert saved == 3                  # one plan per pattern
    assert len(list(tmp_path.glob("*.plan.pkl"))) == 3

    with ShardedSolveService(shards=2, config=cfg,
                             spool_dir=tmp_path) as warm:
        assert warm.stats()["service.shard.spool_loaded"] == 6  # 3 × 2 shards
        pend = [warm.submit(SolveRequest(matrix=a, b=np.ones(25)))
                for a in mats]
        assert all(p.result(60.0).ok for p in pend)
    per_shard = warm.shard_stats()
    # every solve hit a preloaded plan: warm cache hits, zero misses
    assert sum(s.cache_hits for s in per_shard.values()) == 3
    assert sum(s.cache_misses for s in per_shard.values()) == 0
    assert warm.stats()["service.shard.spool_saved"] == 0   # nothing new
