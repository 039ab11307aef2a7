"""Unit tests of the service building blocks (repro.service.*).

The server's end-to-end behavior is tested in test_service.py; here the
queue, batcher, and config/api surfaces are pinned in isolation so
a concurrency failure in the integration tests points at the right
layer.
"""

import threading
import time

import numpy as np
import pytest

from repro.service.api import (
    PendingSolve,
    ServiceClosed,
    ServiceConfig,
    ServiceOverloaded,
    SolveRequest,
)
from repro.service.batcher import (
    Batch,
    coalesce,
    factor_options_key,
    group_key,
    solve_options_key,
    values_signature,
)
from repro.service.queue import AdmissionQueue, QueuedRequest, TokenBucket
from repro.driver.options import GESPOptions
from repro.sparse import CSCMatrix

from conftest import random_nonsingular_dense


def _entry(key=("k",), deadline=None, t=0.0, priority=0):
    req = SolveRequest(matrix="m", b=np.zeros(1))
    return QueuedRequest(request=req, pending=PendingSolve(req),
                         matrix=None, group_key=key,
                         options=None, t_enqueued=t, deadline=deadline,
                         priority=priority)


# --------------------------------------------------------------------- #
# AdmissionQueue
# --------------------------------------------------------------------- #

def test_queue_fifo_and_len():
    q = AdmissionQueue(capacity=8)
    entries = [_entry() for _ in range(5)]
    for e in entries:
        q.offer(e, now=0.0)
    assert len(q) == 5
    assert q.drain_nowait() == entries
    assert len(q) == 0


def test_queue_overload_raises_when_full_of_live_entries():
    q = AdmissionQueue(capacity=2)
    q.offer(_entry(), now=0.0)
    q.offer(_entry(), now=0.0)
    with pytest.raises(ServiceOverloaded) as exc:
        q.offer(_entry(), now=0.0)
    assert exc.value.capacity == 2
    assert exc.value.pending == 2
    assert len(q) == 2                  # rejected entry was never admitted


def test_queue_full_evicts_expired_before_shedding():
    q = AdmissionQueue(capacity=2)
    stale = _entry(deadline=1.0)
    live = _entry(deadline=100.0)
    q.offer(stale, now=0.0)
    q.offer(live, now=0.0)
    newcomer = _entry(deadline=100.0)
    outcome = q.offer(newcomer, now=5.0)   # past stale's deadline
    assert outcome.expired == [stale]      # caller owns the rejection
    assert outcome.displaced == []
    assert q.drain_nowait() == [live, newcomer]


def test_queue_drain_blocks_until_offer():
    q = AdmissionQueue(capacity=4)
    got = []

    def consumer():
        got.extend(q.drain(timeout=5.0))

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.05)
    e = _entry()
    q.offer(e, now=0.0)
    t.join(timeout=5.0)
    assert got == [e]


def test_queue_close_wakes_drain_and_blocks_offer():
    q = AdmissionQueue(capacity=4)
    results = []
    t = threading.Thread(target=lambda: results.append(q.drain(timeout=10.0)))
    t.start()
    time.sleep(0.05)
    q.close()
    t.join(timeout=5.0)
    assert results == [[]]
    assert q.closed
    with pytest.raises(ServiceClosed):      # the structured type itself
        q.offer(_entry(), now=0.0)
    q.close()                               # idempotent


def test_queue_entries_remain_drainable_after_close():
    q = AdmissionQueue(capacity=4)
    e = _entry()
    q.offer(e, now=0.0)
    q.close()
    assert q.drain_nowait() == [e]


def test_queue_drains_highest_priority_first_fifo_within_level():
    q = AdmissionQueue(capacity=8)
    low1 = _entry(priority=0)
    high = _entry(priority=5)
    low2 = _entry(priority=0)
    for e in (low1, high, low2):
        q.offer(e, now=0.0)
    assert q.drain_nowait() == [high, low1, low2]


def test_queue_full_displaces_lowest_priority_for_higher():
    q = AdmissionQueue(capacity=2)
    flood1 = _entry(priority=0)
    flood2 = _entry(priority=0)
    q.offer(flood1, now=0.0)
    q.offer(flood2, now=0.0)
    vip = _entry(priority=10)
    outcome = q.offer(vip, now=0.0)
    # the latest-arrived of the lowest-priority waiters is bumped
    assert outcome.displaced == [flood2]
    assert outcome.expired == []
    assert q.drain_nowait() == [vip, flood1]
    # equal priority never displaces: the newcomer is shed instead
    q.offer(_entry(priority=0), now=0.0)
    q.offer(_entry(priority=0), now=0.0)
    with pytest.raises(ServiceOverloaded):
        q.offer(_entry(priority=0), now=0.0)


def test_token_bucket_is_deterministic_in_its_timestamps():
    tb = TokenBucket(rate=2.0, burst=2.0)      # starts full
    assert tb.try_take(0.0)
    assert tb.try_take(0.0)
    assert not tb.try_take(0.0)                # dry
    assert not tb.try_take(0.4)                # 0.8 tokens: still short
    assert tb.try_take(0.6)                    # refilled past 1.0
    # a replay with identical timestamps makes identical decisions
    tb2 = TokenBucket(rate=2.0, burst=2.0)
    assert [tb2.try_take(t) for t in (0.0, 0.0, 0.0, 0.4, 0.6)] == \
        [True, True, False, False, True]
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0.5)


# --------------------------------------------------------------------- #
# batcher
# --------------------------------------------------------------------- #

def _matrix(rng, n=6, scale=1.0):
    return CSCMatrix.from_dense(scale * random_nonsingular_dense(
        rng, n, density=1.0, hidden_perm=False))


def test_group_key_separates_values_but_not_rhs(rng):
    a = _matrix(rng)
    opts = GESPOptions()
    assert group_key(a, opts) == group_key(a, opts)
    a2 = CSCMatrix(a.nrows, a.ncols, a.colptr, a.rowind,
                   a.nzval * 2.0, check=False)
    k1, k2 = group_key(a, opts), group_key(a2, opts)
    assert k1[0] == k2[0]               # same pattern: same plan key
    assert k1[1] != k2[1]               # different values: no block solve
    assert values_signature(a) != values_signature(a2)


def test_group_key_separates_plan_shaping_options(rng):
    a = _matrix(rng)
    k1 = group_key(a, GESPOptions())
    k2 = group_key(a, GESPOptions(col_perm="natural"))
    assert k1[0] != k2[0]


def test_group_key_separates_numeric_options(rng):
    """Solve- and factor-affecting options that don't shape the plan
    still split batches: a stricter refine_eps must never be certified
    against a looser batch target, and a different pivot policy never
    shares factors."""
    a = _matrix(rng)
    k1 = group_key(a, GESPOptions())
    k2 = group_key(a, GESPOptions(refine_eps=1e-6))
    k3 = group_key(a, GESPOptions(replace_tiny_pivots=False))
    assert k1[0] == k2[0] == k3[0]       # same plan key (shared state)
    assert k1[1] == k2[1] == k3[1]       # same values signature
    assert len({k1, k2, k3}) == 3        # but never the same block solve
    # the sub-keys tell the server whether a refactor is needed
    assert factor_options_key(GESPOptions()) == \
        factor_options_key(GESPOptions(refine_eps=1e-6))
    assert factor_options_key(GESPOptions()) != \
        factor_options_key(GESPOptions(replace_tiny_pivots=False))
    assert solve_options_key(GESPOptions()) != \
        solve_options_key(GESPOptions(refine_eps=1e-6))


def test_coalesce_groups_preserve_arrival_order():
    e1, e2, e3, e4 = (_entry(key=("a",)), _entry(key=("b",)),
                      _entry(key=("a",)), _entry(key=("b",)))
    batches = coalesce([e1, e2, e3, e4], max_batch=32)
    assert [b.key for b in batches] == [("a",), ("b",)]
    assert batches[0].entries == [e1, e3]
    assert batches[1].entries == [e2, e4]
    assert batches[0].width == 2


def test_coalesce_splits_oversize_groups():
    entries = [_entry(key=("a",)) for _ in range(7)]
    batches = coalesce(entries, max_batch=3)
    assert [b.width for b in batches] == [3, 3, 1]
    assert [e for b in batches for e in b.entries] == entries


def test_coalesce_rejects_bad_max_batch():
    with pytest.raises(ValueError):
        coalesce([], max_batch=0)


# --------------------------------------------------------------------- #
# config / api
# --------------------------------------------------------------------- #

def test_service_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(queue_capacity=0).validate()
    with pytest.raises(ValueError):
        ServiceConfig(batch_window=-1.0).validate()
    with pytest.raises(ValueError):
        ServiceConfig(max_batch=0).validate()


def test_solve_request_validation(rng):
    a = _matrix(rng, n=4)
    SolveRequest(matrix=a, b=np.zeros(4)).validate()
    with pytest.raises(ValueError):
        SolveRequest(matrix=a, b=np.zeros(5)).validate()
    with pytest.raises(ValueError):
        SolveRequest(matrix=a, b=np.zeros((4, 1))).validate()
    with pytest.raises(ValueError):
        SolveRequest(matrix=a, b=np.zeros(4), deadline=-1.0).validate()
    with pytest.raises(TypeError):
        SolveRequest(matrix=42, b=np.zeros(4)).validate()


def test_pending_solve_completes_once():
    req = SolveRequest(matrix="m", b=np.zeros(1))
    p = PendingSolve(req)
    assert not p.done()
    with pytest.raises(TimeoutError):
        p.result(timeout=0.01)
    from repro.service.api import SolveResponse

    first = SolveResponse(request_id="a")
    p._complete(first)
    p._complete(SolveResponse(request_id="b"))
    assert p.done()
    assert p.result(timeout=1.0) is first


def test_pending_solve_racing_completions_have_one_winner():
    """Two completion paths can race (worker vs. the pool's crash
    hook): exactly one response may ever be observed."""
    from repro.service.api import SolveResponse

    for _ in range(20):
        req = SolveRequest(matrix="m", b=np.zeros(1))
        p = PendingSolve(req)
        responses = [SolveResponse(request_id=str(i)) for i in range(8)]
        barrier = threading.Barrier(len(responses))

        def racer(resp, p=p, barrier=barrier):
            barrier.wait()
            p._complete(resp)

        threads = [threading.Thread(target=racer, args=(r,))
                   for r in responses]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        winner = p.result(timeout=1.0)
        assert winner in responses
        assert p.result(timeout=1.0) is winner   # never overwritten
