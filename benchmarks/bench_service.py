"""Solve-service load benchmark: coalescing vs per-request solves.

The serving layer's claim is the paper's economics applied to
*concurrency*: requests that share a pattern (and values) should cost
one factorization and one multi-RHS solve, not N of each.  This
benchmark pins that with two measurements:

- **warm burst** — 8 same-pattern requests submitted as one burst to a
  warm service (factors ready) versus the same 8 right-hand sides solved
  sequentially through a warm ``GESPSolver``.  The whole burst must
  coalesce into one ``solve_multi``, every coalesced ``x`` must equal its
  sequential solve, and coalescing must never lose (floor 1.0x; both
  sides take the best of several rounds).  The floor was 2x while a
  sweep was a Python loop over columns — that ratio was interpreter
  overhead amortised over eight vectors, and it went with the overhead
  when the sweeps became a level schedule: both sides are 3-7x faster
  and what coalescing still buys is one pass over the factors per
  refinement step instead of eight.
- **open loop** — a seeded arrival stream over a pattern mix driven
  through :func:`repro.service.run_open_loop` at a fixed rate,
  reporting p50/p99 latency, throughput, and the realized coalescing
  width.
- **sharded open loop** — the same seeded stream over a >=4-pattern mix
  driven through the multi-process :class:`ShardedSolveService` at 1
  and 4 shards (see docs/SHARDING.md).  Solutions must be bit-identical
  to the in-process service on every tier; the >=1.7x 1->4 throughput
  scaling floor is enforced only when the host has enough CPUs to make
  scaling physically possible (``cpus`` is recorded either way).

``scripts/bench_trajectory.py --bench service`` runs the same
trajectory standalone and writes the schema-versioned
``BENCH_service.json``.
"""

import os
import time

import numpy as np

from repro.analysis import Table
from repro.driver import GESPSolver
from repro.matrices import matrix_by_name
from repro.service import (
    ServiceConfig,
    SolveRequest,
    SolveService,
    run_open_loop,
    synthetic_workload,
)

SPEEDUP_FLOOR = 1.0
BURST = 8
SHARD_SCALING_FLOOR = 1.7
SHARD_MIX = ("cfd01", "cfd03", "cfd05", "cfd06")


def warm_burst_comparison(name="cfd06", burst=BURST, rounds=5,
                          seed=20260806):
    """Warm 8-request burst through the service vs sequential solves.

    Returns a dict with both timings (best of ``rounds``), the speedup,
    and the responses' batching metadata, asserted here — like the
    agreement of every coalesced ``x`` with its sequential solve — so a
    regressed run can never masquerade as a pass.
    """
    a = matrix_by_name(name).build()
    n = a.ncols
    rng = np.random.default_rng(seed)
    b_set = [rng.standard_normal(n) for _ in range(burst)]

    # baseline: a warm solver answering the burst one request at a time
    solver = GESPSolver(a, cache=False)
    x_seq = [solver.solve(b).x for b in b_set]
    t_seq = min(_time_sequential(solver, b_set) for _ in range(rounds))

    cfg = ServiceConfig(max_workers=2, batch_window=0.001,
                        max_batch=burst)
    timed, facts = [], None
    with SolveService(cfg, cache=False) as svc:
        svc.register_matrix(name, a)
        # warm the pattern state: the cold DOFACT happens here, outside
        # the measured rounds (the scenario is a long-lived service)
        for resp in _burst(svc, name, b_set)[1]:
            assert resp.ok
        for _ in range(rounds):
            dt, responses = _burst(svc, name, b_set)
            assert all(r.ok for r in responses)
            for r, x in zip(responses, x_seq):
                assert np.abs(r.x - x).max() <= 1e-12 * np.abs(x).max()
            facts = sorted({r.fact for r in responses})
            assert facts == ["FACTORED"], facts   # warm: no refactor
            # the reported width belongs to the reported timing, and a
            # round where a straggler missed the batch window (a
            # scheduling artifact) timed two batches, not the coalesced
            # burst: it is reported only when no round coalesced.  (It
            # used to lose on time alone; with a block solve this cheap
            # a split round can be the fastest.)
            widths = sorted({r.batch_width for r in responses})
            timed.append((widths != [burst], dt, widths))
    _, t_service, widths = min(timed)

    return {
        "matrix": name,
        "n": n,
        "nnz": a.nnz,
        "burst": burst,
        "rounds": rounds,
        "sequential_seconds": t_seq,
        "service_seconds": t_service,
        "speedup": t_seq / t_service,
        "widths": widths,
    }


def _time_sequential(solver, b_set):
    t0 = time.perf_counter()
    for b in b_set:
        rep = solver.solve(b)
        assert rep.converged
    return time.perf_counter() - t0


def _burst(svc, key, b_set):
    t0 = time.perf_counter()
    pending = [svc.submit(SolveRequest(matrix=key, b=b)) for b in b_set]
    responses = [p.result(120.0) for p in pending]
    return time.perf_counter() - t0, responses


def open_loop_trajectory(names=("cfd03", "cfd06"), requests=40,
                         rate=300.0, seed=20260806):
    """Seeded open-loop arrivals over a pattern mix; returns the
    workload summary plus the service's coalescing counters."""
    matrices = {name: matrix_by_name(name).build() for name in names}
    cfg = ServiceConfig(max_workers=2, batch_window=0.002)
    with SolveService(cfg, cache=False) as svc:
        for key, a in matrices.items():
            svc.register_matrix(key, a)
        workload = synthetic_workload(matrices, requests, seed=seed)
        result = run_open_loop(svc, workload, rate=rate)
        stats = svc.stats()
    summary = result.summary()
    batches = stats.get("service.batched", 0)
    summary.update(
        mix=sorted(names), rate_rps=rate, batches=batches,
        mean_width=(stats.get("service.coalesce_width", 0) / batches
                    if batches else 0.0))
    return summary


def sharded_open_loop(names=SHARD_MIX, requests=48, rate=None,
                      seed=20260806, shard_counts=(1, 4)):
    """Sharded tier vs itself: the same seeded stream at 1 and N shards.

    Returns one row per shard count plus the 1->N throughput scaling
    ratio and a ``bit_identical`` verdict against an in-process
    reference service.  ``max_batch=1`` on every tier, as when the
    committed rows were recorded (the bit-identity claim no longer needs
    it: refinement stops each column of a block on its own berr, and
    tests/test_shard.py asserts identity with coalescing on).

    The scaling floor is a *tier* property — shards are processes, so
    speedup needs cores.  ``floor_enforced`` records whether this host
    had at least ``max(shard_counts)`` CPUs; on a 1-CPU box the rows
    and the bit-identity check are still meaningful, the ratio is not.
    """
    from repro.service import ShardedSolveService

    matrices = {name: matrix_by_name(name).build() for name in names}
    workload = synthetic_workload(matrices, requests, seed=seed)
    cfg = ServiceConfig(max_workers=1, batch_window=0.0, max_batch=1)

    with SolveService(cfg, cache=False) as svc:
        for key, a in matrices.items():
            svc.register_matrix(key, a)
        ref = run_open_loop(svc, workload, rate=rate)
    assert ref.failed == 0 and ref.rejected == 0, ref.summary()
    ref_x = [np.array(r.report.x) for r in ref.responses]

    rows = []
    bit_identical = True
    for shards in shard_counts:
        with ShardedSolveService(shards=shards, config=cfg) as tier:
            for key, a in matrices.items():
                tier.register_matrix(key, a)
            result = run_open_loop(tier, workload, rate=rate)
        assert result.failed == 0 and result.rejected == 0, \
            result.summary()
        for resp, x in zip(result.responses, ref_x):
            if not np.array_equal(resp.report.x, x):
                bit_identical = False
        rows.append({"shards": shards, **result.summary()})

    base = rows[0]["throughput_rps"]
    cpus = os.cpu_count() or 1
    return {
        "mix": sorted(names),
        "requests": requests,
        "seed": seed,
        "cpus": cpus,
        "shards": rows,
        "scaling": (rows[-1]["throughput_rps"] / base) if base else 0.0,
        "scaling_floor": SHARD_SCALING_FLOOR,
        "floor_enforced": cpus >= max(shard_counts),
        "bit_identical": bit_identical,
    }


def bench_service(benchmark):
    from conftest import save_table

    comp = warm_burst_comparison()
    loop = open_loop_trajectory()

    t = Table(f"Solve service — warm {comp['burst']}-request burst, "
              f"{comp['matrix']} (n={comp['n']})",
              ["mode", "seconds", "solves/s"])
    t.add("sequential", comp["sequential_seconds"],
          comp["burst"] / comp["sequential_seconds"])
    t.add("service (coalesced)", comp["service_seconds"],
          comp["burst"] / comp["service_seconds"])
    save_table("service_burst", t)

    t2 = Table("Solve service — open loop "
               f"({'+'.join(loop['mix'])}, {loop['rate_rps']:.0f}/s)",
               ["completed", "failed", "throughput/s", "p50(ms)",
                "p99(ms)", "batches", "mean width"])
    t2.add(loop["completed"], loop["failed"], loop["throughput_rps"],
           loop["p50_latency_seconds"] * 1e3,
           loop["p99_latency_seconds"] * 1e3, loop["batches"],
           loop["mean_width"])
    save_table("service_open_loop", t2)

    sharded = sharded_open_loop()
    t3 = Table("Sharded tier — open loop "
               f"({'+'.join(sharded['mix'])}, {sharded['requests']} req, "
               f"{sharded['cpus']} cpu)",
               ["shards", "throughput/s", "p50(ms)", "p99(ms)"])
    for row in sharded["shards"]:
        t3.add(row["shards"], row["throughput_rps"],
               row["p50_latency_seconds"] * 1e3,
               row["p99_latency_seconds"] * 1e3)
    save_table("service_sharded", t3)

    assert comp["widths"] == [comp["burst"]]     # the burst coalesced
    assert comp["speedup"] >= SPEEDUP_FLOOR, comp
    assert loop["failed"] == 0 and loop["rejected"] == 0
    assert loop["mean_width"] > 1.0              # arrivals did coalesce
    assert sharded["bit_identical"], sharded
    if sharded["floor_enforced"]:
        assert sharded["scaling"] >= SHARD_SCALING_FLOOR, sharded

    solver = GESPSolver(matrix_by_name("cfd03").build(), cache=False)
    b = np.ones(solver.a.ncols)
    solver.solve(b)
    benchmark.pedantic(lambda: solver.solve(b), rounds=3, iterations=1)
