#!/usr/bin/env python
"""Seeded perf trajectories -> schema-versioned BENCH_*.json records.

Default mode runs the same trajectory as ``benchmarks/bench_refactor.py``
(cold factorization of one testbed matrix, then K same-pattern warm
refactorizations through ``GESPSolver.refactor``) and writes the result
as a schema-versioned JSON record so successive sessions can track the
fast path's speedup over time:

    PYTHONPATH=src python scripts/bench_trajectory.py
    PYTHONPATH=src python scripts/bench_trajectory.py \
        --matrix cfd06 --sweeps 5 --out BENCH_refactor.json

Schema ``bench_refactor/v1``::

    {
      "schema": "bench_refactor/v1",
      "matrix": "...", "n": ..., "nnz": ..., "seed": ...,
      "trajectory": [{"iter", "fact", "seconds", "berr", "steps"}, ...],
      "cold_seconds": ..., "warm_best_seconds": ..., "speedup": ...,
      "speedup_floor": 1.3,
      "reuse": {"hits": ..., "misses": ...}
    }

``--bench kernels`` instead replays the dense-op trace of a ``pdgstrf``
factorization (1x1 grid) through both ``repro.kernels`` backends (the same
comparison as ``benchmarks/bench_kernels.py``) and writes
``BENCH_kernels.json``:

    PYTHONPATH=src python scripts/bench_trajectory.py --bench kernels

Schema ``bench_kernels/v1``::

    {
      "schema": "bench_kernels/v1",
      "rounds": ...,
      "rows": [{"matrix", "n", "ops", "reference_seconds",
                "vectorized_seconds", "speedup"}, ...],
      "speedup": ...,            # of the largest (last) workload
      "speedup_floor": 1.2
    }

``--bench service`` runs the solve-service load trajectory of
``benchmarks/bench_service.py`` (warm same-pattern burst through the
coalescing service vs sequential per-request solves, plus a seeded
open-loop arrival stream) and writes ``BENCH_service.json``:

    PYTHONPATH=src python scripts/bench_trajectory.py --bench service

Schema ``bench_service/v1``::

    {
      "schema": "bench_service/v1",
      "matrix": "...", "n": ..., "nnz": ..., "burst": ..., "rounds": ...,
      "seed": ...,
      "sequential_seconds": ..., "service_seconds": ...,
      "speedup": ..., "speedup_floor": 1.0,
      "open_loop": {"mix", "completed", "rejected", "expired", "failed",
                    "elapsed_seconds", "throughput_rps", "rate_rps",
                    "p50_latency_seconds", "p99_latency_seconds",
                    "batches", "mean_width"},
      "sharded_open_loop": {"mix", "requests", "seed", "cpus",
                            "shards": [{"shards", "throughput_rps", ...}],
                            "scaling", "scaling_floor", "floor_enforced",
                            "bit_identical"}
    }

The ``sharded_open_loop`` key (additive; the schema stays v1) drives
the same seeded stream through the multi-process sharded tier at 1 and
``--shards`` shards.  Its >=1.7x scaling floor is enforced only when
``floor_enforced`` is true — i.e. the host has at least ``--shards``
CPUs; the bit-identity requirement is enforced unconditionally.

``--bench executor`` runs the executor-layer trajectory of
``benchmarks/bench_executor.py`` (simulator-vs-process bit-identity per
grid, plus the 1->N rank wall-clock scaling of the real process
executor) and writes ``BENCH_executor.json``:

    PYTHONPATH=src python scripts/bench_trajectory.py --bench executor

Schema ``bench_executor/v1``::

    {
      "schema": "bench_executor/v1",
      "bit_identity": {"matrix": "...",
                       "rows": [{"p", "grid", "factors_identical",
                                 "solution_identical", "residual"}, ...],
                       "all_identical": true},
      "scaling": {"matrix", "n", "nnz", "rounds",
                  "ranks": [{"ranks", "grid", "wall_seconds"}, ...],
                  "scaling", "scaling_floor": 1.5, "cpus",
                  "floor_enforced"}
    }

Bit-identity is enforced unconditionally; the >=1.5x 1->4 scaling
floor only when ``floor_enforced`` is true (the host has at least 4
CPUs — skipped, not failed, on smaller boxes).

``--bench workload`` runs the realistic-traffic trajectory of
``benchmarks/bench_workload.py`` (a bursty transient stream and a
multi-tenant SLO mix through the solve service, docs/WORKLOADS.md) and
writes ``BENCH_workload.json``:

    PYTHONPATH=src python scripts/bench_trajectory.py --bench workload

Schema ``bench_workload/v1``::

    {
      "schema": "bench_workload/v1",
      "seed": ..., "speed": ..., "digests_reproducible": true,
      "runs": [
        {"run": 1, "name": "transient", "stream_digest": "...",
         "warm_hit_rate": ..., "warm_reuse_floor": 0.9, "rows": [...]},
        {"run": 2, "name": "multi_tenant", "stream_digest": "...",
         "interactive_deadline_hit_rate": ...,
         "deadline_hit_floor": 0.99, "batch_quota_shed": ...,
         "rows": [...]}]
    }

The acceptance floors (warm >= 1.3x cold; vectorized >= 1.5x reference;
coalesced burst >= 2x sequential; process executor >= 1.5x 1->4 when
enforced; transient warm reuse >= 90%; interactive deadline hit-rate
>= 99% under a quota-shed flood, streams bit-reproducible) are asserted
here as well as in the benchmarks, so the JSON never records a
regressed run without the exit status saying so.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
sys.path.insert(0, str(ROOT / "src"))


def run_refactor(args):
    from bench_refactor import SPEEDUP_FLOOR, refactor_trajectory

    a, rows, counters = refactor_trajectory(name=args.matrix,
                                            sweeps=args.sweeps,
                                            seed=args.seed)
    cold = rows[0]["seconds"]
    warm = min(r["seconds"] for r in rows[1:])
    speedup = cold / warm
    record = {
        "schema": "bench_refactor/v1",
        "matrix": args.matrix,
        "n": a.ncols,
        "nnz": a.nnz,
        "seed": args.seed,
        "trajectory": rows,
        "cold_seconds": cold,
        "warm_best_seconds": warm,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "reuse": {"hits": counters.get("factor.reuse_hits", 0),
                  "misses": counters.get("factor.reuse_misses", 0)},
    }
    out = pathlib.Path(args.out or (ROOT / "BENCH_refactor.json"))
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{args.matrix}: cold {cold:.3f}s, warm best {warm:.3f}s "
          f"-> {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)")
    print(f"written: {out}")
    if speedup < SPEEDUP_FLOOR:
        print("FAIL: warm refactorization below the speedup floor",
              file=sys.stderr)
        return 1
    return 0


def run_kernels(args):
    from bench_kernels import (
        COMPILED_SPEEDUP_FLOOR,
        SPEEDUP_FLOOR,
        kernel_comparison,
    )
    from repro.kernels import available_backends

    backends = list(available_backends())
    rows = kernel_comparison(rounds=args.rounds)
    speedup = rows[-1]["speedup"]
    have_compiled = "compiled" in backends
    record = {
        "schema": "bench_kernels/v1",
        "rounds": args.rounds,
        # which backends were registered for this run — a record without
        # compiled rows is distinguishable from a compiled regression
        "backends": backends,
        "rows": rows,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "compiled_speedup_floor": COMPILED_SPEEDUP_FLOOR,
    }
    if have_compiled:
        record["compiled_speedup"] = rows[-1]["compiled_speedup"]
    out = pathlib.Path(args.out or (ROOT / "BENCH_kernels.json"))
    out.write_text(json.dumps(record, indent=2) + "\n")
    for r in rows:
        line = (f"{r['matrix']}: reference {r['reference_seconds']:.3f}s, "
                f"vectorized {r['vectorized_seconds']:.3f}s "
                f"-> {r['speedup']:.2f}x")
        if "compiled_seconds" in r:
            line += (f", compiled {r['compiled_seconds']:.3f}s "
                     f"-> {r['compiled_speedup']:.2f}x")
        print(line)
    if not have_compiled:
        print("compiled backend not registered (numba missing): "
              "rows skipped")
    print(f"written: {out}")
    if speedup < SPEEDUP_FLOOR:
        print("FAIL: vectorized backend below the speedup floor",
              file=sys.stderr)
        return 1
    if have_compiled and record["compiled_speedup"] < COMPILED_SPEEDUP_FLOOR:
        print("FAIL: compiled backend below its speedup floor",
              file=sys.stderr)
        return 1
    return 0


def run_service(args):
    from bench_service import (
        SPEEDUP_FLOOR,
        open_loop_trajectory,
        sharded_open_loop,
        warm_burst_comparison,
    )

    comp = warm_burst_comparison(name=args.matrix, burst=args.burst,
                                 rounds=args.rounds, seed=args.seed)
    loop = open_loop_trajectory(requests=args.requests, rate=args.rate,
                                seed=args.seed)
    sharded = sharded_open_loop(requests=args.requests, seed=args.seed,
                                shard_counts=(1, args.shards))
    record = {
        "schema": "bench_service/v1",
        "matrix": comp["matrix"],
        "n": comp["n"],
        "nnz": comp["nnz"],
        "burst": comp["burst"],
        "rounds": comp["rounds"],
        "seed": args.seed,
        "sequential_seconds": comp["sequential_seconds"],
        "service_seconds": comp["service_seconds"],
        "speedup": comp["speedup"],
        "speedup_floor": SPEEDUP_FLOOR,
        "open_loop": loop,
        "sharded_open_loop": sharded,
    }
    out = pathlib.Path(args.out or (ROOT / "BENCH_service.json"))
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"{comp['matrix']}: sequential {comp['sequential_seconds']:.3f}s, "
          f"coalesced burst {comp['service_seconds']:.3f}s "
          f"-> {comp['speedup']:.2f}x (floor {SPEEDUP_FLOOR}x)")
    print(f"open loop: {loop['completed']} done at "
          f"{loop['throughput_rps']:.1f}/s, p50 "
          f"{loop['p50_latency_seconds'] * 1e3:.1f}ms, p99 "
          f"{loop['p99_latency_seconds'] * 1e3:.1f}ms, mean batch width "
          f"{loop['mean_width']:.2f}")
    for row in sharded["shards"]:
        print(f"sharded open loop ({'+'.join(sharded['mix'])}): "
              f"{row['shards']} shard(s) -> "
              f"{row['throughput_rps']:.1f}/s")
    print(f"sharded scaling 1->{sharded['shards'][-1]['shards']}: "
          f"{sharded['scaling']:.2f}x (floor {sharded['scaling_floor']}x, "
          f"{'enforced' if sharded['floor_enforced'] else 'not enforced'}"
          f" on {sharded['cpus']} cpu), bit-identical: "
          f"{sharded['bit_identical']}")
    print(f"written: {out}")
    if comp["speedup"] < SPEEDUP_FLOOR:
        print("FAIL: coalesced burst below the speedup floor",
              file=sys.stderr)
        return 1
    if loop["failed"] or loop["rejected"] or loop["expired"]:
        print("FAIL: open-loop run shed or failed requests",
              file=sys.stderr)
        return 1
    if not sharded["bit_identical"]:
        print("FAIL: sharded tier solutions not bit-identical to the "
              "in-process service", file=sys.stderr)
        return 1
    if sharded["floor_enforced"] and \
            sharded["scaling"] < sharded["scaling_floor"]:
        print("FAIL: sharded tier below the 1->N scaling floor",
              file=sys.stderr)
        return 1
    return 0


def run_executor(args):
    from bench_executor import (
        SCALING_FLOOR,
        bit_identity_rows,
        executor_scaling,
    )

    ident_matrix = "cfd02"
    rows = bit_identity_rows(name=ident_matrix)
    all_identical = all(r["factors_identical"] and r["solution_identical"]
                        for r in rows)
    scaling = executor_scaling(name=args.matrix, rounds=args.rounds)
    record = {
        "schema": "bench_executor/v1",
        "bit_identity": {"matrix": ident_matrix, "rows": rows,
                         "all_identical": all_identical},
        "scaling": scaling,
    }
    out = pathlib.Path(args.out or (ROOT / "BENCH_executor.json"))
    out.write_text(json.dumps(record, indent=2) + "\n")
    for r in rows:
        print(f"{ident_matrix} grid {r['grid']}: factors identical "
              f"{r['factors_identical']}, solution identical "
              f"{r['solution_identical']}, resid {r['residual']:.2e}")
    for r in scaling["ranks"]:
        print(f"{scaling['matrix']} {r['ranks']} rank(s) ({r['grid']}): "
              f"{r['wall_seconds']:.3f}s")
    print(f"scaling 1->{scaling['ranks'][-1]['ranks']}: "
          f"{scaling['scaling']:.2f}x (floor {SCALING_FLOOR}x, "
          f"{'enforced' if scaling['floor_enforced'] else 'not enforced'} "
          f"on {scaling['cpus']} cpu)")
    print(f"written: {out}")
    if not all_identical:
        print("FAIL: process executor not bit-identical to the simulator",
              file=sys.stderr)
        return 1
    if scaling["floor_enforced"] and \
            scaling["scaling"] < scaling["scaling_floor"]:
        print("FAIL: process executor below the 1->N rank scaling floor",
              file=sys.stderr)
        return 1
    return 0


def run_workload(args):
    from bench_workload import (
        DEADLINE_HIT_FLOOR,
        WARM_REUSE_FLOOR,
        workload_record,
    )

    record = workload_record(seed=args.seed, speed=args.speed)
    out = pathlib.Path(args.out or (ROOT / "BENCH_workload.json"))
    out.write_text(json.dumps(record, indent=2) + "\n")
    transient, tenant = record["runs"]
    print(f"transient ({transient['matrix']}, {transient['arrival']}): "
          f"{transient['completed']}/{transient['requests']} done, "
          f"warm reuse {transient['warm_hit_rate'] * 100:.1f}% "
          f"(floor {WARM_REUSE_FLOOR * 100:.0f}%), digest "
          f"{transient['stream_digest'][:12]}…")
    for row in tenant["rows"]:
        print(f"multi-tenant {row['tenant']:>12}: {row['submitted']} subm, "
              f"{row['completed']} done, {row['quota_shed']} quota-shed, "
              f"dl-hit {row['deadline_hit_rate'] * 100:.1f}%, p99 "
              f"{row['p99_latency_seconds'] * 1e3:.1f}ms")
    print(f"interactive deadline hit-rate "
          f"{tenant['interactive_deadline_hit_rate'] * 100:.1f}% "
          f"(floor {DEADLINE_HIT_FLOOR * 100:.0f}%), batch quota sheds "
          f"{tenant['batch_quota_shed']}, digests reproducible: "
          f"{record['digests_reproducible']}")
    print(f"written: {out}")
    # the trajectory functions assert the floors and raise before the
    # record is written; reaching here means both rows passed
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench",
                    choices=("refactor", "kernels", "service", "executor",
                             "workload"),
                    default="refactor",
                    help="which trajectory to run (default: refactor)")
    ap.add_argument("--matrix", default="cfd06",
                    help="testbed matrix name (default: cfd06; refactor "
                         "mode and the executor scaling row)")
    ap.add_argument("--sweeps", type=int, default=5,
                    help="warm refactorizations after the cold factor "
                         "(refactor mode only)")
    ap.add_argument("--rounds", type=int, default=5,
                    help="interleaved replay rounds per backend (kernels "
                         "mode) / timed rounds per side (service mode) / "
                         "timed rounds per rank count (executor mode)")
    ap.add_argument("--burst", type=int, default=8,
                    help="same-pattern burst width (service mode only)")
    ap.add_argument("--requests", type=int, default=40,
                    help="open-loop request count (service mode only)")
    ap.add_argument("--rate", type=float, default=300.0,
                    help="open-loop arrival rate in requests/second "
                         "(service mode only)")
    ap.add_argument("--shards", type=int, default=4,
                    help="upper shard count for the sharded open-loop "
                         "row, compared against 1 shard (service mode "
                         "only)")
    ap.add_argument("--speed", type=float, default=4.0,
                    help="workload replay speed-up (workload mode only)")
    ap.add_argument("--seed", type=int, default=20260806)
    ap.add_argument("--out", default=None,
                    help="output path (default: repo-root "
                         "BENCH_<bench>.json)")
    args = ap.parse_args(argv)
    if args.bench == "kernels":
        return run_kernels(args)
    if args.bench == "service":
        return run_service(args)
    if args.bench == "executor":
        return run_executor(args)
    if args.bench == "workload":
        return run_workload(args)
    return run_refactor(args)


if __name__ == "__main__":
    sys.exit(main())
