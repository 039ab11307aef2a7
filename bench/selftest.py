"""Self-test of the benchmark harness: ``python3 bench/selftest.py``
(or ``PYTHONPATH=src python -m bench.selftest``), under a minute, on
``--quick`` sizes.  Checks that

- workload and metric names in the output equal those in
  ``BENCHMARK.json`` and match ``[A-Za-z0-9_.-]+``;
- the same seed gives the same stream digests and the same exact counts
  on two runs;
- the correctness gate counts a corrupted ``x`` and a structured
  ``ServiceOverloaded`` as failed operations;
- a missing span or counter yields ``None`` for that per-layer metric
  instead of a crash.
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import run  # noqa: E402 — pins BLAS threads before numpy loads
from bench.compare import identity_failures  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SEED = 7


def check_names(spec, e2e, traced):
    for group in ("workloads", "end_to_end", "per_layer"):
        for entry in spec[group]:
            assert NAME.match(entry["name"]), entry["name"]
    assert [r["workload"] for r in traced] == \
        [w["name"] for w in spec["workloads"]]
    for record, group in [(e2e, "end_to_end")] + \
            [(r, "per_layer") for r in traced]:
        line = json.loads(run.contract_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == want, (record["workload"], set(got) ^ set(want))
        assert all(isinstance(v["value"], (int, float))
                   for v in line["metrics"].values())
        assert line["correct"] and line["attempted"] >= 1


def check_gate():
    import numpy as np

    from bench.gate import op_failed
    from bench.workloads import ColdMix, timed
    from repro import GESPSolver
    from repro.service import ServiceOverloaded

    item = ColdMix(SEED, False, True).streams["chem06"][0]
    x = GESPSolver(item.matrix, cache=False).solve(item.b).x

    def op(x):
        return timed("chem06", lambda: ([(item.matrix, item.b, x)],
                                        True, {}, {}))

    assert not op_failed(op(x))
    corrupted = x.copy()
    corrupted[0] += 1e-6 * (1.0 + abs(corrupted[0]))
    assert op_failed(op(corrupted)), "a corrupted x passed the gate"
    assert op_failed(op(np.full_like(x, np.nan)))

    def shed():
        raise ServiceOverloaded(capacity=1, pending=1)

    rejected = timed("chem06", shed)
    assert rejected.error and op_failed(rejected), \
        "a structured ServiceOverloaded was not counted as a failed op"


def check_missing_readings(spec):
    from bench.layers import per_layer, stage_layers

    assert stage_layers([]) == ({}, {})
    names = [m["name"] for m in spec["per_layer"]]
    bare = [dict(pattern="cfd06", latency=0.05, latency_cal=0.05,
                 failed=False, converged=True, times={}, counts={})]
    values = per_layer("warm_newton", names, bare, [], {}, 0.0016)
    assert set(values) == set(names)
    assert values["factor.numeric_s"] is None
    assert values["kernels.gemm_calls"] is None
    assert values["obs.overhead_share"] is None
    assert values["caller.ops"] == 1
    record = {"failed": 0, "attempted": 1, "metrics": {
        n: {"value": values[n], "unit": "s"} for n in names}}
    json.loads(run.contract_line(record))      # None prints as a number


def main():
    started = time.perf_counter()
    spec = run.load_spec()
    names = [w["name"] for w in spec["workloads"]]

    def quick(workload, trace):
        return run.run_workload(spec, workload, SEED, 1.0, trace, True)

    first = [quick(w, 1) for w in names]
    second = [quick(w, 1) for w in names]
    e2e = quick("warm_newton", 0)
    check_names(spec, e2e, first)
    print("names: workloads and metrics match BENCHMARK.json")

    assert all(r["failed"] == 0 for r in first + second + [e2e])
    differing = identity_failures(spec, first + second + [e2e])
    assert not differing, differing
    print("determinism: same seed, same digests and exact counts on two runs")

    check_gate()
    print("gate: corrupted x and ServiceOverloaded count as failed ops")
    check_missing_readings(spec)
    print("layers: a missing span or counter reads None, not a crash")
    print(f"selftest ok in {time.perf_counter() - started:.1f} s")


if __name__ == "__main__":
    main()
