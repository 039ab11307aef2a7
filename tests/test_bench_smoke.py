"""Tier-2 smoke of the benchmark trajectories (``-m bench_smoke``).

A fast (~seconds) end-to-end pass over the same machinery the full
benchmark suite exercises: the seeded trajectory of
``benchmarks/bench_refactor.py``, the kernel-backend replay of
``benchmarks/bench_kernels.py``, and the ``BENCH_*.json`` records
written by ``scripts/bench_trajectory.py``, schema-checked so the files'
consumers (future sessions tracking the perf trajectory) can rely on
their shape.
"""

import json
import multiprocessing as mp
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.bench_smoke

try:
    mp.get_context("spawn")
    _HAVE_SPAWN = True
except ValueError:                     # pragma: no cover - exotic platform
    _HAVE_SPAWN = False

needs_spawn = pytest.mark.skipif(
    not _HAVE_SPAWN, reason="multiprocessing spawn context unavailable")


def test_trajectory_smoke():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from bench_refactor import SPEEDUP_FLOOR, refactor_trajectory
    finally:
        sys.path.pop(0)
    a, rows, counters = refactor_trajectory(name="cfd06", sweeps=3)
    assert len(rows) == 4
    assert rows[0]["fact"] == "DOFACT"
    assert all(r["berr"] <= 1e-12 for r in rows)
    assert counters.get("factor.reuse_hits", 0) == 3
    cold = rows[0]["seconds"]
    warm = min(r["seconds"] for r in rows[1:])
    assert cold / warm >= SPEEDUP_FLOOR, (cold, warm)


def test_bench_trajectory_script_schema(tmp_path):
    out = tmp_path / "BENCH_refactor.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_trajectory.py"),
         "--matrix", "cfd03", "--sweeps", "2", "--out", str(out)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    assert rec["schema"] == "bench_refactor/v1"
    assert rec["matrix"] == "cfd03"
    assert len(rec["trajectory"]) == 3
    assert set(rec["trajectory"][0]) == {"iter", "fact", "seconds",
                                         "berr", "steps"}
    assert rec["speedup"] >= rec["speedup_floor"] == 1.3
    assert rec["reuse"]["hits"] == 2


def test_bench_trajectory_kernels_schema(tmp_path):
    out = tmp_path / "BENCH_kernels.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_trajectory.py"),
         "--bench", "kernels", "--out", str(out)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    assert rec["schema"] == "bench_kernels/v1"
    assert [r["matrix"] for r in rec["rows"]] == ["cfd03", "cfd06"]
    assert set(rec["rows"][0]) == {"matrix", "n", "ops",
                                   "reference_seconds",
                                   "vectorized_seconds", "speedup"}
    # 1.5 until PR 17, on the scatter shapes of the serial loop the
    # block plan replaced; on the pdgstrf trace (the one caller of
    # scatter_sub left) 1.5 is NOT met: 1.28-1.60x measured
    assert rec["speedup"] >= rec["speedup_floor"] == 1.2


def test_service_burst_smoke():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from bench_service import SPEEDUP_FLOOR, warm_burst_comparison
    finally:
        sys.path.pop(0)
    # (every response ok, FACTORED, and equal to its sequential solve
    # within 1e-12 is asserted inside)
    # a round is ~20 ms (it was ~90): ten of them steady both minima
    comp = warm_burst_comparison(name="cfd06", burst=8, rounds=10)
    assert comp["widths"] == [8]          # the whole burst coalesced
    assert comp["speedup"] >= SPEEDUP_FLOOR == 1.0, comp


@needs_spawn
def test_bench_trajectory_service_schema(tmp_path):
    out = tmp_path / "BENCH_service.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_trajectory.py"),
         "--bench", "service", "--rounds", "10", "--requests", "20",
         "--out", str(out)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    assert rec["schema"] == "bench_service/v1"
    assert rec["burst"] == 8
    # 2.0 until PR 18: the ratio was per-column interpreter overhead
    # amortised over the burst, and it went with the column loop
    assert rec["speedup"] >= rec["speedup_floor"] == 1.0
    loop = rec["open_loop"]
    assert loop["completed"] == 20
    assert loop["failed"] == 0
    assert {"throughput_rps", "p50_latency_seconds", "p99_latency_seconds",
            "batches", "mean_width"} <= set(loop)
    sharded = rec["sharded_open_loop"]
    assert len(sharded["mix"]) >= 4
    assert [r["shards"] for r in sharded["shards"]] == [1, 4]
    assert all(r["completed"] == 20 and r["failed"] == 0
               for r in sharded["shards"])
    assert sharded["bit_identical"] is True
    assert sharded["scaling_floor"] == 1.7
    assert sharded["floor_enforced"] == (sharded["cpus"] >= 4)


def test_bench_trajectory_executor_schema(tmp_path):
    out = tmp_path / "BENCH_executor.json"
    # hard timeout: a deadlocked process-executor run must fail the test
    # in minutes, not hang the suite
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_trajectory.py"),
         "--bench", "executor", "--matrix", "cfd03", "--rounds", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=600,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    assert rec["schema"] == "bench_executor/v1"
    ident = rec["bit_identity"]
    assert [r["grid"] for r in ident["rows"]] == ["1x2", "2x2", "2x3"]
    assert ident["all_identical"] is True
    assert all(r["factors_identical"] and r["solution_identical"]
               for r in ident["rows"])
    scaling = rec["scaling"]
    assert [r["ranks"] for r in scaling["ranks"]] == [1, 4]
    assert all(r["wall_seconds"] > 0 for r in scaling["ranks"])
    assert scaling["scaling_floor"] == 1.5
    # skipped, not failed, on small hosts — the record says which
    assert scaling["floor_enforced"] == (scaling["cpus"] >= 4)
    if scaling["floor_enforced"]:
        assert scaling["scaling"] >= scaling["scaling_floor"]


def test_executor_scaling_rows_smoke():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from bench_executor import SCALING_FLOOR, executor_scaling
    finally:
        sys.path.pop(0)
    out = executor_scaling(name="cfd03", ranks=(1, 2), rounds=1)
    assert [r["ranks"] for r in out["ranks"]] == [1, 2]
    assert out["scaling"] > 0.0
    assert out["scaling_floor"] == SCALING_FLOOR == 1.5
    assert out["floor_enforced"] == (out["cpus"] >= 2)


@needs_spawn
def test_sharded_open_loop_smoke():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        from bench_service import SHARD_SCALING_FLOOR, sharded_open_loop
    finally:
        sys.path.pop(0)
    out = sharded_open_loop(requests=8, shard_counts=(1, 2))
    assert out["bit_identical"] is True   # solutions cross the process
    assert [r["shards"] for r in out["shards"]] == [1, 2]
    assert all(r["completed"] == 8 and r["failed"] == 0
               and r["rejected"] == 0 for r in out["shards"])
    assert out["scaling"] > 0.0
    assert out["scaling_floor"] == SHARD_SCALING_FLOOR == 1.7
    # 1->2 scaling with 8 requests is too noisy to gate tier 2 on; the
    # full bench (scripts/bench_trajectory.py --bench service) enforces
    # the floor when floor_enforced says the host can express it
    assert out["floor_enforced"] == (out["cpus"] >= 2)
