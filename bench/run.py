"""Run the benchmark: ``python3 bench/run.py --workload W --seed N
--seconds S --trace 0|1`` (or ``PYTHONPATH=src python -m bench.run``).

One invocation measures one workload (all six, one after another, when
``--workload`` is omitted).  It starts REPS worker processes in turn —
each pays the full set-up, so ``setup_s`` is a median of REPS set-ups,
and the measured time is spread over three stretches of the host's
speed drift instead of one — runs the idle-machine reference kernel
between them, gates every returned ``x``, and prints, as its last line,
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end
metric (``--trace 0``) or every per-layer metric (``--trace 1``) that
``BENCHMARK.json`` names.  Exit status is non-zero when any operation
failed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import host  # noqa: E402 — needs ROOT on sys.path

os.environ.update(host.THREAD_PINS)      # before anything imports numpy

from bench.layers import REF_NOMINAL_S, per_layer  # noqa: E402

OUT = ROOT / "bench" / "out"
REPS = 3
REP_TIMEOUT_S = 150.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload, seed, seconds, traced, fixed, quick):
    """One worker process from start to exit -> (setup_s, its report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + [p for p in [
            env.get("PYTHONPATH")] if p])
    cmd = [sys.executable, "-m", "bench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds),
           "--traced", str(int(traced)),
           "--fixed", str(int(fixed)), "--quick", str(int(quick))]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE)
    watchdog = threading.Timer(REP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise WorkerFailed(f"{workload} worker exited with status {code}")
    return setup_s, json.loads(rest)


def run_workload(spec, workload, seed, seconds, trace, quick):
    """All reps of one workload -> its result record."""
    reps = 1 if quick else REPS
    # a traced or quick pass runs a fixed number of segments, not a
    # duration, so that its counts repeat exactly from run to run
    fixed = bool(trace) or quick
    # a traced pass keeps its middle rep untraced: the same ops without
    # the tracer, which is what obs.overhead_share compares against
    traced = [bool(trace) and not (reps > 1 and r == 1) for r in range(reps)]

    refs = [host.ref_s()]
    setups, reports = [], []
    for r in range(reps):
        setup_s, report = run_worker(workload, seed, seconds / reps,
                                     traced[r], fixed, quick)
        setups.append(setup_s)
        reports.append(report)
        refs.append(host.ref_s())
    if abs(refs[-1] / refs[0] - 1.0) > 0.10:
        print(f"warning: host.ref_s moved {refs[0]:.6f} -> {refs[-1]:.6f} s "
              f"during {workload}; the host's speed drifted by more than "
              "10 %", file=sys.stderr)

    digests = reports[0]["digests"]
    if any(rep["digests"] != digests for rep in reports):
        raise WorkerFailed(f"{workload}: stream digests differ between reps")
    for rep in reports:
        for op in rep["ops"]:
            # Seconds at the reference host speed: the idle-machine
            # reference kernel ran on either side of the op's segment,
            # and the host's CPU speed drifts by 10-25 % over minutes.
            ref = rep["segments"][op["segment"]][2]
            op["latency_cal"] = op["latency"] * REF_NOMINAL_S / ref
    ops = [op for rep in reports for op in rep["ops"]]
    failed = sum(op["failed"] for op in ops)
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "attempted": len(ops), "failed": failed, "digests": digests,
              "host": host.fingerprint(), "host_ref_s": refs,
              "errors": sorted({op["error"] for op in ops if op["error"]})}
    if not trace:
        values = end_to_end(reports, setups)
        record["samples"] = {
            "ops": len(ops) - failed,
            "segments": sum(len(rep["segments"]) for rep in reports)}
        units = spec["end_to_end"]
    else:
        units = spec["per_layer"]
        on = [rep for rep, t in zip(reports, traced) if t]
        untraced = [op for rep, t in zip(reports, traced) if not t
                    for op in rep["ops"]]
        extra = {}
        for m in units:
            found = [rep["extra"][m["name"]] for rep in on
                     if m["name"] in rep["extra"]]
            if found:
                extra[m["name"]] = (median(found) if m["unit"] == "s"
                                    else sum(found))
        values = per_layer(workload, [m["name"] for m in units],
                           [op for rep in on for op in rep["ops"]], untraced,
                           extra, median(refs))
        record["unmeasured"] = sorted(k for k, v in values.items()
                                      if v is None)
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{workload}.json", "w") as fh:
            json.dump({"workload": workload, "seed": seed,
                       "spans": [s for rep in on for s in rep["spans"]]}, fh)
    record["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in units}
    return record


def end_to_end(reports, setups):
    """The four end-to-end metrics of one untraced run."""
    good = [op["latency_cal"] for rep in reports for op in rep["ops"]
            if not op["failed"]]
    if not good:
        raise WorkerFailed("every operation failed its gate")
    segments = [seg for rep in reports for seg in rep["segments"]]
    return {
        "setup_s": median(setups),
        "solve_s": median(good),
        # The median segment, not the mean: a rare recovery-ladder run
        # costs ten to twenty ordinary ops, and how many of them a run
        # happens to draw would otherwise decide the number.
        "throughput_sps": median(done / wall * ref / REF_NOMINAL_S
                                 for wall, done, ref in segments),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in reports)}


def contract_line(record) -> str:
    """The one-line result the driver reads.  A per-layer metric with no
    reading on this workload prints as 0 (its name is in the record's
    ``unmeasured`` list, printed just above)."""
    metrics = {name: {"value": 0 if m["value"] is None else m["value"],
                      "unit": m["unit"]}
               for name, m in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="default: all six, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="one rep, one small segment (for bench.selftest)")
    parser.add_argument("--out", type=Path,
                        help="append each workload's record to this JSONL file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} is missing; the benchmark "
              "measures that package", file=sys.stderr)
        return 2
    try:
        lock = host.exclusive_lock(OUT)
    except host.AnotherRunAlive as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    before = host.shm_segments()
    status = 0
    try:
        for workload in [args.workload] if args.workload else names:
            record = run_workload(spec, workload, args.seed, args.seconds,
                                  args.trace, args.quick)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(record) + "\n")
            leaked = sorted(host.shm_segments() - before)
            if leaked:
                raise WorkerFailed(
                    f"{workload} left shared-memory segments behind: {leaked}")
            for key in ("workload", "seed", "digests", "host", "host_ref_s",
                        "samples", "unmeasured", "errors"):
                if record.get(key) not in (None, []):
                    print(f"{key}: {json.dumps(record[key])}")
            print(contract_line(record), flush=True)
            status = status or int(record["failed"] > 0)
    finally:
        lock.close()
    return status


if __name__ == "__main__":
    sys.exit(main())
