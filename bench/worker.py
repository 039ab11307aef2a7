"""One workload process: timed set-up, then segments, then the gate.

Started by ``bench.run`` (never by hand).  Protocol on stdout: the line
``ready`` once set-up and the warm-up segment are done — the runner
stops the set-up clock there — then one JSON document with every
operation's readings.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from bench import host
from bench.gate import op_failed
from bench.layers import flatten
from bench.workloads import WORKLOADS


def measure(workload, seconds, segments):
    """Run whole segments until ``segments`` of them are done, or (when
    ``segments`` is 0) until ``seconds`` have passed.  Segments are
    fixed op counts, so two commits do identical work per segment.  The
    reference kernel runs between segments, on the idle machine; each
    segment is paired with the mean of the readings on either side."""
    done_segments = []
    begin = time.perf_counter()
    ref_before = host.ref_s(5)
    while True:
        t0 = time.perf_counter()
        ops = workload.segment()
        t1 = time.perf_counter()
        ref_after = host.ref_s(5)
        done_segments.append((t1 - t0, ops, (ref_before + ref_after) / 2))
        ref_before = ref_after
        done = (len(done_segments) >= segments if segments
                else t1 - begin >= seconds)
        if done:
            return done_segments


def peak_rss_mb():
    """Peak RSS of this process plus its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--fixed", type=int, default=0,
                        help="run the workload's fixed segment count "
                        "instead of a duration")
    parser.add_argument("--quick", type=int, default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, bool(args.traced),
                                        bool(args.quick))
    try:
        workload.warm_up()
        print("ready", flush=True)
        segments = 0
        if args.fixed:
            segments = 1 if args.quick else workload.trace_segments
        done_segments = measure(workload, args.seconds, segments)
    finally:
        workload.close()
    ops = []
    for index, (_, seg_ops, _) in enumerate(done_segments):
        for op in seg_ops:
            op.segment = index
        ops += seg_ops
    extra = workload.finish(ops)
    for op in ops:                       # the gate, outside the timed loop
        op.failed = op_failed(op)

    spans = []
    if args.traced:
        for op in ops:
            spans += flatten(op.id, op.start, op.end, op.spans)
    json.dump({
        "digests": workload.digests,
        # per segment: wall seconds, solutions that passed the gate, and
        # the reference kernel's duration beside it
        "segments": [(wall, sum(len(op.systems) for op in seg_ops
                                if not op.failed), ref)
                     for wall, seg_ops, ref in done_segments],
        "peak_rss_mb": peak_rss_mb(),
        "extra": extra,
        "spans": spans,
        "ops": [dict(id=op.id, pattern=op.pattern, segment=op.segment,
                     latency=op.latency, failed=op.failed, error=op.error,
                     gate_berr=op.gate_berr, converged=bool(op.converged),
                     times=op.times, counts=op.counts) for op in ops],
    }, sys.stdout, default=lambda scalar: scalar.item())   # numpy scalars
    print(flush=True)


if __name__ == "__main__":
    main()
