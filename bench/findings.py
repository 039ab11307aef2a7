"""Reproduce the sizing findings that need a *variant* of a workload:
``python3 bench/findings.py {one_client,two_rhs,drift8} [--seed N]``.

The variants are not benchmark workloads (bench/README.md says why each
was rejected as one); they exist so the numbers quoted there can be
measured again.  Each runs for about eight seconds and prints the median
caller-observed latency, solutions per second, and the exact counts that
explain them.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import host  # noqa: E402

os.environ.update(host.THREAD_PINS)      # before anything imports numpy

from bench import workloads  # noqa: E402


class OneClient(workloads.SvcNewton):
    """One client walking one stream through ``SolveService``: what the
    service tier costs a caller who has it to themselves."""

    patterns = ("cfd06",)


class TwoRhs(workloads.SvcRhs):
    """Two concurrent clients submitting 8-RHS blocks in one process:
    bistable under the GIL, which is why ``svc_rhs`` has one client."""

    segment_ops = 4
    segment = workloads.SvcNewton.segment      # one thread per pattern


class Drift8(workloads.SvcNewton):
    """The ``newton_drift`` scenario's default 8 % per iterate: the MC64
    matching moves every few iterates and SAME_PATTERN downgrades to a
    cold analysis (``driver.reuse_misses``)."""

    def make_stream(self, pattern, seed):
        return workloads.newton_stream(pattern, seed, self.stream_len,
                                       drift=0.08)


VARIANTS = {"one_client": OneClient, "two_rhs": TwoRhs, "drift8": Drift8}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("variant", choices=sorted(VARIANTS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    workload = VARIANTS[args.variant](args.seed, True, False)
    ops = []
    try:
        workload.warm_up()
        start = time.perf_counter()
        while time.perf_counter() - start < 8.0:
            ops += workload.segment()
        wall = time.perf_counter() - start
    finally:
        workload.close()
    workload.finish(ops)

    def total(count):
        return sum(op.counts.get(count, 0) for op in ops)

    print(f"{args.variant}: {len(ops)} ops, median "
          f"{median(op.latency for op in ops):.4f} s, "
          f"{sum(len(op.systems) for op in ops) / wall:.1f} solutions/s, "
          f"reuse_misses {total('driver.reuse_misses')}, "
          f"recovered {total('service.recovered')}, "
          f"errors {sum(op.error is not None for op in ops)}")


if __name__ == "__main__":
    main()
