"""Compare two sets of benchmark records: ``python3 bench/compare.py
PARENT.jsonl CHANGE.jsonl [--markdown]``.

Each file holds the records ``bench/run.py --out FILE`` appended, one
JSON object per line, from at least ten runs per workload (alternate
which side runs first).  Prints one row per workload x end-to-end
metric — both medians, both quartile pairs, the ratio change / parent —
and a verdict by the rule of the choosing-metrics guide (sections 6.5
and 8):

- ``improved``   the change wins at least 9/10 of the pairs (ties count
  for neither side) and the medians differ by more than the distance
  between the parent's own quartiles;
- ``regressed``  the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved`` neither, and a side's run-to-run spread (quartile
  distance / median) is wider than the bound — unless every run of the
  change reads better than every run of the parent;
- ``unchanged``  otherwise.

Then checks what must be bit-identical between runs on the same seed:
every stream digest and every exact count of the traced passes.  Exit
status 1 on any ``regressed`` row or failed identity check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "flop", "B")
# Counts that are not a pure function of the inputs, and why:
# - svc_rhs submits eight requests back to back; whether the dispatcher
#   drains them as one batch or two depends on thread timing, and joint
#   refinement (hence certification and recovery) follows the batch;
# - svc_newton factors two patterns on two threads at once, and the
#   kernel backend's flop accumulator is one object shared by both, so
#   each factorization's delta can include the other's flops.
TIMING_DEPENDENT = {
    "svc_rhs": ("solve.refine_steps", "service.recovered",
                "driver.uncertified"),
    "svc_newton": ("factor.flops", "kernels.lu_calls", "kernels.trsm_calls",
                   "kernels.gemm_calls", "kernels.gemm_flops"),
}


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def verdict(parent, change, better, bound):
    """The rule in the module docstring for one metric's two samples."""
    sign = 1.0 if better == "higher" else -1.0      # +: larger is better
    p_med, c_med = median(parent), median(change)
    p_q1, p_q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    ties = sum(c == p for p, c in pairs)
    decided = len(pairs) - ties
    if (decided and wins >= 0.9 * decided and sign * (c_med - p_med) > 0
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved"
    if sign * (p_med - c_med) / abs(p_med) > bound:
        return "regressed"
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def end_to_end_rows(spec, parent, change):
    rows = []
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            def column(records):
                return [r["metrics"][m["name"]]["value"] for r in records
                        if r["workload"] == w and not r["trace"]]
            p, c = column(parent), column(change)
            if not p or not c:
                continue
            rows.append(dict(
                workload=w, metric=m["name"], unit=m["unit"],
                runs=(len(p), len(c)),
                parent=median(p), parent_q=quartiles(p),
                change=median(c), change_q=quartiles(c),
                ratio=median(c) / median(p), bound=m["bound"],
                spread=max(spread(p), spread(c)),
                verdict=verdict(p, c, m["better"], m["bound"])))
    return rows


def identity_failures(spec, records):
    """What differs between runs that must agree exactly: per (workload,
    seed), the stream digests of every run and the exact counts of every
    traced run."""
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    seen, failures = {}, []
    for r in records:
        key = (r["workload"], r["seed"])
        facts = {"digests": r["digests"]}
        if r["trace"]:
            facts.update(
                (name, r["metrics"][name]["value"]) for name in exact
                if name not in TIMING_DEPENDENT.get(r["workload"], ()))
        first = seen.setdefault(key, {})
        for name, value in facts.items():
            if first.setdefault(name, value) != value:
                failures.append(f"{key[0]} seed {key[1]}: {name} "
                                f"{first[name]!r} != {value!r}")
    return failures


def render(rows, markdown):
    head = ("workload", "metric", "unit", "runs", "parent median [q1, q3]",
            "change median [q1, q3]", "change/parent", "spread", "bound",
            "verdict")
    body = [(r["workload"], r["metric"], r["unit"],
             "%d+%d" % r["runs"],
             "%.4g [%.4g, %.4g]" % (r["parent"], *r["parent_q"]),
             "%.4g [%.4g, %.4g]" % (r["change"], *r["change_q"]),
             "%.3f" % r["ratio"], "%.1f %%" % (100 * r["spread"]),
             "%.0f %%" % (100 * r["bound"]), r["verdict"]) for r in rows]
    if markdown:
        lines = ["| " + " | ".join(head) + " |",
                 "|" + "---|" * len(head)]
        lines += ["| " + " | ".join(row) + " |" for row in body]
        return "\n".join(lines)
    widths = [max(len(row[i]) for row in [head] + body)
              for i in range(len(head))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                     for row in [head] + body)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--markdown", action="store_true")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    parent, change = load(args.parent), load(args.change)

    rows = end_to_end_rows(spec, parent, change)
    print(render(rows, args.markdown))
    failures = identity_failures(spec, parent + change)
    failed_ops = sum(r["failed"] for r in parent + change)
    print()
    print(f"failed operations over all {len(parent) + len(change)} records: "
          f"{failed_ops}")
    print("stream digests and exact counts identical on every seed: "
          + ("yes" if not failures else "NO"))
    for line in failures:
        print("  " + line)
    bad = failures or any(r["verdict"] == "regressed" for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
