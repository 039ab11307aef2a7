"""Figure 6: cost of each GESP step relative to factorization.

Paper observations, which this bench reproduces as population claims over
the testbed (each step's time divided by the factorization time):

- MC64 row permutation: "significant for small problems, but drops to 1%
  to 10% for large matrices requiring a long time to factor";
- residual (SpMV) is cheaper than a triangular solve; both a small
  fraction of factorization for large problems ("solve often < 5%");
- the forward error bound is "by far the most expensive step after
  factorization" (multiple triangular solves).

Stage times come from the :class:`repro.obs.RunRecord` traces collected
by the ``testbed_results`` fixture — the Figure-6 breakdown is exactly
"read the stage spans of one traced run", as docs/OBSERVABILITY.md's
worked example shows.
"""

import time

import numpy as np

from conftest import save_table
from repro.analysis import Table
from repro.driver import GESPOptions, GESPSolver
from repro.matrices import matrix_by_name


def bench_fig6_breakdown(benchmark, testbed_results):
    rows = sorted(testbed_results.items(),
                  key=lambda kv: kv[1]["record"].span_seconds("factor"))
    t = Table("Figure 6 — time of each step / factorization time",
              ["matrix", "factor(s)", "rowperm/f", "colperm/f",
               "solve/f", "spmv/f"])
    ratios = []
    for name, r in rows:
        rec = r["record"]
        f = max(rec.span_seconds("factor"), 1e-9)
        ratios.append({
            "name": name, "f": f,
            "rowperm": rec.span_seconds("rowperm") / f,
            "colperm": rec.span_seconds("colperm") / f,
            "solve": r["t_solve"] / f,
            "spmv": r["t_spmv"] / f,
        })
        t.add(name, f, ratios[-1]["rowperm"], ratios[-1]["colperm"],
              ratios[-1]["solve"], ratios[-1]["spmv"])
    save_table("fig6_breakdown", t)

    # claims, evaluated on the largest (slowest-factoring) quartile —
    # "the problems of most interest on parallel machines"
    big = ratios[-len(ratios) // 4:]
    med_rowperm = float(np.median([r["rowperm"] for r in big]))
    assert med_rowperm < 0.6, med_rowperm  # small share for big problems
    for r in big:
        assert r["spmv"] <= r["solve"] * 1.5 + 0.05  # residual cheaper
    med_solve = float(np.median([r["solve"] for r in big]))
    assert med_solve < 0.5, med_solve

    # the flop counters in the traces agree with the kernels' own counts
    for name, r in rows:
        assert r["record"].total("factor.flops") == r["flops"]

    # the error bound really is the most expensive post-factor step
    a = matrix_by_name(rows[-1][0]).build()
    b = a @ np.ones(a.ncols)
    s = GESPSolver(a, GESPOptions.paper_defaults())
    t0 = time.perf_counter()
    s.solve_once(b)
    t_solve = time.perf_counter() - t0
    t0 = time.perf_counter()
    s.solve(b, forward_error=True)
    t_ferr = time.perf_counter() - t0
    assert t_ferr > t_solve

    benchmark.pedantic(lambda: s.solve(b, forward_error=True),
                       rounds=1, iterations=1)
