"""Figure 2: characteristics of the 53 test matrices.

The paper plots dimension, nnz(A) and nnz(L+U) with matrices sorted by
increasing factorization time; "matrices large in dimension and number of
nonzeros also require more time to factorize".  This bench regenerates
the same series and asserts the rank correlation.
"""

import numpy as np

from conftest import save_table
from repro.analysis import Table
from repro.driver import GESPOptions, GESPSolver
from repro.matrices import matrix_by_name


def bench_fig2_characteristics(benchmark, testbed_results):
    rows = sorted(testbed_results.items(),
                  key=lambda kv: kv[1]["record"].span_seconds("factor"))
    t = Table("Figure 2 — matrix characteristics (sorted by factor time)",
              ["matrix", "discipline", "n", "nnz(A)", "nnz(L+U)",
               "factor(s)"])
    for name, r in rows:
        t.add(name, r["discipline"], r["n"], r["nnz"], r["fill"],
              r["record"].span_seconds("factor"))
    save_table("fig2_characteristics", t)

    # the paper's qualitative claim: factor time grows with problem size —
    # Spearman rank correlation between fill and factor time is high
    fills = np.array([r["fill"] for _, r in rows], dtype=float)
    times = np.array([r["record"].span_seconds("factor") for _, r in rows])
    rf = np.argsort(np.argsort(fills))
    rt = np.argsort(np.argsort(times))
    corr = np.corrcoef(rf, rt)[0, 1]
    assert corr > 0.8, corr

    # benchmark unit: one representative factorization (median-fill matrix)
    mid = rows[len(rows) // 2][0]
    a = matrix_by_name(mid).build()
    benchmark.pedantic(
        lambda: GESPSolver(a, GESPOptions.paper_defaults()),
        rounds=1, iterations=1)
