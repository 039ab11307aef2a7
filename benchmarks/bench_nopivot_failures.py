"""§2.2 population claim: failure without pivoting.

Paper: "Among the 53 matrices, most would get wrong answers or fail
completely (via division by a zero pivot) without any pivoting or other
precautions.  22 matrices contain zeros on the diagonal to begin with ...
Therefore, not pivoting at all would fail completely on these 27
matrices.  Most of the other 26 matrices would get unacceptably large
errors due to pivot growth."

Reproduced: running the testbed with every safeguard disabled, counting
hard failures (zero pivot) and soft failures (error > 1e-6); with full
GESP every single matrix solves accurately.
"""

import numpy as np

from conftest import save_table
from repro.analysis import Table
from repro.driver import GESPOptions, GESPSolver
from repro.matrices import matrix_by_name
from repro.matrices import testbed_53 as full_testbed


def bench_nopivot_failures(benchmark, testbed_results):
    hard, soft, fine = 0, 0, 0
    t = Table("No-pivoting outcome per matrix (GESP always succeeds)",
              ["matrix", "no-pivot outcome", "GESP err"])
    for tm in full_testbed():
        a = tm.build()
        b = a @ np.ones(a.ncols)
        try:
            rep = GESPSolver(a, GESPOptions.no_pivoting()).solve(b)
            err = float(np.abs(rep.x - 1.0).max())
            if err > 1e-6:
                soft += 1
                outcome = f"wrong answer ({err:.0e})"
            else:
                fine += 1
                outcome = "survived"
        except ZeroDivisionError:
            hard += 1
            outcome = "zero pivot"
        t.add(tm.name, outcome, testbed_results[tm.name]["err_gesp"])
    t.add("TOTALS", f"{hard} zero-pivot, {soft} wrong, {fine} ok "
          f"(paper: 27 fail completely)", "-")
    save_table("nopivot_failures", t)

    # the paper's shape: a large share fails completely, more get wrong
    # answers, and full GESP fixes all of them
    assert hard >= 15, hard
    assert hard + soft >= 25, (hard, soft)
    assert all(r["err_gesp"] < 1e-5 for r in testbed_results.values())

    a = matrix_by_name("cfd01").build()
    benchmark.pedantic(
        lambda: GESPSolver(a, GESPOptions.paper_defaults()),
        rounds=1, iterations=1)
