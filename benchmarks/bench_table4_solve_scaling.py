"""Table 4: triangular solve time and Megaflop rate vs processor count.

Paper facts reproduced in shape:

- "when the number of processors continues increasing beyond 64, the
  solve time remains roughly the same" (it stops improving long before
  the factorization does);
- solve Megaflop rates are far below factorization rates;
- solve time is a small fraction of factorization time throughout.
"""

import numpy as np

from conftest import BIG_FOUR, P_LIST_ALL, P_LIST_BIG, save_table
from repro.analysis import Table
from repro.matrices import matrix_by_name
from repro.pdgstrs import pdgstrs


def bench_table4_solve_scaling(benchmark, scaling_results):
    plist = sorted(set(P_LIST_ALL) | set(P_LIST_BIG))
    t = Table("Table 4 — triangular solve time (ms) and Mflops on the "
              "virtual T3E",
              ["matrix"] + [f"P={p}" for p in plist] + ["Mflops@max"])
    for name, r in scaling_results.items():
        cells = []
        for p in plist:
            cells.append(f"{r['runs'][p]['solve_time'] * 1e3:.2f}"
                         if p in r["runs"] else "-")
        pmax = max(r["runs"])
        t.add(name, *cells, f"{r['runs'][pmax]['solve_mflops']:.0f}")
    save_table("table4_solve_scaling", t)

    for name, r in scaling_results.items():
        runs = r["runs"]
        ps = sorted(runs)
        # beyond 64 processors the solve stops improving much (< 2.5x gain
        # from 64 to the largest grid, vs the factorization's steady gains)
        if max(ps) > 64:
            assert runs[max(ps)]["solve_time"] > runs[64]["solve_time"] / 2.5, name
        # solve is much cheaper than factorization
        for p in ps:
            assert runs[p]["solve_time"] < runs[p]["factor_time"], (name, p)
    # in aggregate the solves run at a (much) lower Mflop rate than the
    # factorizations (per-matrix exceptions exist when a factorization is
    # itself purely latency-bound, e.g. the thin RDIST1 analog)
    agg_factor = np.median([r["runs"][64]["factor_mflops"]
                            for r in scaling_results.values()])
    agg_solve = np.median([r["runs"][64]["solve_mflops"]
                           for r in scaling_results.values()])
    assert agg_solve < agg_factor

    # benchmark unit: a distributed solve at P=16 on a mid-size matrix
    from conftest import MACHINE
    from repro.dmem import best_grid, distribute_matrix
    from repro.driver.dist_driver import DistributedGESPSolver
    from repro.pdgstrf import pdgstrf

    s = DistributedGESPSolver(matrix_by_name("AF23560a").build(), nprocs=4,
                              machine=MACHINE)
    dist = distribute_matrix(s.a_factored, s.symbolic, s.part, best_grid(16))
    pdgstrf(dist, s.dag, anorm=s.anorm, machine=MACHINE)
    b = np.ones(s.a_factored.ncols)
    benchmark.pedantic(lambda: pdgstrs(dist, b, machine=MACHINE),
                       rounds=1, iterations=1)
