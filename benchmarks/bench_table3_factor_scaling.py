"""Table 3: LU factorization time and Megaflop rate vs processor count.

Paper facts reproduced in shape:

- factorization time decreases with P for every matrix;
- for the four large matrices (BBMAT, ECL32, FIDAPM11, WANG4 analogs)
  the time "continues decreasing up to 512 processors";
- the aggregate Megaflop rate grows with P (the paper peaks above
  8 Gflops for ECL32 on 512 PEs of the real T3E; the virtual machine is
  calibrated for shape, not absolute rate — see DESIGN.md §7).
"""

import numpy as np

from conftest import BIG_FOUR, MACHINE, P_LIST_ALL, P_LIST_BIG, save_table
from repro.analysis import Table
from repro.dmem import best_grid, distribute_matrix
from repro.driver.dist_driver import DistributedGESPSolver
from repro.matrices import matrix_by_name
from repro.pdgstrf import pdgstrf


def bench_table3_factor_scaling(benchmark, scaling_results):
    plist = sorted(set(P_LIST_ALL) | set(P_LIST_BIG))
    t = Table("Table 3 — factorization time (ms) and Mflops on the "
              "virtual T3E",
              ["matrix"] + [f"P={p}" for p in plist] + ["Mflops@max"])
    for name, r in scaling_results.items():
        cells = []
        for p in plist:
            if p in r["runs"]:
                cells.append(f"{r['runs'][p]['factor_time'] * 1e3:.1f}")
            else:
                cells.append("-")
        pmax = max(r["runs"])
        t.add(name, *cells, f"{r['runs'][pmax]['factor_mflops']:.0f}")
    save_table("table3_factor_scaling", t)

    for name, r in scaling_results.items():
        runs = r["runs"]
        ps = sorted(runs)
        times = [runs[p]["factor_time"] for p in ps]
        # overall speedup from min to max P
        assert times[-1] < times[0], (name, times)
        if name in BIG_FOUR:
            # the big four keep improving through the largest grids
            assert runs[max(ps)]["factor_time"] <= runs[64]["factor_time"] * 1.02, name
        # Mflop rate grows with P
        assert runs[max(ps)]["factor_mflops"] > runs[ps[0]]["factor_mflops"], name

    # benchmark unit: one P=16 factorization of a mid-size matrix
    s = DistributedGESPSolver(matrix_by_name("AF23560a").build(), nprocs=4,
                              machine=MACHINE)

    def unit():
        dist = distribute_matrix(s.a_factored, s.symbolic, s.part,
                                 best_grid(16))
        return pdgstrf(dist, s.dag, anorm=s.anorm, machine=MACHINE)

    benchmark.pedantic(unit, rounds=1, iterations=1)
