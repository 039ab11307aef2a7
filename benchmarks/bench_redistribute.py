"""§5 future-work interface: distributed input + redistribution cost.

Paper: "we will start with the matrix initially distributed in some
manner.  The symbolic algorithm then determines the best layout for the
numeric algorithms, and redistributes matrix if necessary."

Measured: the modeled cost of the row-slab → 2-D block-cyclic all-to-all
relative to one factorization — small (so accepting user-distributed
input is cheap), and amortizable over repeated factorizations exactly
like the orderings.
"""

import numpy as np

from conftest import MACHINE, save_table
from repro.analysis import Table
from repro.dmem import best_grid
from repro.dmem.redistribute import DistributedInput, redistribute
from repro.driver.dist_driver import DistributedGESPSolver
from repro.matrices import matrix_by_name
from repro.pdgstrf import pdgstrf


def bench_redistribute(benchmark):
    t = Table("Redistribution (1-D slabs → 2-D cyclic) vs factorization",
              ["matrix", "P", "redist (ms)", "factor (ms)", "redist/factor",
               "redist msgs"])
    ratios = []
    for name in ("AF23560a", "ECL32a"):
        base = DistributedGESPSolver(matrix_by_name(name).build(), nprocs=16,
                                     machine=MACHINE)
        for p in (4, 16):
            grid = best_grid(p)
            din = DistributedInput.from_csc(base.a_factored, nranks=p)
            dist, rsim = redistribute(din, base.symbolic, base.part, grid,
                                      machine=MACHINE)
            frun = pdgstrf(dist, base.dag, anorm=base.anorm, machine=MACHINE)
            ratio = rsim.elapsed / frun.elapsed
            ratios.append(ratio)
            t.add(name, p, rsim.elapsed * 1e3, frun.elapsed * 1e3, ratio,
                  rsim.total_messages)
    save_table("redistribute", t)

    # the all-to-all is a small fraction of one factorization
    assert all(r < 0.5 for r in ratios), ratios

    base = DistributedGESPSolver(matrix_by_name("AF23560a").build(),
                                 nprocs=4, machine=MACHINE)
    din = DistributedInput.from_csc(base.a_factored, nranks=4)
    benchmark.pedantic(
        lambda: redistribute(din, base.symbolic, base.part, best_grid(4),
                             machine=MACHINE),
        rounds=1, iterations=1)
