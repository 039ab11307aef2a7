"""§3.2 ablation: maximum supernode block size.

Paper: "By experimenting, we found that a maximum block size between 20
and 30 is good on the Cray T3E. We used 24."  Too small hurts the dense
kernel rate; too large hurts parallelism and load balance.

Reproduced shape: modeled factorization time at P=64 is non-monotone in
the block cap, with the minimum in the paper's neighbourhood rather than
at the extremes.
"""

import numpy as np

from conftest import MACHINE, save_table
from repro.analysis import Table
from repro.dmem import best_grid, distribute_matrix
from repro.driver.dist_driver import DistributedGESPSolver
from repro.matrices import matrix_by_name
from repro.pdgstrf import pdgstrf
from repro.symbolic import build_block_dag
from repro.symbolic.supernode import find_supernodes, relax_supernodes, split_supernodes


def bench_blocksize(benchmark):
    base = DistributedGESPSolver(matrix_by_name("ECL32a").build(),
                                 nprocs=64, machine=MACHINE)
    caps = (2, 6, 12, 24, 48, 96)
    times = {}
    t = Table("Max block size sweep (ECL32 analog, P=64, modeled ms)",
              ["max block", "nsuper", "mean size", "factor(ms)", "B"])
    raw = relax_supernodes(base.symbolic, find_supernodes(base.symbolic),
                           relax_size=96)
    for cap in caps:
        part = split_supernodes(raw, max_size=cap)
        dag = build_block_dag(base.symbolic, part)
        dist = distribute_matrix(base.a_factored, base.symbolic, part,
                                 best_grid(64))
        run = pdgstrf(dist, dag, anorm=base.anorm, machine=MACHINE)
        times[cap] = run.elapsed
        t.add(cap, part.nsuper, part.mean_size(), run.elapsed * 1e3,
              run.sim.load_balance_factor())
    save_table("blocksize", t)

    best = min(times, key=times.get)
    # the sweet spot is interior: neither the tiniest nor the hugest cap
    assert best not in (caps[0], caps[-1]), times
    # both extremes are measurably worse than the best
    assert times[caps[0]] > times[best] * 1.02
    assert times[caps[-1]] > times[best] * 1.02

    benchmark(lambda: split_supernodes(raw, max_size=24))
