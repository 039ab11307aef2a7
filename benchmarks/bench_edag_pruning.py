"""§3.2 ablation: EDAG-pruned communication vs send-to-all.

Paper: "for AF23560 on 32 (4x8) processes, the total number of messages
is reduced from 351052 to 302570, or 16% fewer messages.  The reduction
is even more with more processes or sparser problems."

Reproduced shape: pruning reduces messages on the AF23560 analog at a
4x8 grid; the reduction grows both with processor count and for a much
sparser matrix (the RDIST1 analog).
"""

import numpy as np

from conftest import MACHINE, save_table
from repro.analysis import Table
from repro.dmem import ProcessGrid, distribute_matrix
from repro.driver.dist_driver import DistributedGESPSolver
from repro.matrices import matrix_by_name
from repro.pdgstrf import pdgstrf


def _messages(base, grid, edag):
    dist = distribute_matrix(base.a_factored, base.symbolic, base.part, grid)
    run = pdgstrf(dist, base.dag, anorm=base.anorm, machine=MACHINE,
                  edag_prune=edag)
    return run.sim.total_messages


def bench_edag_pruning(benchmark):
    t = Table("EDAG pruning vs send-to-all (message counts)",
              ["matrix", "grid", "send-to-all", "EDAG", "reduction %"])
    reductions = {}
    af = DistributedGESPSolver(matrix_by_name("AF23560a").build(),
                               nprocs=32, machine=MACHINE)
    rd = DistributedGESPSolver(matrix_by_name("RDIST1a").build(),
                               nprocs=32, machine=MACHINE)
    for name, base, grid in [
            ("AF23560a", af, ProcessGrid(4, 8)),
            ("AF23560a", af, ProcessGrid(8, 8)),
            ("RDIST1a", rd, ProcessGrid(4, 8))]:
        all_msgs = _messages(base, grid, edag=False)
        pruned = _messages(base, grid, edag=True)
        red = 100.0 * (1.0 - pruned / all_msgs)
        reductions[(name, grid.size)] = red
        t.add(name, f"{grid.nprow}x{grid.npcol}", all_msgs, pruned, red)
    save_table("edag_pruning", t)

    # pruning always helps (paper: 16% at this configuration)
    assert reductions[("AF23560a", 32)] > 5.0
    # more processes -> larger reduction
    assert reductions[("AF23560a", 64)] > reductions[("AF23560a", 32)]
    # sparser problem -> larger reduction
    assert reductions[("RDIST1a", 32)] > reductions[("AF23560a", 32)]

    benchmark.pedantic(
        lambda: _messages(af, ProcessGrid(4, 8), True),
        rounds=1, iterations=1)
