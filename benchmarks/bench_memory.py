"""Memory-requirement claims (paper §2.3 and §3.1).

- "their [the orderings'] memory requirement is just O(nnz(A)), whereas
  the memory requirement for L and U factors grows superlinearly in
  nnz(A), so in the meantime we can run them on a single processor";
- "the memory requirement of the symbolic analysis is small, because we
  only store and manipulate the supernodal graph of L and the skeleton
  graph of U, which are much smaller than the graphs of L and U";
- the distributed factor storage splits evenly: per-rank bytes shrink
  like ~1/P (the reason the method scales to problems no single node
  could hold).

Reproduced with explicit byte accounting across a size sweep.
"""

import numpy as np

from conftest import MACHINE, save_table
from repro.analysis import Table
from repro.dmem import best_grid, distribute_matrix
from repro.driver.dist_driver import DistributedGESPSolver
from repro.matrices import convection_diffusion_2d


def bench_memory(benchmark):
    t = Table("Memory accounting across problem sizes (bytes)",
              ["n", "nnz(A)", "A bytes", "factor bytes", "block-struct "
               "bytes", "factor/A ratio"])
    ratios = []
    rows = []
    for nx in (16, 24, 32, 48):
        a = convection_diffusion_2d(nx, peclet=30.0, seed=9)
        s = DistributedGESPSolver(a, nprocs=4, machine=MACHINE)
        a_bytes = a.nzval.nbytes + a.rowind.nbytes + a.colptr.nbytes
        factor_bytes = sum(s.dist.local_bytes(r)
                           for r in range(s.grid.size))
        # the replicated "symbolic" block structure: supernode boundaries
        # plus one index list per supernode (the supernodal graph)
        struct_bytes = s.part.xsup.nbytes + sum(
            sr.nbytes for sr in s.dist.s_rows)
        ratio = factor_bytes / a_bytes
        ratios.append((a.nnz, ratio, struct_bytes, factor_bytes))
        rows.append((a.ncols, a.nnz, a_bytes, factor_bytes, struct_bytes,
                     ratio))
        t.add(*rows[-1])
    save_table("memory_scaling", t)

    # superlinear factor growth: the bytes-per-nonzero ratio increases
    # with problem size
    assert ratios[-1][1] > ratios[0][1]
    # the supernodal structure is much smaller than the factors
    for (_, _, struct_b, factor_b) in ratios:
        assert struct_b < factor_b / 4

    # per-rank storage shrinks like ~1/P
    a = convection_diffusion_2d(40, peclet=30.0, seed=9)
    base = DistributedGESPSolver(a, nprocs=4, machine=MACHINE)
    per_rank = {}
    for p in (1, 4, 16):
        dist = distribute_matrix(base.a_factored, base.symbolic, base.part,
                                 best_grid(p))
        per_rank[p] = max(dist.local_bytes(r) for r in range(p))
    t2 = Table("Max per-rank factor storage vs P (n=1600 CFD)",
               ["P", "max per-rank bytes", "vs P=1"])
    for p, byts in per_rank.items():
        t2.add(p, byts, f"{per_rank[1] / byts:.1f}x smaller")
    save_table("memory_per_rank", t2)
    assert per_rank[4] < per_rank[1] / 2
    assert per_rank[16] < per_rank[4]

    benchmark(lambda: sum(base.dist.local_bytes(r)
                          for r in range(base.grid.size)))
