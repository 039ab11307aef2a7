"""§2.1 design space: fill-reducing column orderings.

Paper: "The column permutation Pc can be obtained from any fill-reducing
heuristic.  For now, we use the minimum degree ordering algorithm on the
structure of AᵀA.  In the future, we will use the approximate minimum
degree column ordering algorithm ... which is faster and requires less
memory since it does not explicitly form AᵀA.  We can also use nested
dissection on AᵀA or Aᵀ+A."

Measured: fill nnz(L+U) and ordering wall time for the three ``col_perm``
values over three matrices of different character; minimum degree on
either graph must beat the natural ordering, and the Aᵀ+A variant must
avoid the memory blow-up of forming AᵀA (tracked via the product's nnz).
AMD, a COLAMD-style loop and nested dissection were measured once and
retired (EXPERIMENTS.md §2.1).
"""

import time

from conftest import save_table
from repro.analysis import Table
from repro.matrices import matrix_by_name
from repro.ordering import column_ordering
from repro.sparse.ops import pattern_ata, pattern_union_transpose, permute_symmetric
from repro.symbolic import symbolic_lu_symmetrized

METHODS = ["natural", "mmd_ata", "mmd_at_plus_a"]
MATRICES = ["cfd05", "chem04", "circuit05"]


def bench_orderings(benchmark):
    t = Table("Column orderings: fill nnz(L+U) (ordering seconds)",
              ["matrix"] + METHODS)
    fills = {}
    for name in MATRICES:
        a = matrix_by_name(name).build()
        row = [name]
        for m in METHODS:
            t0 = time.perf_counter()
            p = column_ordering(a, method=m)
            dt = time.perf_counter() - t0
            fill = symbolic_lu_symmetrized(permute_symmetric(a, p)).nnz_lu
            fills[(name, m)] = fill
            row.append(f"{fill} ({dt:.2f}s)")
        t.add(*row)
    save_table("orderings", t)

    # on the PDE and circuit matrices minimum degree wins on either graph;
    # the staged chemical flowsheet is already near-optimally ordered
    # (block tridiagonal), so there we only require "no blow-up"
    for name in ("cfd05", "circuit05"):
        nat = fills[(name, "natural")]
        for m in METHODS[1:]:
            assert fills[(name, m)] < nat, (name, m)
    nat = fills[("chem04", "natural")]
    for m in METHODS:
        assert fills[("chem04", m)] <= 2.0 * nat, m

    # the memory argument: nnz(AᵀA) >> nnz(Aᵀ+A) for matrices with
    # denser rows — the reason the paper wants to avoid forming AᵀA
    a = matrix_by_name("chem04").build()
    assert pattern_ata(a).nnz > pattern_union_transpose(a).nnz

    a = matrix_by_name("cfd05").build()
    benchmark.pedantic(lambda: column_ordering(a, "mmd_at_plus_a"),
                       rounds=1, iterations=1)
