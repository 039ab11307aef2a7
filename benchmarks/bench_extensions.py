"""§5 extensions: the paper's proposed complementary techniques.

The paper closes with AV41092 — "the pivot growth is still too large with
any combination of the current techniques" — and proposes: extra
precision, mixed static/diagonal-block pivoting, and the aggressive
pivot-size control with Sherman-Morrison-Woodbury recovery.

This bench builds an AV41092-analog (engineered to stress pivot growth:
weak rescaled diagonals after matching) and measures how much each
extension buys over the base GESP configuration.
"""

import numpy as np

from conftest import save_table
from repro.analysis import Table
from repro.driver import GESPOptions, GESPSolver
from repro.matrices import random_unsymmetric


def _hard_matrix():
    """An analog of the paper's hardest case: weak diagonal, values over
    many decades, mild structural asymmetry — the regime where even the
    matched diagonal leaves large pivot growth."""
    rng = np.random.default_rng(41092)
    a = random_unsymmetric(400, density=0.02, diag_zero_frac=0.7,
                           diag_scale=1e-10, seed=41092)
    v = a.nzval.copy()
    v *= np.exp(rng.uniform(-8, 8, v.size))
    from repro.sparse import CSCMatrix

    return CSCMatrix(a.nrows, a.ncols, a.colptr, a.rowind, v, check=False)


def bench_extensions(benchmark):
    a = _hard_matrix()
    n = a.ncols
    b = a @ np.ones(n)

    # the last two configurations force pivot replacements with an
    # inflated threshold (1e-4 ||A||) so the recovery paths demonstrably
    # engage: sqrt(eps)-style replacement leans on refinement alone, the
    # aggressive column-max policy on the exact Woodbury correction
    configs = {
        "base GESP": GESPOptions(),
        "extra-precision residual": GESPOptions(
            extra_precision_residual=True),
        "aggressive pivots + SMW": GESPOptions(
            aggressive_pivot_replacement=True),
        "aggr. + SMW + extra prec.": GESPOptions(
            aggressive_pivot_replacement=True,
            extra_precision_residual=True),
        "diag-block pivoting": GESPOptions(diag_block_pivoting=1.0),
        "forced repl., refine only": GESPOptions(tiny_pivot_scale=0.05),
        "forced repl., SMW": GESPOptions(tiny_pivot_scale=0.05,
                                         aggressive_pivot_replacement=True),
    }
    t = Table("§5 extensions on the AV41092 analog",
              ["configuration", "berr", "forward err", "refine steps",
               "tiny pivots"])
    results = {}
    tiny_counts = {}
    for cname, opts in configs.items():
        s = GESPSolver(a, opts)
        rep = s.solve(b)
        err = float(np.abs(rep.x - 1.0).max())
        results[cname] = (rep.berr, err)
        tiny_counts[cname] = s.factors.n_tiny_pivots
        t.add(cname, rep.berr, err, rep.refine_steps,
              s.factors.n_tiny_pivots)
    save_table("extensions", t)

    # the forced configurations actually replaced pivots — the recovery
    # machinery (refinement / Woodbury) is demonstrably exercised
    assert tiny_counts["forced repl., refine only"] > 0
    assert tiny_counts["forced repl., SMW"] > 0

    # every configuration achieves small backward error (refinement and/or
    # SMW recover the perturbations)...
    for cname, (berr, err) in results.items():
        assert berr < 1e-10, (cname, berr)
        assert err < 1e-4, (cname, err)
    # ...and the stacked extensions are at least as good as base GESP
    assert results["aggr. + SMW + extra prec."][0] <= \
        results["base GESP"][0] * 10.0

    benchmark.pedantic(
        lambda: GESPSolver(a, configs["aggressive pivots + SMW"]).solve(b),
        rounds=1, iterations=1)
