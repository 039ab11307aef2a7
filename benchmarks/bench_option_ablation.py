"""§2.2 option-sensitivity ablation.

Paper: "Although the combination of the techniques in steps (1) and (3)
works well for most matrices, we found a few matrices for which other
combinations are better.  For example, for FIDAPM11, JPWH_991 and
ORSIRR_1, the errors are large unless we omit Dr/Dc from step (1).  For
EX11 and RADFR1, we cannot replace tiny pivots ... Therefore, in the
software, we provide a flexible interface."

Reproduced: sweep the option grid over a representative testbed slice
and show (a) the default configuration is best or near-best *on
average*, (b) it is not uniformly optimal — some matrix prefers some
other configuration, which is the entire argument for the flexible
interface.
"""

from dataclasses import replace

import numpy as np

from conftest import save_table
from repro.analysis import Table
from repro.driver import GESPOptions, GESPSolver
from repro.matrices import matrix_by_name

# every configuration varies the paper's §2 baseline, not the library
# default (whose analysis and numeric engine differ)
PAPER = GESPOptions.paper_defaults()
CONFIGS = {
    "default": PAPER,
    "no Dr/Dc": replace(PAPER, scale_diagonal=False),
    "no equil": replace(PAPER, equilibrate=False),
    "no tiny-repl": replace(PAPER, replace_tiny_pivots=False),
    "bottleneck": replace(PAPER, row_perm="mc64_bottleneck",
                          scale_diagonal=False),
    "cardinality": replace(PAPER, row_perm="mc64_cardinality",
                           scale_diagonal=False),
}

MATRICES = ["cfd04", "device02", "circuit03", "fem04", "chem02", "kkt01",
            "gen02", "gen06", "hb01", "resv01"]


def bench_option_ablation(benchmark):
    t = Table("Option ablation — forward error per configuration",
              ["matrix"] + list(CONFIGS))
    errors = {c: [] for c in CONFIGS}
    best_config_per_matrix = []
    for name in MATRICES:
        a = matrix_by_name(name).build()
        b = a @ np.ones(a.ncols)
        row = [name]
        per = {}
        for cname, opts in CONFIGS.items():
            try:
                rep = GESPSolver(a, opts).solve(b)
                err = float(np.abs(rep.x - 1.0).max())
            except ZeroDivisionError:
                err = np.inf
            per[cname] = err
            errors[cname].append(err)
            row.append(err if np.isfinite(err) else "FAIL")
        best_config_per_matrix.append(min(per, key=per.get))
        t.add(*row)
    save_table("option_ablation", t)

    # default never fails and has (near-)best median error
    assert all(np.isfinite(e) for e in errors["default"])
    med_default = np.median(errors["default"])
    for c, errs in errors.items():
        finite = [e for e in errs if np.isfinite(e)]
        if len(finite) == len(errs):
            assert med_default <= np.median(finite) * 50.0, c
    # ...but is not uniformly optimal: some matrix prefers another config
    assert any(c != "default" for c in best_config_per_matrix)

    a = matrix_by_name("cfd04").build()
    b = a @ np.ones(a.ncols)
    benchmark.pedantic(
        lambda: GESPSolver(a, CONFIGS["no Dr/Dc"]).solve(b),
        rounds=1, iterations=1)
