"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper (see the
per-experiment index in DESIGN.md).  Expensive sweeps are computed once
per session in the fixtures below and shared; each benchmark prints its
paper-shaped table and also writes it to ``benchmarks/results/``.

Modeled (simulator) times populate the parallel tables; wall-clock
pytest-benchmark measurements cover the serial kernels.
"""

import pathlib
import time

import numpy as np
import pytest

from repro.analysis import Table
from repro.dmem import MachineModel, best_grid, distribute_matrix
from repro.driver import GESPOptions, GESPSolver
from repro.driver.dist_driver import DistributedGESPSolver
from repro.factor import gepp_factor
from repro.matrices import large_8, matrix_stats
from repro.matrices import testbed_53 as full_testbed
from repro.obs import Tracer, use_tracer
from repro.pdgstrf import pdgstrf
from repro.pdgstrs import pdgstrs
from repro.sparse.ops import norm1

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# the paper's Table 3 runs P = 4 .. 512; the simulator sweep uses a
# subset dense enough to show the scaling shape within the wall budget
P_LIST_ALL = (4, 16, 64)
P_LIST_BIG = (4, 16, 64, 256, 512)
# the four matrices the paper singles out as scaling to 512 processors
BIG_FOUR = {"BBMATa", "ECL32a", "FIDAPM11a", "WANG4a"}

MACHINE = MachineModel.scaled_t3e()


def save_table(name, table):
    """Print a table and persist it under benchmarks/results/."""
    text = str(table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


# --------------------------------------------------------------------- #
# session-wide sweeps
# --------------------------------------------------------------------- #

@pytest.fixture(scope="session")
def testbed_results():
    """Serial GESP + GEPP over all 53 matrices (Figures 2-6 raw data).

    Each row carries the full :class:`repro.obs.RunRecord` of the traced
    solve (``"record"``): stage seconds are read from its spans
    (``record.span_seconds("factor")``).
    """
    rows = {}
    for tm in full_testbed():
        a = tm.build()
        n = a.ncols
        b = a @ np.ones(n)
        tracer = Tracer(name=tm.name)
        t0 = time.perf_counter()
        with use_tracer(tracer):
            # the paper's §2 configuration, so the reported fill and
            # refinement steps do not move with the library default
            s = GESPSolver(a, GESPOptions.paper_defaults())
            rep = s.solve(b)
        t_total = time.perf_counter() - t0
        record = tracer.record(matrix=tm.name, n=n, nnz=a.nnz)
        t0 = time.perf_counter()
        g = gepp_factor(a)
        t_gepp = time.perf_counter() - t0
        x_gepp = g.solve(b)
        t0 = time.perf_counter()
        x_once = s.solve_once(b)
        t_solve = time.perf_counter() - t0
        from repro.sparse.ops import spmv

        t0 = time.perf_counter()
        spmv(a, rep.x)
        t_spmv = time.perf_counter() - t0
        rows[tm.name] = {
            "discipline": tm.discipline,
            "n": n,
            "nnz": a.nnz,
            "fill": s.symbolic.nnz_lu,
            "berr": rep.berr,
            "steps": rep.refine_steps,
            "figure3_steps": rep.figure3_steps,
            "err_gesp": float(np.abs(rep.x - 1.0).max()),
            "err_gepp": float(np.abs(x_gepp - 1.0).max()),
            "tiny": s.factors.n_tiny_pivots,
            "record": record,
            "t_total": t_total,
            "t_gepp_factor": t_gepp,
            "t_solve": t_solve,
            "t_spmv": t_spmv,
            "flops": s.factors.flops,
        }
    return rows


@pytest.fixture(scope="session")
def scaling_results():
    """Distributed factor+solve sweep over the 8 large analogs (Tables
    3-5 raw data).  Preprocessing is shared across P per matrix."""
    out = {}
    for tm in large_8():
        a = tm.build()
        b = a @ np.ones(a.ncols)
        base = DistributedGESPSolver(a, nprocs=4, machine=MACHINE)
        plist = P_LIST_BIG if tm.name in BIG_FOUR else P_LIST_ALL
        t0 = time.perf_counter()
        per_p = {}
        for p in plist:
            grid = best_grid(p)
            dist = distribute_matrix(base.a_factored, base.symbolic,
                                     base.part, grid)
            frun = pdgstrf(dist, base.dag, anorm=base.anorm, machine=MACHINE)
            c = np.empty(a.ncols)
            c[base.perm_c[base.perm_r]] = base.dr * b
            srun = pdgstrs(dist, c, machine=MACHINE)
            x = base.dc * srun.x[base.perm_c]
            err = float(np.abs(x - 1.0).max())
            assert err < 1e-5, (tm.name, p, err)
            per_p[p] = {
                "grid": f"{grid.nprow}x{grid.npcol}",
                "factor_time": frun.elapsed,
                "factor_mflops": frun.mflops(),
                "solve_time": srun.elapsed,
                "solve_mflops": srun.mflops(),
                "factor_B": frun.sim.load_balance_factor(),
                "solve_B": srun.load_balance_factor(),
                "factor_comm": frun.sim.comm_fraction(),
                "solve_comm": srun.comm_fraction(),
                "messages": frun.sim.total_messages,
                "err": err,
            }
        st = matrix_stats(a)
        out[tm.name] = {
            "n": a.ncols,
            "nnz": a.nnz,
            "stats": st,
            "fill": base.symbolic.nnz_lu,
            "flops": base.symbolic.factor_flops(),
            "mean_supernode": base.part.mean_size(),
            "analog_of": tm.analog_of,
            "runs": per_p,
            "wall": time.perf_counter() - t0,
        }
    return out
