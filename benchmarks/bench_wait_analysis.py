"""§3.4 idle-time diagnosis (the paper's Apprentice analysis).

Paper, on why TWOTONE scales poorly: "processes are idle 60% of the time
waiting to receive the column block of L sent from a process column on
the left (step (1) in Figure 8), and are idle 23% of the time waiting to
receive the row block of U ... Clearly, the critical path of the
algorithm is in step (1)."

Reproduced from the observability layer: the ``dmem/simulate`` trace
span carries each rank's blocked time keyed by the awaited message kind
(``per_rank[...]["blocked_by_kind"]``, see docs/OBSERVABILITY.md) — the
same per-cause idle accounting the paper got from the Apprentice tool.
For the TWOTONE analog at P=64, idle time waiting on L-panel (and the
diagonal block feeding step (1)) dominates idle time waiting on U-panel
messages — the same critical-path diagnosis, produced by the same kind
of measurement.
"""

from conftest import MACHINE, save_table
from repro.analysis import Table
from repro.driver.dist_driver import DistributedGESPSolver
from repro.matrices import matrix_by_name
from repro.obs import Tracer, use_tracer
from repro.pdgstrf.factor2d import _DIAG_L, _DIAG_U, _L_PANEL, _U_PANEL

# blocked_by_kind keys are JSON-friendly strings in the trace
_KIND_NAMES = {str(_DIAG_L): "diag (L path)", str(_DIAG_U): "diag (U path)",
               str(_L_PANEL): "L panel", str(_U_PANEL): "U panel"}


def _factor_trace(name, nprocs):
    """Factor ``name`` under a tracer; return the dmem/simulate span."""
    a = matrix_by_name(name).build()
    tracer = Tracer(name=name)
    with use_tracer(tracer):
        DistributedGESPSolver(a, nprocs=nprocs, machine=MACHINE).factorize()
    return tracer.root.find("factor").find("dmem/simulate")


def bench_wait_analysis(benchmark):
    t = Table("Idle-time breakdown by awaited message kind (P=64, % of "
              "total blocked time)",
              ["matrix", "L panel + diag", "U panel + diag", "total "
               "blocked (ms)"])
    shares = {}
    for name in ("TWOTONEa", "AF23560a", "RDIST1a"):
        span = _factor_trace(name, nprocs=64)
        agg = {}
        for rank in span.attrs["per_rank"]:
            for kind, sec in rank["blocked_by_kind"].items():
                agg[kind] = agg.get(kind, 0.0) + sec
        total = sum(agg.values())
        # the per-kind breakdown partitions the dmem.wait_time counter
        assert abs(total - span.counters["dmem.wait_time"]) < 1e-12 * \
            max(1.0, total), name
        l_share = (agg.get(str(_L_PANEL), 0.0) +
                   agg.get(str(_DIAG_L), 0.0)) / total
        u_share = (agg.get(str(_U_PANEL), 0.0) +
                   agg.get(str(_DIAG_U), 0.0)) / total
        shares[name] = (l_share, u_share)
        t.add(name, 100 * l_share, 100 * u_share, total * 1e3)
    save_table("wait_analysis", t)

    # the paper's diagnosis: waiting on the L/step-(1) path dominates
    # waiting on the U/step-(2) path — for TWOTONE and in general
    for name, (l_share, u_share) in shares.items():
        assert l_share > u_share, (name, l_share, u_share)
    assert shares["TWOTONEa"][0] > 0.5  # paper: ~60% for TWOTONE

    a = matrix_by_name("RDIST1a").build()
    benchmark.pedantic(
        lambda: DistributedGESPSolver(a, nprocs=16,
                                      machine=MACHINE).factorize(),
        rounds=1, iterations=1)
