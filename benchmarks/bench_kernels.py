"""Dense-kernel backends: ``vectorized`` vs ``reference`` wall time.

The kernel layer (``repro.kernels``, docs/KERNELS.md) is the PR that
turned every dense block operation of the factor/solve stack into a
pluggable backend.  This benchmark measures what that buys: it records
the exact dense-op trace ``pdgstrf`` (1x1 grid) issues on a cfd testbed
matrix as the drivers hand it over — scaled, matched and ordered —
(diagonal LU, panel solves, per-block GEMMs, masked scatters), then
replays that trace against both built-in backends with inputs pre-copied
outside the timed region, so the comparison is pure kernel time on the
real workload shapes — no sparse bookkeeping in either number.

The trace comes from ``pdgstrf`` because it is the one remaining caller
of all five ops: the serial block engine subtracts its update through
per-pattern precomputed targets (``repro.factor.blockplan``) and issues
no ``scatter_sub``.

Acceptance floor: the ``vectorized`` backend must beat ``reference`` by
>= 1.2x on the largest cfd matrix (1.28-1.60x over nine runs; the 1.5x
floor held on the scatter shapes of the serial loop that the block plan
replaced and is NOT met on this trace — see CHANGES.md, PR 17), and the
``compiled`` backend (when numba is installed — its rows skip gracefully
otherwise) by >= 3x after an untimed JIT-warmup replay.
``scripts/bench_trajectory.py --bench kernels`` replays the same
workload standalone and writes the schema-versioned
``BENCH_kernels.json``.
"""

import time

import numpy as np

from repro.analysis import Table
from repro.dmem import ProcessGrid, distribute_matrix
from repro.driver import GESPSolver
from repro.factor.supernodal import supernodal_factor
from repro.kernels import available_backends, get_backend, register_backend
from repro.kernels.reference import ReferenceBackend
from repro.matrices import matrix_by_name
from repro.pdgstrf import pdgstrf
from repro.sparse.ops import norm1
from repro.symbolic import block_partition, build_block_dag

SPEEDUP_FLOOR = 1.2
COMPILED_SPEEDUP_FLOOR = 3.0


class _Recorder(ReferenceBackend):
    """Reference backend that also logs every op it executes."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.ops = []

    def lu_nopivot(self, d, thresh):
        self.ops.append(("lu", d.copy(), thresh))
        return super().lu_nopivot(d, thresh)

    def trsm_upper(self, d, b):
        self.ops.append(("tu", d.copy(), b.copy()))
        return super().trsm_upper(d, b)

    def trsm_lower_unit(self, d, r):
        self.ops.append(("tl", d.copy(), r.copy()))
        return super().trsm_lower_unit(d, r)

    def gemm_update(self, l, u):
        self.ops.append(("mm", l, u))
        return super().gemm_update(l, u)

    def scatter_sub(self, tgt, rows, cols, src, src_rows=None,
                    src_cols=None):
        self.ops.append(("sc", tgt, np.asarray(rows).copy(),
                         np.asarray(cols).copy(), src, src_rows, src_cols))
        return super().scatter_sub(tgt, rows, cols, src,
                                   src_rows=src_rows, src_cols=src_cols)


def kernel_workload(name="cfd06"):
    """The dense-op trace of one ``pdgstrf`` factorization (1x1 grid of
    the simulator) of ``name`` after the driver's steps (1)-(2).

    Returns ``(a, ops)``; shared with scripts/bench_trajectory.py.
    """
    a = matrix_by_name(name).build()
    solver = GESPSolver(a, cache=False)
    at, sym = solver.a_factored, solver.symbolic
    part = block_partition(sym)
    # pdgstrf hands its rank programs the kernel by registry name
    rec = register_backend(_Recorder())
    pdgstrf(distribute_matrix(at, sym, part, ProcessGrid(1, 1)),
            build_block_dag(sym, part), anorm=norm1(at), kernel=rec.name,
            executor="sim")
    return a, rec.ops


def _fresh_ops(ops):
    """Re-copy the mutable inputs of a recorded trace (untimed prep)."""
    fresh = []
    for op in ops:
        if op[0] == "lu":
            fresh.append(("lu", op[1].copy(), op[2]))
        elif op[0] in ("tu", "tl"):
            fresh.append((op[0], op[1], op[2].copy()))
        else:
            fresh.append(op)
    return fresh


def _replay_once(backend, fresh):
    """Wall time of one pass of a pre-copied trace through ``backend``."""
    t0 = time.perf_counter()
    for op in fresh:
        tag = op[0]
        if tag == "lu":
            backend.lu_nopivot(op[1], op[2])
        elif tag == "tu":
            backend.trsm_upper(op[1], op[2])
        elif tag == "tl":
            backend.trsm_lower_unit(op[1], op[2])
        elif tag == "mm":
            backend.gemm_update(op[1], op[2])
        else:
            backend.scatter_sub(op[1], op[2], op[3], op[4],
                                src_rows=op[5], src_cols=op[6])
    return time.perf_counter() - t0


def replay_seconds(backend, ops, rounds=3):
    """Best-of-``rounds`` wall time replaying ``ops`` through ``backend``.

    Mutable inputs are re-copied *outside* the timed region each round,
    so the measured delta is kernel arithmetic only.
    """
    return min(_replay_once(backend, _fresh_ops(ops))
               for _ in range(rounds))


def kernel_comparison(names=("cfd03", "cfd06"), rounds=5):
    """Replay timings for both backends over the cfd workloads.

    The backends are *interleaved* round by round (reference then
    vectorized then compiled, ``rounds`` times) so transient machine
    load lands on all sides alike; best-of-rounds is taken per backend.
    Returns rows of ``{matrix, n, ops, reference_seconds,
    vectorized_seconds, speedup}`` — plus ``compiled_seconds`` and
    ``compiled_speedup`` when the compiled backend is registered (the
    ``[compiled]`` extra; its first replay per workload is an untimed
    JIT warmup) — shared by this benchmark and
    scripts/bench_trajectory.py.
    """
    ref = get_backend("reference")
    vec = get_backend("vectorized")
    comp = (get_backend("compiled")
            if "compiled" in available_backends() else None)
    rows = []
    for name in names:
        a, ops = kernel_workload(name)
        if comp is not None:
            _replay_once(comp, _fresh_ops(ops))   # untimed: JIT compile
        t_ref = float("inf")
        t_vec = float("inf")
        t_comp = float("inf")
        for _ in range(rounds):
            t_ref = min(t_ref, _replay_once(ref, _fresh_ops(ops)))
            t_vec = min(t_vec, _replay_once(vec, _fresh_ops(ops)))
            if comp is not None:
                t_comp = min(t_comp, _replay_once(comp, _fresh_ops(ops)))
        row = {"matrix": name, "n": a.ncols, "ops": len(ops),
               "reference_seconds": t_ref,
               "vectorized_seconds": t_vec,
               "speedup": t_ref / t_vec}
        if comp is not None:
            row["compiled_seconds"] = t_comp
            row["compiled_speedup"] = t_ref / t_comp
        rows.append(row)
    return rows


def bench_kernels(benchmark):
    # imported lazily: tests/test_bench_smoke.py imports this module from
    # a pytest run whose ``conftest`` is tests/conftest.py
    from conftest import save_table

    rows = kernel_comparison()
    have_compiled = "compiled_seconds" in rows[0]
    cols = ["matrix", "n", "ops", "reference(s)", "vectorized(s)",
            "speedup"]
    if have_compiled:
        cols += ["compiled(s)", "compiled speedup"]
    t = Table("Dense-kernel backends — replayed cfd pdgstrf traces", cols)
    for r in rows:
        cells = [r["matrix"], r["n"], r["ops"],
                 f"{r['reference_seconds']:.3f}",
                 f"{r['vectorized_seconds']:.3f}", f"{r['speedup']:.2f}x"]
        if have_compiled:
            cells += [f"{r['compiled_seconds']:.3f}",
                      f"{r['compiled_speedup']:.2f}x"]
        t.add(*cells)
    save_table("kernel_backends", t)

    # the floors hold on the largest cfd workload (compiled only when
    # the [compiled] extra is installed — no numba, no row, no floor)
    big = rows[-1]
    assert big["speedup"] >= SPEEDUP_FLOOR, big
    if have_compiled:
        assert big["compiled_speedup"] >= COMPILED_SPEEDUP_FLOOR, big

    # and both backends factor to the same answer (kernel swap is not an
    # accuracy trade)
    a = matrix_by_name("cfd06").build()
    b = a @ np.ones(a.ncols)
    x_ref = supernodal_factor(a, kernel="reference").solve(b)
    x_vec = supernodal_factor(a, kernel="vectorized").solve(b)
    assert np.allclose(x_ref, x_vec, rtol=1e-10, atol=1e-14)

    _, ops = kernel_workload("cfd03")
    benchmark.pedantic(
        lambda: replay_seconds(get_backend("vectorized"), ops, rounds=1),
        rounds=3, iterations=1)
