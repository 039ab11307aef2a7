"""The distributed right-looking factorization kernel.

Every rank runs :func:`_rank_program` — a faithful SPMD rendering of
paper Figure 8 over the storage of :mod:`repro.dmem.distribute` — inside
an executor, on rank panels (:mod:`repro.dmem.distribute`): per
iteration one ``trsm`` on a rank's L(·,K) panel, one on its U(K,·) panel
and one GEMM of the two panels it holds or received, subtracted through
store offsets :func:`build_schedule` lays out once per pattern.  The
simulator, the process executor and the replay agree bit for bit; the
serial kernel does the same block operations on other operand shapes, so
the two agree to rounding (a tolerance and the ``splu`` oracle in tests).

Message protocol per iteration K (tags encode ``4*K + kind``):

- ``DIAG_L`` — packed diagonal factor, diag owner → its process column;
- ``DIAG_U`` — packed diagonal factor, diag owner → its process row;
- ``L_PANEL`` — a process's L(·,K) blocks, rowwise to needing process
  columns (one logical send = index[] + nzval[] = 2 physical messages);
- ``U_PANEL`` — a process's U(K,·) blocks, columnwise to needing rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import kernels
from repro.dmem.comm import Compute, Send, recv_with_retry
from repro.dmem.distribute import DistributedBlocks
from repro.dmem.executor import RankJob, resolve_executor
from repro.dmem.machine import MachineModel
from repro.dmem.simulator import SimulationResult
from repro.obs import add, annotate, trace
from repro.symbolic.edag import BlockDAG

__all__ = ["FactorizationRun", "build_schedule", "pdgstrf"]

# default per-attempt receive timeout (simulated seconds) when fault
# injection is active: orders of magnitude above any legitimate wait at
# the testbed's scale, so it only ever fires when the machine stalls
DEFAULT_RECV_TIMEOUT = 1.0
DEFAULT_RECV_RETRIES = 2

_DIAG_L, _DIAG_U, _L_PANEL, _U_PANEL = 0, 1, 2, 3


def _tag(k, kind):
    return 4 * k + kind


@dataclass
class FactorizationRun:
    """Result of a distributed factorization."""

    dist: DistributedBlocks
    sim: SimulationResult
    n_tiny_pivots: int
    tiny_pivot_threshold: float

    @property
    def elapsed(self):
        """Parallel factorization time: model seconds on the simulator,
        real wall seconds on the process executor."""
        return self.sim.elapsed

    @property
    def wall_seconds(self):
        """Real wall-clock seconds the factorization run took."""
        return self.sim.wall_seconds

    def mflops(self):
        return self.sim.mflops()


def pdgstrf(dist: DistributedBlocks, dag: BlockDAG,
            anorm: float,
            machine: MachineModel | None = None,
            pipeline: bool = True,
            edag_prune: bool = True,
            replace_tiny_pivots: bool = True,
            tiny_pivot_scale: float | None = None,
            fault_plan=None,
            recv_timeout: float | None = None,
            recv_retries: int = DEFAULT_RECV_RETRIES,
            schedule: dict | None = None,
            executor=None) -> FactorizationRun:
    """Factor the distributed matrix in place (values in ``dist`` become
    the L and U factors).

    Parameters
    ----------
    dist:
        Output of :func:`repro.dmem.distribute.distribute_matrix`; holds
        A's values on entry, the factors on exit.
    dag:
        Block elimination DAG for the same partition.
    anorm:
        ``‖A‖₁`` of the matrix being factored (for the tiny-pivot
        threshold; computed by the caller who still has the CSC form).
    machine, pipeline, edag_prune:
        See module docstring.
    fault_plan:
        A :class:`~repro.dmem.faults.FaultPlan` injecting deterministic
        transport/compute faults into the simulation.
    recv_timeout, recv_retries:
        Per-attempt receive timeout (simulated seconds) and bounded
        retry count for the rank programs.  The timeout defaults to
        :data:`DEFAULT_RECV_TIMEOUT` whenever a fault plan is active, so
        an injected dropped message surfaces as a structured
        :class:`~repro.dmem.comm.CommTimeoutError` instead of a hang;
        pass an explicit value to arm timeouts on a reliable machine too.
    schedule:
        A precomputed :func:`build_schedule` result for this (dist, dag,
        edag_prune) triple.  The schedule is pure structure — pattern
        reuse (``Fact=SAME_PATTERN...``) computes it once per pattern and
        passes it to every refactorization, which is exactly the
        amortization the paper's static-pivoting design enables.
        Computed here when omitted.
    executor:
        Rank-program runtime: an executor instance, ``"sim"`` /
        ``"process"``, or ``None`` for the ``REPRO_DMEM_EXECUTOR`` /
        simulator default (:func:`repro.dmem.executor.resolve_executor`).
        The process executor runs one worker per rank and ships each
        rank's store back into ``dist``'s, in place; results are
        bit-identical to the simulator, which with no fault plan and no
        timeout replays its first run on the layout (docs/EXECUTOR.md).
    """
    machine = machine or MachineModel()
    exec_ = resolve_executor(executor)
    if tiny_pivot_scale is None:
        tiny_pivot_scale = float(np.sqrt(np.finfo(np.float64).eps))
    thresh = (tiny_pivot_scale * anorm if anorm > 0 else tiny_pivot_scale) \
        if replace_tiny_pivots else 0.0
    if recv_timeout is None and fault_plan is not None:
        recv_timeout = DEFAULT_RECV_TIMEOUT

    with trace("factor/pdgstrf", pipeline=pipeline, edag_prune=edag_prune), \
            kernels.kernel_counters():
        sched = schedule if schedule is not None \
            else build_schedule(dist, dag, edag_prune)
        job = RankJob(
            nranks=dist.grid.size,
            factory=_rank_program,
            kwargs=dict(dist=dist, dag=dag, thresh=thresh,
                        pipeline=pipeline, edag_prune=edag_prune,
                        sched=sched, recv_timeout=recv_timeout,
                        recv_retries=recv_retries),
            collect=_collect_factor_state,
            key=None if recv_timeout is not None else (pipeline, edag_prune))
        sim = exec_.run(job, machine=machine, fault_plan=fault_plan)
        if sim.collected is not None:
            # executors whose workers do not share memory with the
            # caller ship each rank's store home explicitly; it is
            # copied in place, so every block view stays valid
            for store, state in zip(dist.stores, sim.collected):
                store[...] = state
        n_tiny = sum(sim.returns)
        add("factor.flops", sim.total_flops)
        add("factor.tiny_pivots", n_tiny)
        annotate(elapsed=sim.elapsed, wall_seconds=sim.wall_seconds,
                 nprocs=dist.grid.size, executor=exec_.name,
                 nsuper=dag.nsuper)
    dist.n_tiny_pivots = n_tiny
    dist.tiny_pivot_threshold = thresh
    return FactorizationRun(dist=dist, sim=sim, n_tiny_pivots=n_tiny,
                            tiny_pivot_threshold=thresh)


# --------------------------------------------------------------------- #

def _collect_factor_state(rank, dist, **_kwargs):
    """RankJob.collect hook: rank ``rank``'s store — every block it owns.

    Runs in whatever process executed the rank program; the parent
    copies it into its own store in place, under the block views.
    """
    return dist.stores[rank]


class UpdateTargets(NamedTuple):
    """Every rank's trailing updates as store offsets: batch
    ``b = batch[K, rank]`` (-1: none) is the product of the rank's L and
    U panels, taken as its first ``split`` columns (the look-ahead block
    J = K+1), then the rest, each row-major.  It sends the entries with a
    home — ``sel[b]`` of them when not all — to ``tgt[start:end]``, where
    ``(start, end, cut, split, *flops) = meta[b]``: the look-ahead
    columns' ``cut`` entries first, and the flops of those and the rest."""
    tgt: np.ndarray
    batch: np.ndarray
    meta: np.ndarray
    sel: dict


def _update_targets(dist, need_l, need_u):
    """Every target from the layout's one position map,
    :meth:`DistributedBlocks.slots`.  With relaxed or merged supernodes an
    (i, j) of ``S_K × S_K`` may have no home in its target block; the
    product entry is exactly zero (each term has an explicitly-zero
    factor) and the batch leaves it out."""
    grid, index = dist.grid, dist.pos[0].dtype          # the layout's width
    batch = np.full((dist.nsuper, grid.size), -1, dtype=np.int32)
    tgt, meta, sel, end = [], [], {}, 0
    for k, s in enumerate(dist.s_rows):
        _, where, stored = dist.slots(s[:, None], s[None, :])
        block, w = dist.supno[s], dist.widths[k]
        for pr, rows in enumerate(need_l[k]):
            for pc, cols in enumerate(need_u[k]):
                if not (rows and cols):
                    continue
                # the panels' rows and columns of S_K; J = K+1 leads if any
                r = np.flatnonzero(block % grid.nprow == pr)[:, None]
                c = np.flatnonzero(block % grid.npcol == pc)
                split = np.count_nonzero(block[c] == k + 1)
                t, h = (np.concatenate((a[r, c[:split]], a[r, c[split:]]),
                                       axis=None) for a in (where, stored))
                if not h.all():
                    sel[len(meta)] = np.flatnonzero(h).astype(index)
                batch[k, grid.rank(pr, pc)] = len(meta)
                tgt.append(t[h])
                meta.append((end, end + tgt[-1].size,
                             int(h[:r.size * split].sum()), split,
                             kernels.gemm_flops(r.size, w, split),
                             kernels.gemm_flops(r.size, w, c.size - split)))
                end += tgt[-1].size
    return UpdateTargets(
        np.concatenate([*tgt, np.zeros(0, np.int64)]).astype(index), batch,
        np.array(meta, dtype=np.int64).reshape(-1, 6), sel)


def build_schedule(dist, dag, edag_prune):
    """Precompute the per-iteration communication and update schedule.

    Every rank derives identical sets from the replicated symbolic data;
    computing them once (instead of per rank per iteration) removes the
    dominant Python overhead from the simulation (profiling-guided — see
    the repo guides' "no optimization without measuring").  The result
    depends only on the block structure, the layout, the DAG, and
    ``edag_prune`` — never on values — so it is cached per sparsity
    pattern and reused across refactorizations (docs/REFACTORIZATION.md).
    ``updates`` holds every rank's update targets
    (:class:`UpdateTargets`), so a pass only multiplies and subtracts.
    """
    grid = dist.grid
    nprow, npcol = grid.nprow, grid.npcol
    ns = dag.nsuper
    need_l = []       # need_l[k][pr] -> list of block rows
    need_u = []       # need_u[k][pc] -> list of block cols
    l_dests = []      # destination process columns for L panels
    u_dests = []      # destination process rows for U panels
    diag_l_dests = []
    diag_u_dests = []
    for k in range(ns):
        lb, ub = dag.l_blocks[k], dag.u_blocks[k]
        lb, ub = lb[lb > k], ub[ub > k]
        need_l.append([lb[lb % nprow == r].tolist() for r in range(nprow)])
        need_u.append([ub[ub % npcol == c].tolist() for c in range(npcol)])
        # the process rows / columns holding a block below / right of K
        rows = set((lb % nprow).tolist()) - {k % nprow}
        cols = set((ub % npcol).tolist()) - {k % npcol}
        diag_l_dests.append(sorted(rows))
        diag_u_dests.append(sorted(cols))
        l_dests.append(sorted(cols) if edag_prune
                       else [c for c in range(npcol) if c != k % npcol])
        u_dests.append(sorted(rows) if edag_prune
                       else [r for r in range(nprow) if r != k % nprow])
    return dict(need_l=need_l, need_u=need_u, l_dests=l_dests,
                u_dests=u_dests, diag_l_dests=diag_l_dests,
                diag_u_dests=diag_u_dests,
                updates=_update_targets(dist, need_l, need_u))


def _rank_program(rank, dist: DistributedBlocks, dag: BlockDAG, thresh,
                  pipeline, edag_prune, sched,
                  recv_timeout=None, recv_retries=DEFAULT_RECV_RETRIES):
    """The SPMD program of one rank (a generator for the simulator)."""
    grid = dist.grid
    pr, pc = grid.coords(rank)
    nprow, npcol = grid.nprow, grid.npcol
    ns = dag.nsuper
    n_tiny = 0
    need_l_all = sched["need_l"]
    need_u_all = sched["need_u"]

    def recv(source, tag, where):
        """Source/tag-specific receive with the configured timeout and
        bounded retries (plain blocking Recv when no timeout is set)."""
        return recv_with_retry(source=source, tag=tag, timeout=recv_timeout,
                               retries=recv_retries, where=where)

    # -------------------- step 1: factor block column K ---------------- #

    def step1(k):
        """Factor L(K:N, K): diagonal factor + L panel solves + sends."""
        nonlocal n_tiny
        kr, kc = k % nprow, k % npcol
        w = dist.widths[k]
        my_l = need_l_all[k][pr] if pc == kc else []
        if pr == kr and pc == kc:
            d = dist.diag[rank][k]
            replaced = kernels.lu_nopivot(d, thresh)
            n_tiny += len(replaced)
            yield Compute(flops=kernels.lu_flops(w), width=w)
            # send the packed diagonal down the column (for L panels)...
            for pr2 in sched["diag_l_dests"][k]:
                yield Send(dest=grid.rank(pr2, kc), tag=_tag(k, _DIAG_L),
                           payload=d, nbytes=d.nbytes)
            # ...and across the row (for U panels)
            for pc2 in sched["diag_u_dests"][k]:
                yield Send(dest=grid.rank(kr, pc2), tag=_tag(k, _DIAG_U),
                           payload=d, nbytes=d.nbytes)
            dloc = d
        elif my_l:
            dloc = (yield from recv(grid.rank(kr, kc), _tag(k, _DIAG_L),
                                    f"pdgstrf step1 diag_l k={k}")).payload
        if my_l:
            panel = dist.lpanel[rank][k]
            kernels.trsm_upper(dloc, panel)
            # one panel call counts as the schedule's per-block calls, in
            # bulk as a batched run does (docs/KERNELS.md); flops add up
            kernels.stats().trsm_calls += len(my_l) - 1
            yield Compute(flops=kernels.trsm_flops(w, panel.shape[0]), width=w)
            # rowwise sends: one logical message (index[] + nzval[]) per
            # destination process column
            nbytes = panel.nbytes + panel.shape[0] * index_bytes
            for pc2 in sched["l_dests"][k]:
                yield Send(dest=grid.rank(pr, pc2), tag=_tag(k, _L_PANEL),
                           payload=panel, nbytes=nbytes, count=2)

    # -------------------- step 2: solve block row K -------------------- #

    def step2(k):
        kr, kc = k % nprow, k % npcol
        w = dist.widths[k]
        if pr != kr:
            return
        my_u = need_u_all[k][pc]
        if not my_u:
            return
        dloc = dist.diag[rank][k] if pc == kc else (yield from recv(
            grid.rank(kr, kc), _tag(k, _DIAG_U),
            f"pdgstrf step2 diag_u k={k}")).payload
        panel = dist.upanel[rank][k]
        kernels.trsm_lower_unit(dloc, panel)
        kernels.stats().trsm_calls += len(my_u) - 1
        yield Compute(flops=kernels.trsm_flops(w, panel.shape[1]), width=w)
        nbytes = panel.nbytes + panel.shape[1] * index_bytes
        for pr2 in sched["u_dests"][k]:
            yield Send(dest=grid.rank(pr2, pc), tag=_tag(k, _U_PANEL),
                       payload=panel, nbytes=nbytes, count=2)

    # -------------------- step 3: trailing update ---------------------- #

    def obtain_panels(k):
        """Get the L and U panels this rank's updates need."""
        kr, kc = k % nprow, k % npcol
        need_l = need_l_all[k][pr]
        need_u = need_u_all[k][pc]
        if not need_l or not need_u:
            # nothing to update locally; drain unsolicited send-to-all
            # messages so the mailbox stays clean
            if not edag_prune:
                if pc != kc and need_l:
                    yield from recv(grid.rank(pr, kc), _tag(k, _L_PANEL),
                                    f"pdgstrf drain l_panel k={k}")
                if pr != kr and need_u:
                    yield from recv(grid.rank(kr, pc), _tag(k, _U_PANEL),
                                    f"pdgstrf drain u_panel k={k}")
            return None
        lpanel = dist.lpanel[rank][k] if pc == kc else (yield from recv(
            grid.rank(pr, kc), _tag(k, _L_PANEL),
            f"pdgstrf update l_panel k={k}")).payload
        upanel = dist.upanel[rank][k] if pr == kr else (yield from recv(
            grid.rank(kr, pc), _tag(k, _U_PANEL),
            f"pdgstrf update u_panel k={k}")).payload
        return lpanel, upanel

    def update(k, lpanel, upanel, lookahead):
        """A(I,J) -= L(I,K) @ U(K,J) for this rank's pairs: one gemm of
        its panels, one subtract through the schedule's targets, one
        Compute — or, with ``lookahead``, the J = K+1 columns' subtract and
        Compute, step 1 of iteration K+1, then the rest's (the gemm read
        only panels K)."""
        targets = sched["updates"]
        b = int(targets.batch[k, rank])
        start, end, cut, split, *flops = targets.meta[b].tolist()
        tgt = targets.tgt[start:end]
        upd = kernels.gemm_update(lpanel, upanel)
        kernels.stats().gemm_calls += \
            len(need_l_all[k][pr]) * len(need_u_all[k][pc]) - 1
        upd = np.concatenate((upd[:, :split], upd[:, split:]), axis=None) \
            if split else upd.ravel()
        if b in targets.sel:
            upd = upd[targets.sel[b]]
        if lookahead:
            store[tgt[:cut]] -= upd[:cut]
            if flops[0]:
                yield Compute(flops=flops[0], width=dist.widths[k])
            if not step1_done[k + 1]:
                yield from step1(k + 1)
                step1_done[k + 1] = True
            tgt, upd, flops = tgt[cut:], upd[cut:], flops[1:]
        store[tgt] -= upd
        if sum(flops) or not lookahead:
            yield Compute(flops=sum(flops), width=dist.widths[k])

    # -------------------- main loop ------------------------------------ #

    store = dist.stores[rank]
    # a panel message's index[]: the panel's global rows (columns)
    index_bytes = dist.s_rows[0].itemsize if ns else 0
    step1_done = [False] * ns
    for k in range(ns):
        if not step1_done[k]:
            yield from step1(k)
            step1_done[k] = True
        yield from step2(k)
        panels = yield from obtain_panels(k)
        if panels is None:
            continue
        yield from update(k, *panels, lookahead=pipeline and k + 1 < ns
                          and (k + 1) % npcol == pc)
    return n_tiny
