"""Distributed triangular solves ``L y = b`` and ``U x = y`` (paper
Figure 9 and §3.3) — one message-driven rank program, two directions.

Inner-product formulation: before ``x(K)`` is solved, every update
``L(K,J)·x(J)``, ``J < K`` (``U(K,J)·x(J)``, ``J > K``, upper), is
subtracted from ``b(K)``.  Per rank, ``mod[K]`` (the paper's ``fmod``;
``umod`` in the mirror) counts its outstanding block updates to its
partial sum ``lsum(K)``, shipped to K's diagonal process at zero;
there ``recv[K]`` (``frecv`` / ``urecv``) counts the partial sums due,
and at zero ``x(K)`` is solved against the diagonal block and sent down
process column ``K mod npcol`` to the owners of block column K.  The
main loop is a receive-any dispatcher on the two message kinds, with
local cascades processed eagerly between receives.  The upper solve is
the mirror image on the row-wise U storage: :class:`_Direction` says
what differs.

The events are Figure 9's, the arithmetic is not per block: an arriving
``x(J)`` goes into a rank-local buffer and each of the rank's (K, J)
blocks yields its ``Compute`` and counts ``mod[K]`` down as the figure
does; at zero, ``lsum(K)`` is one product of the rank's row panel of K
(its (K, ·) blocks side by side, ``DistributedBlocks.row_panels``) with
the x entries it reads, in an order the layout fixes, and the diagonal
process subtracts the partial sums in sorted-rank order.  Neither
depends on arrival order, so ``x`` is a function of the inputs alone —
bit-identical across message interleavings, and so across the
simulator, the process executor and :func:`_sweep`, a warm op's static
pass in solve order on diagonal solves bound once (docs/EXECUTOR.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.dmem.comm import ANY_SOURCE, ANY_TAG, Compute, Send, recv_with_retry
from repro.dmem.distribute import DistributedBlocks
from repro.dmem.executor import RankJob, resolve_executor
from repro.pdgstrf.factor2d import DEFAULT_RECV_RETRIES, DEFAULT_RECV_TIMEOUT

__all__ = ["pdgstrs_lower", "pdgstrs_upper"]

_TAG_X = 0      # solved subvector x(K):   tag = 2*K
_TAG_SUM = 1    # partial sum for K:       tag = 2*K + 1


@dataclass(frozen=True)
class _Direction:
    """What differs between the forward and the back substitution."""

    name: str
    blocks: str          # DistributedBlocks store of the (K, J) blocks
    diag_solve: str      # kernel op solving against the diagonal block
    descending: bool     # seeding order (the upper solve starts at the root)


_LOWER = _Direction("lower", "lblk", "diag_solve_lower_unit", False)
_UPPER = _Direction("upper", "ublk", "diag_solve_upper", True)


def _run(direction, dist, b, machine, fault_plan, executor):
    b = np.asarray(b, dtype=np.float64)
    job = RankJob(nranks=dist.grid.size, factory=_rank_solve,
                  kwargs=dict(dist=dist, b=b, direction=direction,
                              recv_timeout=(None if fault_plan is None
                                            else DEFAULT_RECV_TIMEOUT)),
                  # nrhs sets the bytes, and so the ANY_SOURCE order
                  key=(direction.name, b.shape), sweep=_sweep)
    sim = resolve_executor(executor).run(job, machine=machine,
                                         fault_plan=fault_plan)
    if isinstance(sim.returns, np.ndarray):     # a sweep's solution
        return sim.returns, sim
    x, xsup = np.empty(b.shape), dist.part.xsup
    for parts in sim.returns:
        for k, xk in parts.items():
            x[xsup[k]:xsup[k + 1]] = xk
    return x, sim


def pdgstrs_lower(dist: DistributedBlocks, b, machine=None,
                  fault_plan=None, executor=None):
    """Run the lower solve; returns ``(y, SimulationResult)``.

    ``b`` may be a vector (n,) or a block of right-hand sides (n, nrhs) —
    the message-driven algorithm is identical, with subvectors replaced
    by (width × nrhs) sub-blocks (the multiple-RHS case the paper's §5
    closing discussion anticipates).  A ``fault_plan`` arms the receives
    with the factorization's bounded-retry timeouts for running against
    an unreliable machine; ``executor`` selects the runtime
    (``"sim"``/``"process"``/instance, see
    :func:`repro.dmem.executor.resolve_executor`); the result is
    bit-identical across executors (each partial sum is one product over
    a fixed column order).
    """
    return _run(_LOWER, dist, b, machine, fault_plan, executor)


def pdgstrs_upper(dist: DistributedBlocks, y, machine=None,
                  fault_plan=None, executor=None):
    """Run the upper solve; returns ``(x, SimulationResult)``.

    Same arguments and guarantees as :func:`pdgstrs_lower`.
    """
    return _run(_UPPER, dist, y, machine, fault_plan, executor)


def _sweep(dist: DistributedBlocks, b, direction, **_kwargs):
    """Every rank's :func:`_rank_solve` as one pass over K in solve order,
    and each rank's flops (:func:`repro.dmem.simulator.sweep`): ``x(K)``
    is ``b(K)`` minus each contributor's partial sum in sorted rank order,
    solved in place in one solution buffer against the diagonal block
    (bound once, ``kernels.bind_*``) — the programs' operands and order,
    so their bits (docs/EXECUTOR.md).  A run returns a copy of the buffer."""
    grid, xsup, name = dist.grid, dist.part.xsup, direction.blocks
    nrhs, x = 1 if b.ndim == 1 else b.shape[1], np.empty(b.shape)
    steps, binder = [], kernels.Binder()
    counts = binder.counts
    bind = getattr(kernels, "bind_" + direction.diag_solve)
    flops = [sum(f for blocks in start[0].values() for _, f, _ in blocks)
             * nrhs for start in dist.solve_start[name]]
    refills = [(*refill, store) for (refill, _), store in zip(
        dist.row_panels[name], dist.stores) if refill is not None]
    for k in sorted(range(dist.nsuper), reverse=direction.descending):
        owner, w = grid.owner(k, k), dist.widths[k]
        flops[owner] += w * w * nrhs
        parts, xk = [], x[xsup[k]:xsup[k + 1]]
        for r in dist.owners[name][0][k]:   # lsum(K), sorted rank order
            panel, cols, calls, dflops = dist.row_panels[name][r][1][k]
            parts.append((panel, cols))
            counts.gemm_calls += 1 + calls
            counts.gemm_flops += kernels.gemm_flops(*panel.shape, nrhs) \
                + dflops * nrhs
        steps.append((xk, parts, *bind(dist.diag[owner][k], xk, binder)))

    def run(b, **_kwargs):
        for buf, src, dst, store in refills:
            buf[dst] = store[src]
        x[...] = b
        for xk, parts, fn, args in steps:
            for panel, cols in parts:
                xk -= panel @ x[cols]
            fn(*args)
        kernels.stats().add(counts)
        return x.copy()
    return flops, run


def _rank_solve(rank, dist: DistributedBlocks, b, direction,
                recv_timeout=None):
    """One rank of either substitution.  Returns ``{K: x_K}`` for the
    supernodes whose diagonal process this rank is."""
    diag_solve = getattr(kernels, direction.diag_solve)
    grid = dist.grid
    xsup = dist.part.xsup
    # owners of a block (·, J): x(J)'s readers
    consumers = dist.owners[direction.blocks][1]
    b = np.asarray(b, dtype=np.float64)
    nrhs = 1 if b.ndim == 1 else b.shape[1]

    # my_blocks[J] = (K, flops per column of x, width) of my (K, J)
    # blocks, ascending K; the counters and message total are the
    # layout's, once per pattern
    my_blocks, mod, recv, remaining = dist.solve_start[direction.blocks][rank]
    mod, recv = dict(mod), dict(recv)
    refill, panels = dist.row_panels[direction.blocks][rank]
    if refill is not None:      # the L panels: ``buffer[dst] = store[src]``
        buf, src, dst = refill
        buf[dst] = dist.stores[rank][src]
    # the x(J) my blocks read, as they come in
    x_in = np.empty(b.shape)

    my_diag = sorted(dist.diag[rank].keys(), reverse=direction.descending)
    acc = {k: b[xsup[k]:xsup[k + 1]].copy() for k in my_diag}
    # parts[K] = {rank: partial sum} — each contributing rank delivers
    # exactly one lsum(K) (this rank's own under its own rank id), so the
    # keys are unique; reduced in sorted-rank order at solve time
    parts = {k: {} for k in my_diag}
    solved = {}

    # ---- local cascade helpers --------------------------------------- #

    def deliver_part(k, vec):
        # vec is fresh from partial_sum and never touched again here —
        # safe to hand to Send / store without a defensive copy
        d = grid.owner(k, k)
        if d == rank:
            parts[k][rank] = vec
            recv[k] -= 1
            yield from maybe_solve(k)
        else:
            yield Send(dest=d, tag=2 * k + _TAG_SUM, payload=vec,
                       nbytes=vec.nbytes)

    def maybe_solve(k):
        if k in solved or recv[k] != 0:
            return
        w = dist.widths[k]
        x = acc[k]
        for src in sorted(parts[k]):
            x -= parts[k][src]
        parts[k].clear()
        diag_solve(dist.diag[rank][k], x)
        yield Compute(flops=w * w * nrhs, width=w)
        solved[k] = x
        # x(K) goes down process column K mod npcol to the (·,K) owners
        for dst in [d for d in consumers[k] if d != rank]:
            yield Send(dest=dst, tag=2 * k + _TAG_X, payload=x,
                       nbytes=x.nbytes)
        yield from apply_x(k, x)

    def apply_x(j, xj):
        blocks = my_blocks.get(j, ())
        if blocks:
            x_in[xsup[j]:xsup[j + 1]] = xj
        # Figure 9's events: one Compute per block (K, J); lsum(K) is
        # formed once its last x(J) is in, so no order depends on arrival
        for k, flops, width in blocks:
            yield Compute(flops=flops * nrhs, width=width)
            mod[k] -= 1
            if mod[k] == 0:
                # lsum(K): one product, counted as the blocks' products
                panel, cols, calls, dflops = panels[k]
                st = kernels.stats()
                st.gemm_calls += calls
                st.gemm_flops += dflops * nrhs
                yield from deliver_part(
                    k, kernels.gemm_update(panel, x_in[cols]))

    # ---- seeding: supernodes solvable with no remote input ------------ #
    for k in my_diag:
        yield from maybe_solve(k)

    # ---- message-driven main loop (the paper's receive-any loop) ------ #
    # injected transport duplicates share the original's msg_id — apply
    # each logical message once (the loop is not otherwise idempotent)
    seen = set()
    while remaining > 0:
        m = yield from recv_with_retry(              # line (*) of Fig. 9
            source=ANY_SOURCE, tag=ANY_TAG,
            timeout=recv_timeout, retries=DEFAULT_RECV_RETRIES,
            where=recv_timeout and f"pdgstrs {direction.name} rank {rank} "
                                   f"({remaining} msgs pending)")
        if m.msg_id in seen:
            continue
        seen.add(m.msg_id)
        remaining -= 1
        k, kind = divmod(m.tag, 2)
        if kind == _TAG_X:
            yield from apply_x(k, np.asarray(m.payload))
        else:
            parts[k][m.source] = np.asarray(m.payload)
            recv[k] -= 1
            yield from maybe_solve(k)
    return solved
