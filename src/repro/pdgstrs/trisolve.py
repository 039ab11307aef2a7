"""Distributed triangular solves ``L y = b`` and ``U x = y`` (paper
Figure 9 and §3.3) — one message-driven rank program, two directions.

Inner-product formulation: before subvector ``x(K)`` is solved, every
update ``L(K,J)·x(J)``, ``J < K`` (lower; ``U(K,J)·x(J)``, ``J > K``,
upper), must be accumulated and subtracted from ``b(K)``.  Per rank:

- ``mod[K]`` (the paper's ``fmod``; ``umod`` in the mirror) —
  outstanding local block updates to this rank's partial sum
  ``lsum(K)``; when it reaches zero the partial sum is shipped to the
  diagonal process of K (or delivered locally when this rank *is* it);
- ``recv[K]`` (``frecv``/``urecv``; diagonal process only) —
  outstanding partial-sum deliveries (remote ranks each deliver once;
  this rank's own contribution counts as one more); when it reaches
  zero, ``x(K)`` is solved against the diagonal block and sent down
  process column ``K mod npcol`` to every owner of a block in block
  column K.

The main loop is a receive-any dispatcher on the two message kinds —
the paper's "execution of the program is message-driven" — with local
cascades (a solve enabling local updates enabling further solves)
processed eagerly between receives.

The paper gives the lower solve and calls the upper its mirror image:
back substitution proceeds from the root of the elimination tree toward
the leaves, on the row-wise U storage (whose per-supernode column index
sets play the role of the paper's "two vertical linked lists").  What
actually differs is the :class:`_Direction` table below plus the one
place where a block meets ``x(J)``.

Accumulation order is *canonical*, not arrival order: block-update
contributions are buffered per (target, source supernode) and partial
sums per contributing rank, then reduced in sorted order once the
``mod``/``recv`` counters hit zero.  Floating-point results are
therefore a function of the inputs alone — bit-identical across message
interleavings, and in particular across the simulator and the real
process executor (docs/EXECUTOR.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dmem.comm import (
    ANY_SOURCE,
    ANY_TAG,
    Compute,
    Send,
    recv_with_retry,
)
from repro import kernels
from repro.dmem.distribute import DistributedBlocks
from repro.pdgstrf.factor2d import DEFAULT_RECV_RETRIES, DEFAULT_RECV_TIMEOUT

__all__ = ["pdgstrs_lower", "pdgstrs_upper"]

_TAG_X = 0      # solved subvector x(K):   tag = 2*K
_TAG_SUM = 1    # partial sum for K:       tag = 2*K + 1

_ALL = slice(None)


@dataclass(frozen=True)
class _Direction:
    """What differs between the forward and the back substitution."""

    name: str
    blocks: str          # DistributedBlocks store of the (K, J) blocks
    diag_solve: str      # kernel op solving against the diagonal block
    descending: bool     # seeding order (the upper solve starts at the root)
    width_axis: int      # block axis the machine model calls the width


_LOWER = _Direction("lower", "lblk", "diag_solve_lower_unit", False, 1)
_UPPER = _Direction("upper", "ublk", "diag_solve_upper", True, 0)


def _run(direction, dist, b, machine, fault_plan, executor):
    from repro.dmem.executor import RankJob, resolve_executor

    b = np.asarray(b, dtype=np.float64)
    job = RankJob(nranks=dist.grid.size, factory=_rank_solve,
                  kwargs=dict(dist=dist, b=b, direction=direction,
                              recv_timeout=(None if fault_plan is None
                                            else DEFAULT_RECV_TIMEOUT)),
                  # nrhs sets the bytes, and so the ANY_SOURCE order
                  key=(direction.name, b.shape))
    sim = resolve_executor(executor).run(job, machine=machine,
                                         fault_plan=fault_plan)
    x = np.empty(b.shape)
    xsup = dist.part.xsup
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
    :func:`repro.dmem.executor.resolve_executor`); the canonical-order
    accumulation makes the result bit-identical across executors.
    """
    return _run(_LOWER, dist, b, machine, fault_plan, executor)


def pdgstrs_upper(dist: DistributedBlocks, y, machine=None,
                  fault_plan=None, executor=None):
    """Run the upper solve; returns ``(x, SimulationResult)``.

    Same arguments and guarantees as :func:`pdgstrs_lower`.
    """
    return _run(_UPPER, dist, y, machine, fault_plan, executor)


def _rank_solve(rank, dist: DistributedBlocks, b, direction,
                recv_timeout=None):
    """One rank of either substitution.  Returns ``{K: x_K}`` for the
    supernodes whose diagonal process this rank is."""
    diag_solve = getattr(kernels, direction.diag_solve)
    gemm_update = kernels.gemm_update
    blocks = getattr(dist, direction.blocks)[rank]
    width_axis = direction.width_axis
    lower = direction == _LOWER
    grid = dist.grid
    xsup = dist.part.xsup
    local_index = dist.local_index
    # owners of a block (·, J): x(J)'s readers
    consumers = dist.owners[direction.blocks][1]
    b = np.asarray(b, dtype=np.float64)

    nrhs = 1 if b.ndim == 1 else b.shape[1]

    def zeros_block(w):
        return np.zeros(w) if b.ndim == 1 else np.zeros((w, nrhs))

    # my_blocks[J] = block rows K of my (K, J) blocks, ascending; the
    # counters and message total are the layout's, once per pattern
    my_blocks, mod, recv, remaining = dist.solve_start[direction.blocks][rank]
    mod, recv = dict(mod), dict(recv)
    # pending[K] = {J: (rows of lsum(K), block(K,J)·x(J))} — block
    # updates buffered until mod[K] hits zero, then reduced in sorted-J
    # order (canonical, arrival-independent)
    pending = {}

    my_diag = sorted(dist.diag[rank].keys(), reverse=direction.descending)
    acc = {k: b[xsup[k]:xsup[k + 1]].copy() for k in my_diag}
    # parts[K] = {rank: partial sum} — each contributing rank delivers
    # exactly one lsum(K) (this rank's own under its own rank id), so the
    # keys are unique; reduced in sorted-rank order at solve time
    parts = {k: {} for k in my_diag}
    solved = {}

    # ---- local cascade helpers --------------------------------------- #

    def deliver_part(k, vec):
        # vec is freshly reduced by apply_x and never touched again here —
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
        for k_blk in my_blocks.get(j, ()):
            blk = blocks[(k_blk, j)]
            # the one place the directions differ in kind: an L block
            # reads all of x(J) and adds into a subset of K's rows, a U
            # block reads a subset of x(J) and adds into all of K's rows
            if lower:
                put = local_index[j][k_blk]
                contribution = gemm_update(blk, xj)
            else:
                put = _ALL
                contribution = gemm_update(blk, xj[local_index[k_blk][j]])
            yield Compute(flops=2 * blk.shape[0] * blk.shape[1] * nrhs,
                          width=blk.shape[width_axis])
            pending.setdefault(k_blk, {})[j] = (put, contribution)
            mod[k_blk] -= 1
            if mod[k_blk] == 0:
                vec = zeros_block(dist.widths[k_blk])
                contribs = pending.pop(k_blk)
                for jj in sorted(contribs):
                    idx, c = contribs[jj]
                    vec[idx] += c
                yield from deliver_part(k_blk, vec)

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
            where=f"pdgstrs {direction.name} rank {rank} "
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
