"""Distributed matrix input and redistribution (paper §5 future work).

    "In order to make the solver entirely scalable ... we will start with
    the matrix initially distributed in some manner.  The symbolic
    algorithm then determines the best layout for the numeric algorithms,
    and redistributes matrix if necessary.  This also requires us to
    provide a good interface so the user knows how to input the matrix in
    the distributed manner."

This module provides that interface against the virtual machine:

- :class:`DistributedInput` — the user-facing 1-D *row-slab* input format
  (each rank owns a contiguous band of rows in COO triplets), which is
  how applications naturally produce distributed matrices;
- :func:`redistribute` — the SPMD all-to-all that ships every triplet to
  the 2-D block-cyclic owner demanded by the factorization's layout, run
  through the simulator so the communication cost is measured (one
  aggregated message per sender/receiver pair).

The symbolic analysis itself stays replicated, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dmem.comm import Compute, Recv, Send
from repro.dmem.distribute import block_layout
from repro.dmem.grid import ProcessGrid
from repro.dmem.machine import MachineModel
from repro.dmem.simulator import SimulationResult, simulate
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.symbolic.fill import SymbolicLU
from repro.symbolic.supernode import SupernodePartition

__all__ = ["DistributedInput", "redistribute"]


@dataclass
class DistributedInput:
    """A matrix entered in 1-D row-slab form: rank r owns the triplets of
    rows ``slab_starts[r] : slab_starts[r+1]``."""

    n: int
    nranks: int
    slab_starts: np.ndarray          # int64[nranks+1]
    triplets: list                   # per rank: (rows, cols, vals) arrays

    @classmethod
    def from_csc(cls, a: CSCMatrix, nranks: int) -> "DistributedInput":
        """Slice a (test-side) global matrix into the row-slab input the
        user of a real cluster would have assembled locally."""
        if a.nrows != a.ncols:
            raise ValueError("square matrices only")
        n = a.nrows
        starts = np.linspace(0, n, nranks + 1).astype(np.int64)
        coo = a.to_coo()
        trips = []
        for r in range(nranks):
            sel = (coo.row >= starts[r]) & (coo.row < starts[r + 1])
            trips.append((coo.row[sel].copy(), coo.col[sel].copy(),
                          coo.val[sel].copy()))
        return cls(n=n, nranks=nranks, slab_starts=starts, triplets=trips)

    def to_csc(self) -> CSCMatrix:
        """Reassemble the global matrix (replicated symbolic phase input)."""
        rows = np.concatenate([t[0] for t in self.triplets])
        cols = np.concatenate([t[1] for t in self.triplets])
        vals = np.concatenate([t[2] for t in self.triplets])
        return COOMatrix(self.n, self.n, rows, cols, vals).to_csc()


def redistribute(dinput: DistributedInput, sym: SymbolicLU,
                 part: SupernodePartition, grid: ProcessGrid,
                 machine: MachineModel | None = None):
    """Ship row-slab triplets to their 2-D block-cyclic owners.

    Returns ``(DistributedBlocks, SimulationResult)`` — the blocks ready
    for :func:`repro.pdgstrf.pdgstrf`, plus the measured cost of the
    all-to-all (the price of accepting user-distributed input, to be
    weighed against factorization time).
    """
    if grid.size != dinput.nranks:
        raise ValueError("grid size must match the input's rank count")
    machine = machine or MachineModel()
    # the layout of the replicated symbolic phase's input pattern; the
    # values arrive by message and each lands through the layout's one
    # position map
    dist = block_layout(dinput.to_csc(), sym, part, grid)

    def place(rank, rows, cols, vals):
        dist.stores[rank][dist.slots(rows, cols)[1]] = vals

    # Who-sends-to-whom is precomputed from replicated metadata (the
    # symbolic phase is replicated in the paper too), so receivers know
    # exactly which messages to post for; the *data* still travels
    # through the simulator and is charged to the clock.
    dests = [dist.slots(rows, cols)[0] for rows, cols, _ in dinput.triplets]
    senders_to = [[] for _ in range(grid.size)]
    for r, dest in enumerate(dests):
        for d in np.unique(dest).tolist():
            if d != r:
                senders_to[d].append(r)

    def rank_program_simple(rank):
        rows, cols, vals = dinput.triplets[rank]
        dest = dests[rank]
        yield Compute(flops=3.0 * max(1, rows.size), width=32)
        for d in range(grid.size):
            sel = dest == d
            cnt = int(sel.sum())
            if cnt == 0:
                continue
            if d == rank:
                place(rank, rows[sel], cols[sel], vals[sel])
            else:
                yield Send(dest=d, tag=rank,
                           payload=(rows[sel], cols[sel], vals[sel]),
                           nbytes=cnt * 24)
        for src in senders_to[rank]:
            m = yield Recv(source=src, tag=src)
            ri, ci, vi = m.payload
            yield Compute(flops=3.0 * ri.size, width=32)
            place(rank, ri, ci, vi)
        return None

    sim = simulate([rank_program_simple(r) for r in range(grid.size)],
                   machine=machine)
    return dist, sim
