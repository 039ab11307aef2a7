"""Distributed GESP: the full pipeline against the virtual machine.

Wires the serial preprocessing (GESP steps (1)-(2)) to the distributed
numeric phases (steps (3)-(4)) of Section 3:

1. equilibrate + MC64 row permutation/scaling  (serial, replicated);
2. fill-reducing column ordering, *postordered* on the elimination tree
   of the symmetrized pattern so supernode chains are index-contiguous
   (an equivalent reordering — fill is unchanged);
3. symmetrized symbolic factorization, supernode partition
   (detect → relax/amalgamate → split at ``max_block_size``), block DAG;
4. 2-D block-cyclic distribution + simulated ``pdgstrf`` / ``pdgstrs``.

The paper runs its symbolic phase redundantly on every processor; here it
runs once and the results are shared read-only, which is observationally
identical (the paper's Table 3 likewise reports the symbolic time as a
single processor-count-independent column).

Steps 1-2, the fact-mode decision, ``refactor`` and the plan / cache
plumbing are :mod:`repro.driver.pipeline`'s, shared with the serial
driver (the etree postorder is an argument of its column-ordering step);
this module is the distributed numeric back end — step 3's structures,
the block-cyclic value scatter, and ``pdgstrf`` / ``pdgstrs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dmem.distribute import distribute_matrix, refill_values
from repro.dmem.grid import ProcessGrid, best_grid
from repro.dmem.machine import MachineModel
from repro.driver.factcache import dist_plan_key
from repro.driver.options import GESPOptions
from repro.driver.pipeline import PatternSolver, SolveReport
from repro.obs import Tracer, annotate, use_tracer
from repro.pdgstrf import FactorizationRun, build_schedule, pdgstrf
from repro.pdgstrs import SolveRun, pdgstrs
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import norm1
from repro.symbolic.edag import build_block_dag
from repro.symbolic.fill import symbolic_lu_symmetrized
from repro.symbolic.supernode import (
    find_supernodes,
    relax_supernodes,
    split_supernodes,
)

__all__ = ["DistributedGESPSolver"]


@dataclass
class DistributedGESPSolver(PatternSolver):
    """Factor a sparse system on a simulated P-processor machine.

    Parameters
    ----------
    a:
        The square system matrix.
    nprocs:
        Number of virtual processors (or pass an explicit ``grid``).
    options:
        GESP options; ``symbolic_method`` is forced to ``"symmetrized"``
        (the distributed data structure requires it, as in SuperLU_DIST).
    machine:
        Cost model for the simulator.
    max_block_size:
        Supernode splitting threshold (paper: 24 on the T3E).
    relax_size:
        Supernode amalgamation threshold (0 disables).
    pipeline, edag_prune:
        Factorization variants (paper §3.2 ablations).
    cache:
        The :class:`~repro.driver.factcache.FactorizationCache` consulted
        when ``options.fact`` requests pattern reuse and seeded after
        every analysis.  Default (None): the process-wide
        :data:`~repro.driver.factcache.FACTOR_CACHE`; pass ``False`` to
        disable.  A distributed plan additionally carries the supernode
        partition, block DAG, and the EDAG-pruned communication schedule,
        so a warm start skips the symbolic phase *and* the schedule
        derivation (docs/REFACTORIZATION.md).
    fault_plan:
        Optional :class:`repro.dmem.faults.FaultPlan` injected into every
        simulated phase (factorization and both triangular solves).  When
        set, receives are armed with bounded-retry timeouts so injected
        message loss surfaces as a structured
        :class:`repro.dmem.comm.CommTimeoutError` rather than a hang.
    recv_timeout, recv_retries:
        Override the per-receive timeout (simulated seconds) and retry
        budget used when a fault plan is active.
    executor:
        Runtime for the distributed phases: ``"sim"`` (event-loop
        simulator), ``"process"`` (one real worker process per rank over
        ``multiprocessing`` queues, payloads pickled), an
        executor instance, or ``None`` — which falls back to
        ``options.executor``, then the ``REPRO_DMEM_EXECUTOR``
        environment variable, then ``"sim"``.  Factors and solutions are
        bit-identical across executors (docs/EXECUTOR.md).
    dense_tail_threshold:
        §5 switch-to-dense: merge the trailing supernodes into one dense
        block when the bottom-right submatrix's fill density exceeds this
        (0 disables).  The merged tail is still *split* at
        ``max_block_size`` for distribution, mirroring the paper's
        "switch to a ScaLAPACK-style dense factorization" idea.
    """

    a: CSCMatrix
    nprocs: int = 4
    options: GESPOptions = field(default_factory=GESPOptions)
    grid: ProcessGrid | None = None
    machine: MachineModel = field(default_factory=MachineModel)
    max_block_size: int = 24
    relax_size: int = 8
    pipeline: bool = True
    edag_prune: bool = True
    dense_tail_threshold: float = 0.0
    fault_plan: object | None = None
    recv_timeout: float | None = None
    recv_retries: int = 2
    executor: object | None = None
    tracer: Tracer | None = None
    cache: object = None

    _ETREE_POSTORDER = True

    def __post_init__(self):
        if self.grid is None:
            self.grid = best_grid(self.nprocs)
        if self.executor is None:
            self.executor = self.options.executor
        self.dist = None
        self._open(self.tracer, self.cache)

    # ------------------------------------------------------------------ #
    # the distributed back end
    # ------------------------------------------------------------------ #

    def _plan_key(self, fingerprint):
        return dist_plan_key(
            fingerprint, self.options, self.grid,
            self.max_block_size, self.relax_size,
            self.dense_tail_threshold, self.edag_prune)

    def _plan_extras(self):
        return dict(part=self.part, dag=self.dag, schedule=self._schedule)

    def _symbolic_step(self, at, plan):
        """Symbolic factorization, supernode partition, block DAG (and,
        from a plan, the EDAG-pruned communication schedule)."""
        if plan is not None:
            return dict(symbolic=plan.symbolic, part=plan.part, dag=plan.dag,
                        _schedule=plan.schedule)
        sym = symbolic_lu_symmetrized(at)
        part = find_supernodes(sym)
        if self.relax_size > 1:
            part = relax_supernodes(sym, part, relax_size=self.relax_size)
        if self.dense_tail_threshold > 0.0:
            from repro.symbolic.supernode import merge_dense_tail

            part = merge_dense_tail(
                sym, part, density_threshold=self.dense_tail_threshold)
        part = split_supernodes(part, max_size=self.max_block_size)
        return dict(symbolic=sym, part=part, dag=build_block_dag(sym, part),
                    _schedule=None)

    def _numeric_step(self, at, structures, reused):
        """Scatter the values into the 2-D block-cyclic layout: structures
        reused and block storage exists → refill it in place
        (:func:`~repro.dmem.distribute.refill_values`, no reallocation),
        else distribute.  The simulated numeric factorization itself runs
        on the next :meth:`factorize` / :meth:`solve`."""
        if reused and self.dist is not None:
            dist = refill_values(self.dist, at, structures["symbolic"])
        else:
            dist = distribute_matrix(at, structures["symbolic"],
                                     structures["part"], self.grid)
        return dict(dist=dist, anorm=norm1(at), factor_run=None)

    # ------------------------------------------------------------------ #

    def factorize(self) -> FactorizationRun:
        """Run the simulated distributed factorization (paper Table 3).

        The communication schedule is derived once per sparsity pattern
        and reused across refactorizations (it depends only on the block
        structure, the DAG, and ``edag_prune``).

        Idempotent: ``pdgstrf`` works in place, so once it has run the
        block storage holds the factors of the resident values and a
        repeat call returns that run (every value change goes through
        :meth:`refactor`, whose numeric step clears ``factor_run``); one
        that raises refills the storage with them.
        """
        if self.factor_run is not None:
            return self.factor_run
        with use_tracer(self.tracer), self._stage("factor"):
            if self._schedule is None:
                self._schedule = build_schedule(self.dist, self.dag,
                                                self.edag_prune)
                self._publish_plan()
            else:
                annotate(schedule_reused=True)
            try:
                self.factor_run = pdgstrf(
                    self.dist, self.dag, anorm=self.anorm,
                    machine=self.machine, pipeline=self.pipeline,
                    edag_prune=self.edag_prune,
                    replace_tiny_pivots=self.options.replace_tiny_pivots,
                    tiny_pivot_scale=self.options.tiny_pivot_scale,
                    fault_plan=self.fault_plan,
                    recv_timeout=self.recv_timeout,
                    recv_retries=self.recv_retries,
                    schedule=self._schedule,
                    executor=self.executor)
            except BaseException:
                # the stores are half factored: put the resident values
                # back (one gather), so a retry factors A, not debris
                refill_values(self.dist, self.a_factored)
                raise
        return self.factor_run

    def solve_distributed(self, b) -> SolveRun:
        """Simulated distributed triangular solves (paper Table 4).

        ``b`` is the right-hand side of the *original* system; the
        transforms of steps (1)-(2) are applied/undone around the
        distributed substitutions.
        """
        if self.factor_run is None:
            self.factorize()
        with self._recording() as tracer, tracer.span("solve"):
            run = pdgstrs(self.dist,
                          self._to_factored(np.asarray(b, dtype=np.float64)),
                          machine=self.machine,
                          fault_plan=self.fault_plan,
                          recv_timeout=self.recv_timeout,
                          recv_retries=self.recv_retries,
                          executor=self.executor)
            x = self._from_factored(run.x)
        return SolveRun(x=x, lower=run.lower, upper=run.upper)

    def solve_distributed_multi(self, b_block) -> SolveRun:
        """Distributed solves for a block of right-hand sides (n × nrhs).

        The message count is identical to the single-vector solve (each
        x(K)/partial-sum message just carries ``nrhs`` columns), so the
        per-vector cost collapses — the §5 point that algorithm choice
        "will probably depend on the number of right-hand sides".
        """
        b_block = np.asarray(b_block, dtype=np.float64)
        if b_block.ndim != 2 or b_block.shape[0] != self.a.ncols:
            raise ValueError("b_block must be (n, nrhs)")
        return self.solve_distributed(b_block)

    def solve(self, b, refine: bool | None = None):
        """Solve with iterative refinement (serial residuals around the
        distributed factors, gathered once) — the step-(4) numerics.

        Returns a :class:`repro.driver.gesp_driver.SolveReport`.  When
        the simulated factorization dies of a communication failure
        (fault-injected message loss surfacing as a
        :class:`~repro.dmem.comm.CommTimeoutError`, or a deadlock), the
        report comes back with ``converged=False`` and the structured
        diagnosis in ``failure`` instead of the exception escaping.
        """
        if self.factor_run is None:
            try:
                self.factorize()
            except Exception as exc:
                from repro.dmem.comm import CommTimeoutError
                from repro.dmem.simulator import DeadlockError

                if not isinstance(exc, (CommTimeoutError, DeadlockError)):
                    raise
                from repro.recovery.health import diagnose_comm_failure

                return SolveReport(
                    x=np.full(self.a.ncols, np.nan), berr=np.inf,
                    refine_steps=0, converged=False,
                    failure=diagnose_comm_failure(exc))
        gathered = self.dist.gather_to_supernodal()

        def solve_once(rhs):
            c = self._to_factored(np.asarray(rhs, dtype=np.float64))
            return self._from_factored(gathered.solve(c))

        with self._recording() as tracer, tracer.span("solve"):
            return self._solve_report(solve_once, b, refine)
