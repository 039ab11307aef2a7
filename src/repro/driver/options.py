"""Options controlling every step of the GESP pipeline.

The defaults reproduce the configuration the paper reports results for:
MC64 max-product matching *with* scaling, a minimum degree ordering
applied symmetrically, ``sqrt(eps)·‖A‖`` tiny-pivot replacement,
refinement until ``berr <= eps`` or stagnation — with the symmetrized
(A+Aᵀ) analysis SuperLU_DIST ships, which lets step (3) run the
supernodal block engine on a per-pattern static schedule
(:mod:`repro.factor.supernodal`).

Step (2)'s graph is the engine's to choose (``col_perm=None``): the
serial :class:`~repro.driver.gesp_driver.GESPSolver` orders Aᵀ+A, the
graph its symmetrized analysis eliminates (AᵀA bounds the fill of LU
with row interchanges, which static pivoting never performs), while the
:class:`~repro.driver.dist_driver.DistributedGESPSolver` keeps AᵀA,
whose coarser supernodes send fewer messages (docs/ALGORITHMS.md).
:meth:`GESPOptions.paper_defaults` pins the paper's §2 serial
configuration (AᵀA, exact unsymmetric fill, column kernel) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.ordering import COL_PERMS

__all__ = ["GESPOptions"]

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class GESPOptions:
    """Tuning knobs for :class:`repro.driver.gesp_driver.GESPSolver`.

    Attributes
    ----------
    equilibrate:
        Apply DGEEQU row/column equilibration before matching.  (With
        ``row_perm="mc64_product"`` and ``scale_diagonal`` the MC64 duals
        subsume most of its effect, but the paper applies both.)
    row_perm:
        Step (1) permutation: ``"mc64_product"`` (paper default),
        ``"mc64_bottleneck"``, ``"mc64_cardinality"``, or ``"none"``.
    scale_diagonal:
        Use the MC64 dual scalings Dr, Dc (job=5).  The paper notes
        FIDAPM11/JPWH_991/ORSIRR_1 want this *off*.
    col_perm:
        Step (2) ordering, one of :data:`repro.ordering.COL_PERMS`:
        ``"mmd_ata"`` (minimum degree on AᵀA, the paper's §2 ``Pc``),
        ``"mmd_at_plus_a"`` (minimum degree on Aᵀ+A) or ``"natural"`` —
        or ``None`` (default): the engine's graph.  The serial engine
        resolves it to ``"mmd_at_plus_a"``: its symmetrized analysis is
        the symbolic Cholesky of Aᵀ+A, so that is the graph whose fill
        it pays for (37 % less fill over the testbed than AᵀA).  The
        distributed engine resolves it to ``"mmd_ata"``: Aᵀ+A's finer
        supernodes multiply its messages (cfd06 on 2×2: 1.7× the
        messages, 1.6× the wall time for 0.6× the flops).  Plan cache
        keys carry the resolved value, so ``None`` and the value it
        resolves to share entries.  An explicit value wins on both
        engines.
    replace_tiny_pivots:
        Step (3) safeguard.  The paper notes EX11/RADFR1 want this off.
    tiny_pivot_scale:
        Threshold factor; pivots below ``scale·‖A‖`` are replaced.
        Default ``sqrt(eps)`` (half-precision perturbation).
    aggressive_pivot_replacement:
        §5 extension: replace a tiny pivot by the largest magnitude in
        its column and recover with Sherman-Morrison-Woodbury at solve
        time instead of relying on refinement alone.
    symbolic_method:
        ``"symmetrized"`` (default: A+Aᵀ fill, the SuperLU_DIST choice;
        L and Uᵀ share one pattern, which the supernodal block engine —
        the serial default for step (3) — and the distributed kernels
        need) or ``"unsymmetric"`` (exact fill; step (3) then runs the
        column-by-column kernel :func:`repro.factor.gesp.gesp_factor`,
        the readable oracle the block engine is tested against, as it
        does under ``aggressive_pivot_replacement``).
    refine:
        Run step (4) iterative refinement.
    refine_max_steps, refine_eps, refine_stagnation:
        Stopping controls; defaults are the paper's rule.  (A stagnation
        stop within :data:`repro.solve.refine.STAGNATION_SLACK` of
        ``refine_eps`` is reported as converged.)
    extra_precision_residual:
        §5 extension: accumulate refinement residuals in extended
        precision.
    diag_block_pivoting:
        §5 extension ("mix static and partial pivoting by only pivoting
        within a diagonal block"): threshold value in (0,1]; 0 disables.
        Used by the supernodal kernel only.
    fact:
        How much of a previous factorization of a structurally identical
        matrix to reuse (SuperLU_DIST's ``Fact`` option; see
        docs/REFACTORIZATION.md):

        - ``"DOFACT"`` — factor from scratch (default);
        - ``"SAME_PATTERN"`` — reuse the fill-reducing column ordering
          and the symbolic factorization from the
          :class:`~repro.driver.factcache.FactorizationCache` after
          verifying the (recomputed, value-dependent) row permutation
          still matches; bit-identical to a cold factorization;
        - ``"SAME_PATTERN_SAME_ROWPERM"`` — additionally reuse the row
          permutation and the Dr/Dc scalings, skipping equilibration and
          MC64 entirely; fastest, at the price of stale scalings that
          iterative refinement corrects;
        - ``"FACTORED"`` — the existing factors are up to date; only
          valid on :meth:`~repro.driver.gesp_driver.GESPSolver.refactor`
          (swap in new values and let refinement absorb the drift).
    executor:
        Runtime for the distributed rank programs (distributed driver
        only): ``"sim"`` (event-loop simulator, the deterministic
        oracle), ``"process"`` (one real worker process per rank,
        payloads pickled through queues), or ``None`` to defer to the
        ``REPRO_DMEM_EXECUTOR`` environment variable and finally
        ``"sim"``.  Both produce bit-identical factors and solutions
        (docs/EXECUTOR.md).
    """

    equilibrate: bool = True
    row_perm: str = "mc64_product"
    scale_diagonal: bool = True
    col_perm: str | None = None
    replace_tiny_pivots: bool = True
    tiny_pivot_scale: float = float(np.sqrt(_EPS))
    aggressive_pivot_replacement: bool = False
    symbolic_method: str = "symmetrized"
    refine: bool = True
    refine_max_steps: int = 20
    refine_eps: float = _EPS
    refine_stagnation: float = 2.0
    extra_precision_residual: bool = False
    diag_block_pivoting: float = 0.0
    fact: str = "DOFACT"
    executor: str | None = None

    def validate(self):
        if self.executor is not None:
            from repro.dmem.executor import EXECUTOR_NAMES, UnknownExecutorError

            if (isinstance(self.executor, str)
                    and self.executor not in EXECUTOR_NAMES):
                raise UnknownExecutorError(self.executor)
        if self.fact not in ("DOFACT", "SAME_PATTERN",
                             "SAME_PATTERN_SAME_ROWPERM", "FACTORED"):
            raise ValueError(f"unknown fact {self.fact!r}")
        if self.row_perm not in ("mc64_product", "mc64_bottleneck",
                                 "mc64_cardinality", "none"):
            raise ValueError(f"unknown row_perm {self.row_perm!r}")
        if self.col_perm is not None and self.col_perm not in COL_PERMS:
            raise ValueError(f"unknown col_perm {self.col_perm!r} "
                             f"(expected one of {', '.join(COL_PERMS)})")
        if self.symbolic_method not in ("unsymmetric", "symmetrized"):
            raise ValueError(f"unknown symbolic_method {self.symbolic_method!r}")
        if not (0.0 <= self.diag_block_pivoting <= 1.0):
            raise ValueError("diag_block_pivoting must be in [0, 1]")
        if self.diag_block_pivoting > 0.0 and self.aggressive_pivot_replacement:
            raise ValueError("diag_block_pivoting and "
                             "aggressive_pivot_replacement are mutually "
                             "exclusive (different recovery mechanisms)")
        if self.tiny_pivot_scale <= 0:
            raise ValueError("tiny_pivot_scale must be positive")
        return self

    @classmethod
    def paper_defaults(cls):
        """The configuration of the paper's Section 2 serial experiments:
        the library defaults, except that the ordering is minimum degree
        on AᵀA (the paper's ``Pc``, whatever the engine would choose) and
        the fill is the *exact* unsymmetric one (so step (3) runs the
        column kernel).  The §2 exhibits and EXPERIMENTS.md's fill /
        refinement-step numbers are produced with it and do not move
        with the library default."""
        return cls(col_perm="mmd_ata", symbolic_method="unsymmetric")

    @classmethod
    def no_pivoting(cls):
        """All safeguards off — the §2 failure baseline (27/53 matrices
        die)."""
        return replace(cls.paper_defaults(), equilibrate=False,
                       row_perm="none", scale_diagonal=False,
                       replace_tiny_pivots=False, refine=False)
