"""The GESP solver: Figure 1 of the paper, end to end.

Algebra (SuperLU destination-permutation convention):

    A_factored = Pc · Pr · Dr · A · Dc · Pcᵀ  =  L · U (+ tiny-pivot perturbations)

so the solve of ``A x = b`` is

    c[pc[pr[i]]] = dr[i] · b[i]          (apply Dr, Pr, Pc to b)
    z = U⁻¹ L⁻¹ c                         (two triangular solves)
    x[i] = dc[i] · z[pc[i]]              (apply Pcᵀ, Dc)

with iterative refinement wrapped around the whole thing on the
*original* A.  Every stage runs inside a :mod:`repro.obs` span
(``equil``/``rowperm``/``colperm``/``symbolic``/``factor``, then
``solve``/``refine`` per solve), so Figure 6's cost breakdown can be
regenerated from a trace.

Steps (1)-(2), the fact-mode decision, ``refactor`` and the plan / cache
plumbing are :mod:`repro.driver.pipeline`'s, shared with the distributed
driver; this module is the serial numeric back end — the symbolic
factorization and block schedule, the numeric engine (step (3): the
supernodal block engine by default, the column kernel on the exact
unsymmetric fill or under aggressive pivot replacement) and the
triangular solves.

Pattern reuse (``GESPOptions.fact``, :meth:`GESPSolver.refactor`): when a
sequence of matrices shares one sparsity pattern — Newton steps,
time-stepping, parameter sweeps — the structures GESP derives (column
ordering, value map, symbolic factorization, block schedule) are
computed once and reused through
the :mod:`repro.driver.factcache` cache; only the value-dependent work
re-runs.  See docs/REFACTORIZATION.md.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.driver.factcache import serial_plan_key
from repro.driver.options import GESPOptions
from repro.driver.pipeline import PatternSolver, SolveReport
from repro.factor.blockplan import build_block_plan
from repro.factor.gesp import gesp_factor
from repro.factor.supernodal import supernodal_factor
from repro.obs import Tracer, trace
from repro.solve.errbound import condest_1norm, forward_error_bound
from repro.solve.refine import refine_block
from repro.solve.sherman import ShermanMorrisonSolver
from repro.solve.triangular import solve_lower_t_csc, solve_upper_t_csc
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import norm1
from repro.symbolic.fill import symbolic_lu
from repro.symbolic.supernode import block_partition

__all__ = ["GESPSolver", "SolveReport", "MultiSolveResult", "gesp_solve"]


class MultiSolveResult(NamedTuple):
    """Outcome of :meth:`GESPSolver.solve_multi`.

    The per-column arrays are the result: ``berrs[t]`` is column t's
    componentwise backward error for the returned iterate,
    ``col_steps[t]`` the corrections computed for it and
    ``col_converged[t]`` whether it is certified (berr at or below the
    refinement target, or within
    :data:`repro.solve.refine.STAGNATION_SLACK` of it at a stagnation
    stop) — each exactly what :meth:`GESPSolver.solve` reports for that
    right-hand side alone.  :mod:`repro.service` answers every batched
    request from its own column and retries only the columns that lost.

    The scalars are the block's aggregates: ``berr == berrs.max()``,
    ``converged == col_converged.all()`` and ``steps ==
    col_steps.max()``, the number of sweeps over the factors the block
    took after its first solve.
    """

    x: np.ndarray
    berr: float
    steps: int
    converged: bool
    berrs: np.ndarray | None = None
    col_converged: np.ndarray | None = None
    col_steps: np.ndarray | None = None


class GESPSolver(PatternSolver):
    """Factor once, solve many times — the GESP pipeline as an object.

    Parameters
    ----------
    a:
        The square sparse system matrix (CSC).
    options:
        A :class:`~repro.driver.options.GESPOptions`; library defaults when
        omitted.  ``options.fact`` selects how much of a cached previous
        factorization of the same sparsity pattern to reuse (falls back
        to a cold factorization when nothing is cached).
    tracer:
        A :class:`repro.obs.Tracer` to record spans into.  When omitted,
        the ambient tracer is used if one is installed (``use_tracer``).
        A solver handed neither keeps the spans of its latest build in a
        private tracer (reachable as ``solver.tracer``, whose stage spans
        carry the per-stage seconds) and records its solves into whatever
        tracer is ambient on the calling thread.
    cache:
        The :class:`~repro.driver.factcache.FactorizationCache` to
        consult/seed.  Default: the process-wide
        :data:`~repro.driver.factcache.FACTOR_CACHE`; pass ``False`` to
        disable caching for this solver.

    Attributes
    ----------
    factors:
        The :class:`~repro.factor.gesp.GESPFactors` of the transformed
        matrix.
    perm_r, perm_c, dr, dc:
        The step-(1)/(2) transforms (destination-convention permutations
        and scale vectors).
    tracer:
        The :class:`repro.obs.Tracer` the build spans went to (and the
        solve spans too, when the solver was handed one); its stage
        spans ``equil``, ``rowperm``, ``colperm``, ``symbolic`` and
        ``factor`` are the raw material of Figure 6.
    """

    def __init__(self, a: CSCMatrix, options: GESPOptions | None = None,
                 tracer: Tracer | None = None, cache=None):
        self.a = a
        self.options = options or GESPOptions()
        self._open(tracer, cache)

    # ------------------------------------------------------------------ #
    # the serial back end
    # ------------------------------------------------------------------ #

    def _plan_key(self, fingerprint):
        return serial_plan_key(fingerprint, self.options)

    def _plan_extras(self):
        return dict(block_plan=self._block_plan,
                    sym_blockpivot=self._sym_blockpivot)

    def _block_engine(self, sym):
        """Whether step (3) runs the supernodal block engine: it needs L
        and Uᵀ to share one pattern, and knows only the paper's
        ``sqrt_eps`` replacement.  Otherwise the column kernel runs."""
        opts = self.options
        return (sym.symmetrized and not opts.aggressive_pivot_replacement
                and not opts.diag_block_pivoting > 0.0)

    def _symbolic_step(self, at, plan):
        """The symbolic factorization and, for the block engine, its
        schedule (built here too when a cached plan came without one)."""
        sym = (plan.symbolic if plan is not None
               else symbolic_lu(at, method=self.options.symbolic_method))
        block_plan = plan.block_plan if plan is not None else None
        if block_plan is None and self._block_engine(sym):
            with trace("symbolic/plan"):
                block_plan = build_block_plan(at, sym, block_partition(sym))
        return dict(symbolic=sym, _block_plan=block_plan,
                    _sym_blockpivot=(plan.sym_blockpivot
                                     if plan is not None else None))

    def _numeric_step(self, at, structures, reused):
        """The value-dependent step (3): numeric kernels + SMW wiring."""
        opts = self.options
        sym = structures["symbolic"]
        sym_s = structures["_sym_blockpivot"]
        with trace("factor"):
            if opts.diag_block_pivoting > 0.0:
                # §5 extension: mixed static / within-diagonal-block
                # pivoting.  Requires the symmetrized (supernodal)
                # pattern; the resulting factors satisfy
                # P·A_factored = L·U with block-diagonal P, absorbed
                # inside BlockPivotedFactors.solve.
                from repro.factor.blockpivot import (
                    supernodal_factor_block_pivoting,
                )
                from repro.symbolic.fill import symbolic_lu_symmetrized

                if sym.symmetrized:
                    sym_s = sym
                elif sym_s is None:
                    sym_s = symbolic_lu_symmetrized(at)
                factors = supernodal_factor_block_pivoting(
                    at, sym=sym_s,
                    pivot_threshold=opts.diag_block_pivoting,
                    replace_tiny_pivots=opts.replace_tiny_pivots,
                    tiny_pivot_scale=opts.tiny_pivot_scale)
            elif self._block_engine(sym):
                factors = supernodal_factor(
                    at, plan=structures["_block_plan"],
                    replace_tiny_pivots=opts.replace_tiny_pivots,
                    tiny_pivot_scale=opts.tiny_pivot_scale).to_gesp_factors()
            else:
                # the readable oracle: exact unsymmetric fill, or the
                # column_max replacement policy
                policy = ("column_max" if opts.aggressive_pivot_replacement
                          else "sqrt_eps")
                factors = gesp_factor(
                    at, sym=sym,
                    replace_tiny_pivots=opts.replace_tiny_pivots,
                    tiny_pivot_scale=opts.tiny_pivot_scale,
                    pivot_policy=policy)

            # Sherman-Morrison-Woodbury wrapper when the aggressive
            # policy actually perturbed something (rebuilt on every
            # refactorization — the correction is value-dependent)
            smw = None
            if opts.aggressive_pivot_replacement and factors.n_tiny_pivots:
                smw = ShermanMorrisonSolver(
                    at.ncols, factors.solve,
                    factors.perturbed_columns, factors.pivot_deltas)
        return dict(factors=factors, _smw=smw, _sym_blockpivot=sym_s)

    # ------------------------------------------------------------------ #
    # solves
    # ------------------------------------------------------------------ #

    def enable_woodbury(self):
        """Activate Sherman-Morrison-Woodbury correction of the recorded
        tiny-pivot perturbations (idempotent).  Returns True when a
        correction is in effect — i.e. the factorization actually
        perturbed something and subsequent :meth:`solve_once` calls go
        through the exact Woodbury-corrected solve.  The recovery
        ladder's ``smw`` rung calls this on demand; constructing it
        costs one solve per perturbed column (the capacitance matrix).
        """
        if self._smw is None and self.factors.perturbed_columns.size:
            self._smw = ShermanMorrisonSolver(
                self.a.ncols, self.factors.solve,
                self.factors.perturbed_columns, self.factors.pivot_deltas)
        return self._smw is not None

    def _solve_factored(self, c):
        """z with (L U or SMW-corrected A_factored) z = c."""
        if self._smw is not None:
            return self._smw.solve(c)
        return self.factors.solve(c)

    def solve_once(self, b):
        """One direct solve through the factors (no refinement); ``b``
        is (n,) or a block (n, nrhs).  A block of one column is solved as
        the vector it is: same bits under every engine, no 2-D indexing."""
        b = np.asarray(b)
        if b.ndim == 2 and b.shape[1] == 1:
            return self.solve_once(b[:, 0])[:, None]
        return self._from_factored(
            self._solve_factored(self._to_factored(b)))

    def solve(self, b, refine: bool | None = None,
              forward_error: bool = False) -> SolveReport:
        """Solve ``A x = b`` with (by default) iterative refinement.

        With ``forward_error=True`` also runs the Hager-Higham estimator —
        "by far the most expensive step after factorization ... we do this
        only when the user asks for it."
        """
        with self._recording() as tracer, tracer.span("solve"):
            report = self._solve_report(self.solve_once, b, refine)
            if forward_error:
                with trace("errbound"):
                    report.forward_error_estimate = forward_error_bound(
                        self.a, self.solve_once, self.solve_transpose,
                        report.x, np.asarray(b))
        return report

    def solve_multi(self, b_block, refine: bool | None = None,
                    max_steps: int | None = None) -> MultiSolveResult:
        """Solve ``A X = B`` for a block of right-hand sides (n × nrhs).

        One pass over the factors for all columns (:meth:`solve_once` on
        the block), then the loop :meth:`solve` runs
        (:func:`repro.solve.refine.refine_block`), one more pass per
        sweep for the columns still being corrected — the multiple-RHS
        workload of the paper's §5.  Every column stops by the paper's
        rule on its own ``berr``: with the default engine column t is bit
        for bit what ``solve(b_block[:, t])`` returns, whatever else is
        in the block; where a dense block operation sits inside
        :meth:`solve_once` (Woodbury correction, diagonal-block pivoting)
        the columns agree to rounding and certify alike.
        """
        b_block = np.asarray(b_block)
        if b_block.ndim != 2 or b_block.shape[0] != self.a.ncols:
            raise ValueError("b_block must be (n, nrhs)")
        with self._recording() as tracer, tracer.span("solve"):
            x, berrs, steps, _, converged = refine_block(
                self.a, self.solve_once, b_block,
                **self._refinement(refine, max_steps))
        return MultiSolveResult(
            x=x, berr=float(berrs.max(initial=0.0)),
            steps=int(steps.max(initial=0)), converged=bool(converged.all()),
            berrs=berrs, col_converged=converged, col_steps=steps)

    def solve_transpose(self, b):
        """x with ``Aᵀ x = b`` through the same factors.

        From ``A⁻¹ = Dc Pcᵀ U⁻¹ L⁻¹ Pc Pr Dr`` (the forward identity),
        transposing gives ``A⁻ᵀ = Dr Prᵀ Pcᵀ L⁻ᵀ U⁻ᵀ Pc Dc``.  With a
        destination permutation ``p``, ``(P v)[p[i]] = v[i]`` and
        ``(Pᵀ v)[i] = v[p[i]]``.  (When aggressive pivot replacement put a
        Woodbury correction in front, this uses the *perturbed* factors —
        acceptable for its only consumer, the condition estimator.)
        """
        if self.options.diag_block_pivoting > 0.0:
            raise NotImplementedError(
                "transpose solves are not available with diagonal-block "
                "pivoting (the block-local row permutations would need a "
                "transposed substitution path)")
        b = np.asarray(b)
        c = np.empty(b.shape, dtype=np.result_type(self.a.nzval, b, np.float64))
        c[self.perm_c] = self.dc * b                 # Pc · (Dc b)
        y = solve_upper_t_csc(self.factors.u, c)     # U⁻ᵀ
        y = solve_lower_t_csc(self.factors.l, y, unit_diagonal=True)  # L⁻ᵀ
        return self.dr * y[self.perm_c[self.perm_r]]  # Prᵀ Pcᵀ, then Dr

    def condest(self):
        """Hager-Higham estimate of ``κ₁(A) = ‖A‖₁ ‖A⁻¹‖₁`` through the
        factors (the LAPACK ``xGECON`` recipe; requires transpose solves,
        so unavailable with diagonal-block pivoting)."""
        return norm1(self.a) * condest_1norm(
            self.a.ncols, self.solve_once, self.solve_transpose)

    def pivot_growth(self):
        """Reciprocal pivot growth of the factored matrix."""
        if self.options.diag_block_pivoting > 0.0:
            raise NotImplementedError(
                "pivot growth reporting is only wired for the column "
                "kernel; use BlockPivotedFactors.max_l_magnitude instead")
        return self.factors.pivot_growth(self.a_factored)


def gesp_solve(a: CSCMatrix, b, options: GESPOptions | None = None) -> SolveReport:
    """One-shot convenience wrapper: factor + refine-solve."""
    return GESPSolver(a, options).solve(b)
