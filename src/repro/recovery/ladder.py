"""The solve-recovery ladder: GESP that never silently fails.

GESP's bargain — static pivots, fix the numerics with refinement — works
on the paper's whole test set, but when it doesn't (near-singular
matrices, heavy tiny-pivot replacement, pathological growth) a bare
``SolveReport`` with ``converged=False`` leaves the caller guessing.
This module wraps the pipeline in an escalation ladder that classifies
the failure (:mod:`repro.recovery.health`) and climbs through
progressively more expensive remedies until the backward error is
certified or the options are exhausted:

1. ``gesp`` — the baseline pipeline: factor + refinement (paper Fig. 1);
2. ``extra_precision`` — re-refine with extended-precision residuals
   (the §5 "judicious amount of extra precision" extension);
3. ``smw`` — Sherman-Morrison-Woodbury correction of the recorded
   tiny-pivot perturbations, making the direct solve *exact* for the
   factored matrix, then refine again;
4. ``refactor`` — refactor with the aggressive column-max replacement
   policy (bigger, better-conditioned perturbations, recovered exactly
   through Woodbury) and extended-precision refinement;
5. ``gepp`` — Gilbert-Peierls partial pivoting on the original matrix:
   slower, unscalable, but the reference for "a direct method can solve
   this";
6. ``gmres_ilu`` — ILU(0)-preconditioned GMRES, the iterative
   alternative of the paper's introduction, as the last resort.

Handed a ``resident`` solver (the solve service does, under the pattern's
lock), rung 1 is ``warm`` — a solve on the factorization already in
memory — and the cold ``gesp`` pipeline moves behind ``refactor``.

Every rung attempt is recorded in a :class:`RungAttempt` (what ran, what
triggered it, what berr it reached) inside the returned report's
``recovery`` field, traced under ``recovery/<rung>`` spans, and counted
via ``recovery.*`` counters — a failed solve is always *diagnosed*,
never silent.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.driver.gesp_driver import GESPSolver, SolveReport
from repro.driver.options import GESPOptions
from repro.obs import add, annotate, event, trace
from repro.recovery.health import (
    FailureDiagnosis,
    FailureKind,
    check_factors,
    check_refinement,
    check_structure,
)
from repro.solve.refine import (
    RefinementResult,
    componentwise_backward_error,
    iterative_refinement,
)
from repro.sparse.csc import CSCMatrix

__all__ = ["RungAttempt", "RecoveryReport", "recover_solve", "RUNGS"]

_EPS = float(np.finfo(np.float64).eps)
DEFAULT_TARGET = float(np.sqrt(_EPS))

RUNGS = ("gesp", "extra_precision", "smw", "refactor", "gepp",
         "gmres_ilu")


@dataclass
class RungAttempt:
    """One rung of the ladder: what ran, why, and how far it got."""

    rung: str
    triggered_by: str = ""            # FailureKind of the escalation cause
    berr: float | None = None
    certified: bool = False
    detail: str = ""
    diagnoses: list = field(default_factory=list)


@dataclass
class RecoveryReport:
    """The ladder's audit trail, attached to the final SolveReport."""

    rungs: list = field(default_factory=list)
    certified: bool = False
    final_rung: str | None = None
    target: float = DEFAULT_TARGET

    @property
    def path(self):
        """Rung names in the order they were attempted."""
        return [r.rung for r in self.rungs]

    @property
    def diagnoses(self):
        """Every diagnosis gathered across all rungs, in order."""
        return [d for r in self.rungs for d in r.diagnoses]


def recover_solve(a: CSCMatrix, b, options: GESPOptions | None = None,
                  target: float | None = None,
                  max_refine_steps: int | None = None,
                  resident: GESPSolver | None = None) -> SolveReport:
    """Solve ``A x = b``, escalating through the recovery ladder.

    Returns a :class:`repro.driver.gesp_driver.SolveReport` whose
    ``recovery`` field records every rung attempted.  On success
    ``converged`` is True and ``berr <= target``; on failure
    ``converged`` is False and ``failure`` carries the final (most
    informative) :class:`~repro.recovery.health.FailureDiagnosis` — the
    caller always learns *why*, and a solution below the certification
    bar is never returned as if it had converged.

    Parameters
    ----------
    a, b:
        The original system.
    options:
        Baseline GESP options for rung 1 (library defaults when omitted).
    target:
        Certification threshold on the componentwise backward error;
        ``sqrt(eps)`` when omitted — half precision, the accuracy the
        tiny-pivot perturbation itself guarantees is recoverable.
    max_refine_steps:
        Refinement cap per rung (the options' cap when omitted).
    resident:
        A solver already factored on ``a`` (the solve service's pattern
        state).  The ladder then opens on it — rung ``warm``, which
        builds nothing — runs rungs 2-3 on its factors without changing
        them, and tries the cold ``gesp`` pipeline last among the GESP
        rungs, after ``refactor``.
    """
    opts = (options or GESPOptions()).validate()
    target = DEFAULT_TARGET if target is None else target
    steps_cap = opts.refine_max_steps if max_refine_steps is None \
        else max_refine_steps
    b = np.asarray(b)
    b = b.astype(np.result_type(a.nzval, b, np.float64), copy=False)
    n = a.ncols
    report = RecoveryReport(target=target)
    best_x, best_berr = None, np.inf
    best_steps, best_hist = 0, []
    trigger = ""         # FailureKind that caused the next escalation

    def record(att, res=None):
        """Book-keep one rung attempt; returns True when certified."""
        nonlocal best_x, best_berr, best_steps, best_hist, trigger
        report.rungs.append(att)
        add("recovery.attempts", 1)
        if res is not None:
            att.berr = float(res.berr)
            if res.berr < best_berr:
                best_x, best_berr = res.x, float(res.berr)
                best_steps, best_hist = res.steps, list(res.berr_history)
            diag = check_refinement(res.berr, res.converged, target)
            if diag is None:
                att.certified = True
            else:
                att.diagnoses.append(diag)
                trigger = diag.kind
        event("rung", rung=att.rung, triggered_by=att.triggered_by,
              berr=att.berr, certified=att.certified)
        return att.certified

    def finish():
        last = report.rungs[-1]        # the gate alone records one
        report.certified, report.final_rung = last.certified, last.rung
        annotate(certified=report.certified, final_rung=report.final_rung,
                 rungs=report.path)
        if report.certified:
            if len(report.rungs) > 1:
                add("recovery.rescues", 1)
            failure = None
        else:
            add("recovery.failures", 1)
            diags = report.diagnoses
            failure = diags[-1] if diags else FailureDiagnosis(
                FailureKind.BERR_STAGNATION, "recovery ladder exhausted")
        x = best_x if best_x is not None else np.full(n, np.nan)
        return SolveReport(
            x=x, berr=best_berr, refine_steps=best_steps,
            berr_history=best_hist, converged=report.certified,
            failure=failure, recovery=report)

    def attempt(rung, body, detail="", what=""):
        """Run ``body(att) -> result`` as one rung under its span; a
        numerical breakdown inside it is a diagnosis, not an error.
        Returns True when the rung certified."""
        nonlocal trigger
        with trace(f"recovery/{rung}"):
            att = RungAttempt(rung=rung, triggered_by=trigger, detail=detail)
            try:
                res = body(att)
            except (ZeroDivisionError, FloatingPointError,
                    np.linalg.LinAlgError) as exc:
                att.diagnoses.append(FailureDiagnosis(
                    FailureKind.NUMERICAL_SINGULARITY, what + str(exc)))
                trigger = FailureKind.NUMERICAL_SINGULARITY
                res = None
            return record(att, res)

    def refine_with(solve_once, x0=None):
        return iterative_refinement(
            a, solve_once, b, x0=x0, max_steps=steps_cap,
            eps=opts.refine_eps, stagnation_factor=opts.refine_stagnation,
            extra_precision=True)

    def build_and_solve(ropts):
        """A rung that is a whole pipeline under its own options."""
        def body(att):
            rsolver = GESPSolver(a, ropts)
            att.diagnoses.extend(_factor_health(rsolver, n))
            return rsolver.solve(b)
        return body

    def baseline(att):
        nonlocal solver
        # a resident factorization of ``a`` is rung 1 as it stands: no
        # analysis, no numeric factorization
        candidate = resident if resident is not None else GESPSolver(a, opts)
        att.diagnoses.extend(_factor_health(candidate, n))
        res = candidate.solve(b)
        solver = candidate
        return res

    def woodbury(att):
        # on a copy: a resident solver keeps answering as it was factored.
        # A singular capacitance matrix (raised here) means the
        # *unperturbed* system is singular — strong evidence, recorded
        corrected = copy.copy(solver)
        corrected.enable_woodbury()
        return refine_with(corrected.solve_once)

    def gepp(att):
        from repro.factor.gepp import gepp_factor

        return refine_with(gepp_factor(a).solve)

    def gmres_ilu(att):
        from repro.iterative.precon_driver import PreconditionedSolver

        kres = PreconditionedSolver(a).solve(
            b, method="gmres", tol=target, max_iter=min(500, 10 * n))
        berr = componentwise_backward_error(a, kres.x, b)
        return RefinementResult(x=kres.x, berr=berr, steps=kres.iterations,
                                berr_history=[berr],
                                converged=kres.converged)

    with trace("recovery"):
        # ---- gate: structural singularity is unrecoverable ------------ #
        diag = check_structure(a)
        if diag is not None:
            att = RungAttempt(rung="gesp", detail="rejected before "
                              "factorization: " + diag.detail)
            att.diagnoses.append(diag)
            record(att)
            return finish()

        # non-finite intermediates are data here, not errors: health
        # checks classify them deterministically
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            solver = None
            if attempt("gesp" if resident is None else "warm", baseline):
                return finish()
            usable = solver is not None and not any(
                d.kind == FailureKind.NONFINITE_FACTORS
                for d in report.rungs[0].diagnoses)
            if usable and attempt(
                    "extra_precision",
                    lambda att: refine_with(solver.solve_once, best_x)):
                return finish()
            n_perturbed = solver.factors.perturbed_columns.size if usable else 0
            if n_perturbed and attempt(
                    "smw", woodbury,
                    detail=f"rank-{n_perturbed} Woodbury correction"):
                return finish()
            # a real cold factorization (fact="DOFACT"), never a
            # reuse-plan shortcut of the analysis that just failed, with
            # the residual precision rung 2 already escalated to
            if attempt("refactor", build_and_solve(dataclasses.replace(
                    opts, fact="DOFACT", extra_precision_residual=True,
                    replace_tiny_pivots=True,
                    aggressive_pivot_replacement=True,
                    diag_block_pivoting=0.0)),
                    detail="aggressive column-max pivot replacement + "
                           "extended-precision refinement"):
                return finish()
            # the cold pipeline comes last among the GESP rungs when the
            # ladder opened on a resident factorization
            if resident is not None and attempt(
                    "gesp", build_and_solve(opts)):
                return finish()
            if attempt("gepp", gepp, what="partial pivoting failed: ",
                       detail="Gilbert-Peierls partial pivoting"):
                return finish()
            attempt("gmres_ilu", gmres_ilu, what="ILU/GMRES failed: ",
                    detail="ILU(0)-preconditioned GMRES")
        return finish()


def _factor_health(solver: GESPSolver, n: int):
    """Factor diagnoses for one built solver (growth when available)."""
    try:
        growth = solver.pivot_growth()
    except NotImplementedError:
        growth = None
    return check_factors(solver.factors, n, pivot_growth=growth)
