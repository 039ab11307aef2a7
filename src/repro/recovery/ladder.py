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
4. ``refactor_fp64`` — only when the failed solve factored in single
   precision (``options.factor_dtype="float32"``): refactor in full
   double precision with the same pivot policy.  The mixed-precision
   bargain is "fp32 factors are usually good enough once fp64
   refinement runs"; this rung is the escalation when they are not;
5. ``refactor`` — refactor with the aggressive column-max replacement
   policy (bigger, better-conditioned perturbations, recovered exactly
   through Woodbury) and extended-precision refinement;
6. ``gepp`` — Gilbert-Peierls partial pivoting on the original matrix:
   slower, unscalable, but the reference for "a direct method can solve
   this";
7. ``gmres_ilu`` — ILU(0)-preconditioned GMRES, the iterative
   alternative of the paper's introduction, as the last resort.

Every rung attempt is recorded in a :class:`RungAttempt` (what ran, what
triggered it, what berr it reached) inside the returned report's
``recovery`` field, traced under ``recovery/<rung>`` spans, and counted
via ``recovery.*`` counters — a failed solve is always *diagnosed*,
never silent.
"""

from __future__ import annotations

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

RUNGS = ("gesp", "extra_precision", "smw", "refactor_fp64", "refactor",
         "gepp", "gmres_ilu")


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
                  target: float = DEFAULT_TARGET,
                  max_refine_steps: int | None = None) -> SolveReport:
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
        ``sqrt(eps)`` by default — half precision, the accuracy the
        tiny-pivot perturbation itself guarantees is recoverable.
    max_refine_steps:
        Refinement cap per rung (the options' cap when omitted).
    """
    opts = (options or GESPOptions()).validate()
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
        certified = report.rungs and report.rungs[-1].certified
        report.certified = bool(certified)
        report.final_rung = report.rungs[-1].rung if report.rungs else None
        annotate(certified=report.certified, final_rung=report.final_rung,
                 rungs=report.path)
        if report.certified:
            if report.final_rung != "gesp":
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

    with trace("recovery"):
        # ---- gate: structural singularity is unrecoverable ------------ #
        diag = check_structure(a)
        if diag is not None:
            att = RungAttempt(rung="gesp", detail="rejected before "
                              "factorization: " + diag.detail)
            att.diagnoses.append(diag)
            report.rungs.append(att)
            add("recovery.attempts", 1)
            event("rung", rung="gesp", triggered_by="",
                  berr=None, certified=False)
            best_berr = np.inf
            return finish()

        # non-finite intermediates are data here, not errors: health
        # checks classify them deterministically
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):

            # ---- rung 1: the baseline GESP pipeline ------------------- #
            solver = None
            with trace("recovery/gesp"):
                att = RungAttempt(rung="gesp")
                try:
                    solver = GESPSolver(a, opts)
                    att.diagnoses.extend(_factor_health(solver, n))
                    res = solver.solve(b)
                    if record(att, res):
                        return finish()
                except (ZeroDivisionError, FloatingPointError,
                        np.linalg.LinAlgError) as exc:
                    att.diagnoses.append(FailureDiagnosis(
                        FailureKind.NUMERICAL_SINGULARITY, str(exc)))
                    trigger = FailureKind.NUMERICAL_SINGULARITY
                    record(att)
                    solver = None

            usable = solver is not None and not any(
                d.kind == FailureKind.NONFINITE_FACTORS
                for d in report.rungs[0].diagnoses)

            # ---- rung 2: extended-precision refinement ---------------- #
            if usable:
                with trace("recovery/extra_precision"):
                    att = RungAttempt(rung="extra_precision",
                                      triggered_by=trigger)
                    res = iterative_refinement(
                        a, solver.solve_once, b, x0=best_x,
                        max_steps=steps_cap, eps=opts.refine_eps,
                        stagnation_factor=opts.refine_stagnation,
                        extra_precision=True)
                    if record(att, res):
                        return finish()

            # ---- rung 3: Woodbury correction of perturbed pivots ------ #
            if usable and solver.factors.perturbed_columns.size:
                with trace("recovery/smw"):
                    att = RungAttempt(
                        rung="smw", triggered_by=trigger,
                        detail=f"rank-{solver.factors.perturbed_columns.size}"
                               " Woodbury correction")
                    try:
                        solver.enable_woodbury()
                        res = iterative_refinement(
                            a, solver.solve_once, b,
                            max_steps=steps_cap, eps=opts.refine_eps,
                            stagnation_factor=opts.refine_stagnation,
                            extra_precision=True)
                        if record(att, res):
                            return finish()
                    except (ZeroDivisionError, FloatingPointError,
                            np.linalg.LinAlgError) as exc:
                        # a singular capacitance matrix means the
                        # *unperturbed* system is singular — strong
                        # evidence, worth recording before moving on
                        att.diagnoses.append(FailureDiagnosis(
                            FailureKind.NUMERICAL_SINGULARITY, str(exc)))
                        trigger = FailureKind.NUMERICAL_SINGULARITY
                        record(att)

            # ---- rung 4: redo a single-precision factorization in
            # double (mixed-precision escapes only) ---------------------- #
            if opts.factor_dtype == "float32":
                with trace("recovery/refactor_fp64"):
                    att = RungAttempt(
                        rung="refactor_fp64", triggered_by=trigger,
                        detail="fp32 factors not certifiable: refactor in "
                               "float64 with the same pivot policy")
                    try:
                        # extra_precision_residual: rung 2 already
                        # escalated the residual precision — the full-
                        # precision rebuild keeps that, like rung 5 does
                        fopts = dataclasses.replace(
                            opts, factor_dtype="float64", fact="DOFACT",
                            extra_precision_residual=True)
                        fsolver = GESPSolver(a, fopts)
                        att.diagnoses.extend(_factor_health(fsolver, n))
                        res = fsolver.solve(b)
                        if record(att, res):
                            return finish()
                    except (ZeroDivisionError, FloatingPointError,
                            np.linalg.LinAlgError) as exc:
                        att.diagnoses.append(FailureDiagnosis(
                            FailureKind.NUMERICAL_SINGULARITY, str(exc)))
                        trigger = FailureKind.NUMERICAL_SINGULARITY
                        record(att)

            # ---- rung 5: refactor with the aggressive policy ---------- #
            with trace("recovery/refactor"):
                att = RungAttempt(
                    rung="refactor", triggered_by=trigger,
                    detail="aggressive column-max pivot replacement + "
                           "extended-precision refinement")
                try:
                    # fact="DOFACT": the recovery rebuild must be a real
                    # cold factorization, never a reuse-plan shortcut of
                    # the analysis that just failed
                    # factor_dtype="float64": once the fp32 rung failed
                    # (or was skipped), every later rebuild runs at full
                    # precision
                    ropts = dataclasses.replace(
                        opts, replace_tiny_pivots=True,
                        aggressive_pivot_replacement=True,
                        diag_block_pivoting=0.0,
                        extra_precision_residual=True,
                        factor_dtype="float64",
                        fact="DOFACT")
                    rsolver = GESPSolver(a, ropts)
                    att.diagnoses.extend(_factor_health(rsolver, n))
                    res = rsolver.solve(b)
                    if record(att, res):
                        return finish()
                except (ZeroDivisionError, FloatingPointError,
                        np.linalg.LinAlgError) as exc:
                    att.diagnoses.append(FailureDiagnosis(
                        FailureKind.NUMERICAL_SINGULARITY, str(exc)))
                    trigger = FailureKind.NUMERICAL_SINGULARITY
                    record(att)

            # ---- rung 6: partial pivoting (GEPP) ---------------------- #
            with trace("recovery/gepp"):
                att = RungAttempt(rung="gepp", triggered_by=trigger,
                                  detail="Gilbert-Peierls partial pivoting")
                try:
                    from repro.factor.gepp import gepp_factor

                    factors = gepp_factor(a)
                    res = iterative_refinement(
                        a, factors.solve, b, max_steps=steps_cap,
                        eps=opts.refine_eps,
                        stagnation_factor=opts.refine_stagnation,
                        extra_precision=True)
                    if record(att, res):
                        return finish()
                except (ZeroDivisionError, FloatingPointError,
                        np.linalg.LinAlgError) as exc:
                    att.diagnoses.append(FailureDiagnosis(
                        FailureKind.NUMERICAL_SINGULARITY,
                        f"partial pivoting failed: {exc}"))
                    trigger = FailureKind.NUMERICAL_SINGULARITY
                    record(att)

            # ---- rung 7: preconditioned GMRES ------------------------- #
            with trace("recovery/gmres_ilu"):
                att = RungAttempt(rung="gmres_ilu", triggered_by=trigger,
                                  detail="ILU(0)-preconditioned GMRES")
                try:
                    from repro.iterative.precon_driver import (
                        PreconditionedSolver,
                    )

                    it = PreconditionedSolver(a)
                    kres = it.solve(b, method="gmres", tol=target,
                                    max_iter=min(500, 10 * n))
                    berr = componentwise_backward_error(a, kres.x, b)
                    res = RefinementResult(x=kres.x, berr=berr,
                                           steps=kres.iterations,
                                           berr_history=[berr],
                                           converged=kres.converged)
                    if record(att, res):
                        return finish()
                except (ZeroDivisionError, FloatingPointError,
                        np.linalg.LinAlgError) as exc:
                    att.diagnoses.append(FailureDiagnosis(
                        FailureKind.NUMERICAL_SINGULARITY,
                        f"ILU/GMRES failed: {exc}"))
                    record(att)

        return finish()


def _factor_health(solver: GESPSolver, n: int):
    """Factor diagnoses for one built solver (growth when available)."""
    try:
        growth = solver.pivot_growth()
    except NotImplementedError:
        growth = None
    return check_factors(solver.factors, n, pivot_growth=growth)
