"""Iterative refinement with the componentwise backward error (step (4)).

The stopping rule is the paper's, verbatim: iterate while the
componentwise backward error

    berr = max_i |b - A x|_i / (|A| |x| + |b|)_i

is above machine epsilon *and* still decreasing by at least a factor of
two per step (the second test guards against stagnation).  ``berr <= eps``
certifies that the computed x solves a system whose every nonzero entry
was perturbed by at most one ulp — "the answer is as accurate as the data
deserves".

Refinement also corrects the ``sqrt(eps)``-sized perturbations the tiny-
pivot replacement of step (3) introduced.

**What "converged" means at a stagnation stop** is decided here and
nowhere else: the iteration always aims for ``berr <= eps``, but a
stagnation stop at ``berr <= STAGNATION_SLACK * eps`` (two ulps per
entry instead of one) is reported as converged too.  From below
``2 * eps`` the factor-of-two progress test can only be passed by
reaching the target outright, so there it detects the rounding floor,
not a stalled iteration: the residual of row *i* carries
``(nnz_i + 1) * eps / 2`` of rounding relative to the berr denominator,
and on the testbed further corrections from such a stop wander between
0.7 and 1.4 ``eps`` with no trend.  Which solves land a few per cent
above ``eps`` rather than below is decided by summation order, not by
the quality of the factors; the iterates, ``berr`` and the step count
are the paper's rule's, unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import add, annotate, event, trace
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import abs_matvec, spmv

__all__ = [
    "RefinementResult",
    "STAGNATION_SLACK",
    "componentwise_backward_error",
    "iterative_refinement",
]

_EPS = float(np.finfo(np.float64).eps)
#: a stagnation stop within this factor of the target is converged
#: (module docstring); ``GESPSolver.solve_multi`` applies the same bar
STAGNATION_SLACK = 2.0


def componentwise_backward_error(a: CSCMatrix, x, b, extra_precision=False):
    """berr = max_i |b - Ax|_i / (|A||x| + |b|)_i  (Oettli-Prager).

    Rows where the denominator vanishes are skipped unless the residual
    there is also nonzero, in which case berr is infinite (the computed x
    cannot be the solution of any nearby system with that sparsity).
    With ``extra_precision`` the residual is accumulated in ``longdouble``
    (the paper's §5 "judicious amount of extra precision" extension).
    """
    x = np.asarray(x)
    b = np.asarray(b)
    if extra_precision:
        r = _residual_extended(a, x, b)
    else:
        r = b - spmv(a, x)
    denom = abs_matvec(a, x) + np.abs(b)
    berr = 0.0
    zero = denom == 0.0
    if np.any(zero) and np.any(np.abs(r[zero]) > 0):
        return np.inf
    nz = ~zero
    if np.any(nz):
        berr = float(np.max(np.abs(r[nz]) / denom[nz]))
    return berr


def _residual_extended(a: CSCMatrix, x, b):
    """b - A x accumulated in extended precision, rounded at the end."""
    is_complex = np.iscomplexobj(a.nzval) or np.iscomplexobj(x)
    ext = np.clongdouble if is_complex else np.longdouble
    out = np.complex128 if is_complex else np.float64
    xe = np.asarray(x).astype(ext)
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    acc = np.zeros(a.nrows, dtype=ext)
    np.add.at(acc, a.rowind, a.nzval.astype(ext) * xe[cols])
    return (np.asarray(b).astype(ext) - acc).astype(out)


@dataclass
class RefinementResult:
    """Outcome of :func:`iterative_refinement`.

    ``steps`` counts *corrections applied after the initial solve*:
    ``steps == 0`` means the first solution already passed the berr test
    and no correction was needed.  The paper's Figure 3 counts the
    initial solve's convergence check itself as one step, so its x-axis
    is ``steps + 1`` — use :attr:`figure3_steps` (also available on
    :class:`repro.driver.gesp_driver.SolveReport`) when comparing
    against the paper, and never mix the two conventions.
    """

    x: np.ndarray
    berr: float
    steps: int
    berr_history: list = field(default_factory=list)
    converged: bool = True

    @property
    def figure3_steps(self):
        """``steps`` in the paper's Figure-3 counting (initial solve's
        check = step 1)."""
        return self.steps + 1


def iterative_refinement(a: CSCMatrix, solve: Callable, b,
                         x0=None,
                         max_steps: int = 20,
                         eps: float = _EPS,
                         stagnation_factor: float = 2.0,
                         extra_precision: bool = False) -> RefinementResult:
    """Refine ``x`` with repeated ``x += solve(b - A x)``.

    Parameters
    ----------
    a:
        The *original* (unfactored, unpermuted) matrix.
    solve:
        A callable mapping a right-hand side to an approximate solution of
        ``A z = r`` using the (possibly perturbed) factors.
    b:
        Right-hand side.
    x0:
        Starting point; ``solve(b)`` when omitted.
    max_steps:
        Safety cap on refinement iterations.
    eps:
        Convergence target for berr (machine epsilon by default).
    stagnation_factor:
        Stop when ``berr > berr_prev / stagnation_factor`` (paper: 2).
    extra_precision:
        Compute residuals in extended precision (§5 extension).
    """
    with trace("refine"):
        res = _iterative_refinement(a, solve, b, x0, max_steps, eps,
                                    stagnation_factor, extra_precision)
        add("refine.steps", res.steps)
        annotate(converged=res.converged, berr=res.berr)
        for i, berr in enumerate(res.berr_history):
            event("berr", step=i, berr=berr)
        return res


def _iterative_refinement(a, solve, b, x0, max_steps, eps,
                          stagnation_factor, extra_precision):
    b = np.asarray(b)
    x = np.array(solve(b) if x0 is None else x0, copy=True)
    berr = componentwise_backward_error(a, x, b, extra_precision=extra_precision)
    history = [berr]
    steps = 0
    converged = berr <= eps
    if not np.isfinite(berr):
        # a non-finite backward error (overflowed solve, singular
        # factors) cannot be refined away — x + solve(r) only compounds
        # the garbage, so fail fast instead of looping max_steps times
        return RefinementResult(x=x, berr=berr, steps=0,
                                berr_history=history, converged=False)
    while berr > eps and steps < max_steps:
        if extra_precision:
            r = _residual_extended(a, x, b)
        else:
            r = b - spmv(a, x)
        dx = np.asarray(solve(r))
        x = x + dx
        steps += 1
        new_berr = componentwise_backward_error(a, x, b,
                                                extra_precision=extra_precision)
        history.append(new_berr)
        if new_berr <= eps:
            berr = new_berr
            converged = True
            break
        if new_berr > berr / stagnation_factor:
            # stagnation: keep the better iterate and stop
            if new_berr > berr:
                x = x - dx
                history.pop()
            else:
                berr = new_berr
            converged = berr <= STAGNATION_SLACK * eps
            break
        berr = new_berr
    return RefinementResult(x=x, berr=berr, steps=steps,
                            berr_history=history, converged=converged)
