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

**The rule is written once**, in :func:`refine_block`, and applied to
each column of an ``(n, k)`` block on its own: a column stops when *it*
is certified, stagnates or turns non-finite, whatever its batch-mates
are doing, so what a right-hand side gets back — iterate, ``berr``, step
count — does not depend on which block it travelled in.
:func:`iterative_refinement` is the width-1 view and
:meth:`repro.driver.gesp_driver.GESPSolver.solve_multi` the block view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import add, annotate, event, trace
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import abs_matvec, spmv

__all__ = [
    "MAX_STEPS",
    "RefinementResult",
    "STAGNATION_SLACK",
    "componentwise_backward_error",
    "iterative_refinement",
    "refine_block",
]

_EPS = float(np.finfo(np.float64).eps)
#: the paper's cap on the corrections one right-hand side gets
MAX_STEPS = 20
#: a stagnation stop within this factor of the target is converged
#: (module docstring); read by :func:`refine_block` and nowhere else
STAGNATION_SLACK = 2.0


def componentwise_backward_error(a: CSCMatrix, x, b, extra_precision=False):
    """berr = max_i |b - Ax|_i / (|A||x| + |b|)_i  (Oettli-Prager).

    Rows where the denominator vanishes are skipped unless the residual
    there is also nonzero, in which case berr is infinite (the computed x
    cannot be the solution of any nearby system with that sparsity).
    With ``extra_precision`` the residual is accumulated in ``longdouble``
    (the paper's §5 "judicious amount of extra precision" extension).
    """
    return _evaluate(a, np.asarray(x), np.asarray(b), extra_precision)[1]


def _evaluate(a, x, b, extra_precision):
    """One iterate, evaluated once: ``(r, berr)`` — the residual
    ``r = b - A x``, which is also the right-hand side of the next
    correction, and the backward error it gives.  ``x`` and ``b`` are one
    column: 1-D scatter-adds sum in the same order for a column of a
    block as for the same vector solved alone."""
    if extra_precision:
        r = _residual_extended(a, x, b)
    else:
        r = b - spmv(a, x)
    denom = abs_matvec(a, x) + np.abs(b)
    zero = denom == 0.0
    if np.any(zero) and np.any(np.abs(r[zero]) > 0):
        return r, np.inf
    nz = ~zero
    berr = float(np.max(np.abs(r[nz]) / denom[nz])) if np.any(nz) else 0.0
    return r, berr


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
                         max_steps: int = MAX_STEPS,
                         eps: float = _EPS,
                         extra_precision: bool = False) -> RefinementResult:
    """Refine ``x`` with repeated ``x += solve(b - A x)`` — the width-1
    view of :func:`refine_block` (``solve`` only ever sees vectors).

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
        Safety cap on refinement iterations (:data:`MAX_STEPS` by
        default); 0 evaluates the starting point and corrects nothing
        (the unrefined certificate).
    eps:
        Convergence target for berr (machine epsilon by default).
    extra_precision:
        Compute residuals in extended precision (§5 extension).
    """
    x, berr, steps, history, converged = refine_block(
        a, lambda r: np.asarray(solve(r[:, 0]))[:, None],
        np.asarray(b)[:, None],
        None if x0 is None else np.asarray(x0)[:, None],
        max_steps, eps, extra_precision)
    return RefinementResult(x=x[:, 0], berr=float(berr[0]),
                            steps=int(steps[0]), berr_history=history[0],
                            converged=bool(converged[0]))


def refine_block(a: CSCMatrix, solve: Callable, b, x0=None,
                 max_steps: int = MAX_STEPS, eps: float = _EPS,
                 extra_precision: bool = False):
    """Step (4) for an ``(n, k)`` block ``b``: the paper's rule, applied
    to each column on its own.

    ``solve`` maps an ``(n, j)`` block of right-hand sides to approximate
    solutions.  It runs once on ``b`` (unless ``x0`` gives the starting
    block) and then once per sweep, on the residuals of the columns still
    being refined.  A column leaves that set when its ``berr`` meets
    ``eps``; when it stagnates (``berr > berr_prev / 2``, it failed to
    halve: a correction that made it worse is dropped, for that column
    only, and a stop within :data:`STAGNATION_SLACK` of ``eps`` counts as
    converged); after ``max_steps`` corrections (:data:`MAX_STEPS` by
    default); or at once when its ``berr`` is non-finite.  So where
    ``solve`` treats the columns of a block independently, column *t*
    comes back bit for bit as the same right-hand side refined alone.

    Returns ``(x, berr, steps, history, converged)``: the ``(n, k)``
    solutions and, per column, the berr of the returned iterate, the
    corrections computed for it, the berr of every iterate it kept, and
    whether it met its bar.  Runs inside a ``refine`` span that counts
    ``refine.steps`` (summed over the columns) and logs one ``berr`` event
    per history entry, column after column (``step`` restarts at 0).
    """
    with trace("refine"):
        b = np.asarray(b)
        x = np.asarray(solve(b) if x0 is None else x0)
        k = b.shape[1]
        xs = [np.array(x[:, t]) for t in range(k)]
        rs, berr = [None] * k, [None] * k
        for t in range(k):
            rs[t], berr[t] = _evaluate(a, xs[t], b[:, t], extra_precision)
        history = [[v] for v in berr]
        steps = np.zeros(k, dtype=np.int64)
        bar = np.full(k, eps)
        # a non-finite backward error (overflowed solve, singular
        # factors) cannot be refined away — x + solve(r) only compounds
        # the garbage — so such a column is never corrected
        active = [t for t in range(k)
                  if np.isfinite(berr[t]) and berr[t] > eps]
        sweeps = 0
        while active and sweeps < max_steps:
            dx = np.asarray(solve(np.column_stack([rs[t] for t in active])))
            sweeps += 1
            steps[active] += 1
            halving = []
            for j, t in enumerate(active):
                x_new = xs[t] + dx[:, j]
                r_new, new = _evaluate(a, x_new, b[:, t], extra_precision)
                stalled = new > eps and new > berr[t] / 2
                if not (stalled and new > berr[t]):
                    # (a stalled correction that made things worse is
                    # dropped: the column keeps its better iterate)
                    xs[t], rs[t], berr[t] = x_new, r_new, new
                    history[t].append(new)
                if stalled:
                    bar[t] = STAGNATION_SLACK * eps
                elif new > eps:
                    halving.append(t)
            active = halving
        berr = np.array(berr, dtype=np.float64)
        converged = berr <= bar
        add("refine.steps", int(steps.sum()))
        annotate(converged=bool(converged.all()),
                 berr=float(berr.max(initial=0.0)))
        for column in history:
            for i, value in enumerate(column):
                event("berr", step=i, berr=value)
        x = np.column_stack(xs) if k else x
        return x, berr, steps, history, converged
