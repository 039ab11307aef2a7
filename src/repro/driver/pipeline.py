"""One analysis pipeline, two numeric back ends.

The paper's idea is one sentence — decide every static thing once per
sparsity pattern (Figure 1 steps (1)-(2) plus the symbolic analysis),
then only move numbers.  This module is where that is written down, once:

- :func:`scale_and_match` is step (1), ``Pr·Dr·A·Dc``;
- :func:`preprocess` is steps (1)-(2) plus the fact-mode decision:

  *Transforms (``dr``, ``dc``, ``perm_r``) come from the plan iff
  ``fact == "SAME_PATTERN_SAME_ROWPERM"``, otherwise they are recomputed.
  Structures (``perm_c``, the value map, the symbolic factorization and
  whatever the back end derives from it) are reused iff a plan is
  present and its ``perm_r`` equals the one in hand, otherwise they are
  recomputed and counted as a miss.*

  In every mode the values of ``Pc·Pr·Dr·A·Dc·Pcᵀ`` come out of the one
  :class:`~repro.sparse.ops.ValueMap` formula, so a reused plan moves
  numbers with a gather and two multiplies, and ``SAME_PATTERN`` equals
  a cold run bit for bit by construction.

- :class:`PatternSolver` is the template both drivers instantiate:
  construction, :meth:`~PatternSolver.refactor`, the plan / cache /
  tracer plumbing, the right-hand-side transform and the step-(4)
  :class:`SolveReport`.  :class:`~repro.driver.gesp_driver.GESPSolver`
  and :class:`~repro.driver.dist_driver.DistributedGESPSolver` supply
  only a plan key, a symbolic step and a numeric step.

Every stage runs inside a :mod:`repro.obs` span (``equil`` / ``rowperm``
/ ``colperm`` / ``symbolic``); a stage that only applies a stored
transform to new values is annotated ``reused=True``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
import numpy as np

from repro.driver.factcache import FACTOR_CACHE, PatternPlan
from repro.obs import Tracer, add, annotate, get_tracer, trace, use_tracer
from repro.ordering.etree import etree_symmetric, postorder
from repro.ordering.mmd import column_ordering
from repro.scaling.equilibrate import equilibrate
from repro.scaling.mc64 import mc64
from repro.solve.refine import iterative_refinement
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import (
    PatternMismatchError,
    ValueMap,
    pattern_fingerprint,
    pattern_union_transpose,
    permute_rows,
    permute_symmetric,
    scale_cols,
    scale_rows,
)

__all__ = ["REUSE_FACTS", "PatternSolver", "SolveReport",
           "scale_and_match", "preprocess"]

REUSE_FACTS = ("SAME_PATTERN", "SAME_PATTERN_SAME_ROWPERM")


@dataclass
class SolveReport:
    """Everything a benchmark wants to know about one solve.

    ``x``, ``berr``, ``refine_steps``, ``berr_history`` and
    ``converged`` are :func:`repro.solve.refine.iterative_refinement`'s,
    and a function of ``(A, b)`` alone — the same right-hand side gets
    the same five whether it is solved by itself or as a column of a
    ``solve_multi`` block.  ``converged``: ``berr`` met
    ``options.refine_eps``, or refinement stagnated within
    :data:`~repro.solve.refine.STAGNATION_SLACK` of it.
    ``failure`` (a :class:`repro.recovery.health.FailureDiagnosis`) and
    ``recovery`` (a :class:`repro.recovery.ladder.RecoveryReport`) are
    filled by the recovery ladder: when a solve could not be certified,
    ``converged`` is False and ``failure`` says why; when the ladder had
    to escalate, ``recovery`` records every rung attempted.
    """

    x: np.ndarray
    berr: float
    refine_steps: int
    berr_history: list = field(default_factory=list)
    converged: bool = True
    forward_error_estimate: float | None = None
    failure: object | None = None
    recovery: object | None = None

    @property
    def steps(self):
        """``refine_steps``, under the name
        :class:`~repro.solve.refine.RefinementResult` gives it."""
        return self.refine_steps

    @property
    def figure3_steps(self):
        """Refinement steps in the paper's Figure-3 counting: the initial
        solve's convergence check is step 1 (``refine_steps + 1``)."""
        return self.refine_steps + 1


# ---------------------------------------------------------------------- #
# steps (1)-(2)
# ---------------------------------------------------------------------- #

def scale_and_match(a, *, equil=True, row_perm="mc64_product",
                    scale_diagonal=True):
    """Figure 1 step (1): ``(Pr·Dr·A·Dc, dr, dc, perm_r)``.

    Equilibrates (``equil`` stage), then permutes large entries to the
    diagonal with MC64 and folds its scalings in (``rowperm`` stage).
    """
    n = a.ncols
    with trace("equil"):
        if equil:
            eq = equilibrate(a)
            a, dr, dc = eq.apply(a), eq.dr.copy(), eq.dc.copy()
        else:
            dr, dc = np.ones(n), np.ones(n)
    with trace("rowperm"):
        if row_perm == "none":
            perm_r = np.arange(n, dtype=np.int64)
        else:
            job = row_perm.removeprefix("mc64_")
            scale = scale_diagonal and job == "product"
            res = mc64(a, job=job, scale=scale)
            perm_r = res.perm_r
            if scale:
                dr = dr * res.dr
                dc = dc * res.dc
                a = scale_cols(scale_rows(a, res.dr), res.dc)
            a = permute_rows(a, perm_r)
    return a, dr, dc, perm_r


def _order_columns(a, col_perm, etree_postorder):
    """Figure 1 step (2): the fill-reducing ordering ``perm_c`` of the
    row-permuted matrix ``a`` (applied symmetrically, by the value map).
    ``etree_postorder`` composes the postorder of the symmetrized
    pattern's elimination tree into it — it makes supernode chains
    index-contiguous without changing fill (an equivalent reordering),
    which the block-cyclic layout needs."""
    perm_c = column_ordering(a, method=col_perm)
    if etree_postorder:
        post = postorder(etree_symmetric(pattern_union_transpose(
            permute_symmetric(a, perm_c))))
        perm_c = post[perm_c]
    return perm_c


def preprocess(a, options, plan=None, fact="DOFACT", *, col_perm=None,
               etree_postorder=False):
    """Steps (1)-(2) of Figure 1 under a fact mode (the rule in the
    module docstring, as straight-line code).  ``col_perm`` is the
    ordering the engine resolved ``options.col_perm`` to
    (:meth:`PatternSolver.resolve_col_perm`; by default the serial
    engine's resolution).

    Returns ``(at, dr, dc, perm_r, perm_c, value_map, reused)``: the
    transformed matrix ``Pc·Pr·Dr·A·Dc·Pcᵀ``, the transforms, the map
    that produced its values, and whether the plan's structures are
    still valid for it.  ``plan`` is the
    :class:`~repro.driver.factcache.PatternPlan` to reuse from (``None``
    for a cold run; required by the two reuse modes).  Counts
    ``factor.reuse_hits`` when the plan's structures survive and
    ``factor.reuse_misses`` — with a
    ``reuse_downgraded="row_perm_changed"`` annotation — when new values
    moved the MC64 matching, so the cached ordering no longer describes
    what a cold run computes.
    """
    if fact == "SAME_PATTERN_SAME_ROWPERM":
        for name in ("equil", "rowperm"):
            with trace(name):
                annotate(reused=True)
        row_permuted, dr, dc, perm_r = None, plan.dr, plan.dc, plan.perm_r
    else:
        row_permuted, dr, dc, perm_r = scale_and_match(
            a, equil=options.equilibrate, row_perm=options.row_perm,
            scale_diagonal=options.scale_diagonal)
    reused = plan is not None and (
        perm_r is plan.perm_r or np.array_equal(perm_r, plan.perm_r))
    if reused:
        add("factor.reuse_hits", 1)
    elif plan is not None:
        add("factor.reuse_misses", 1)
        annotate(reuse_downgraded="row_perm_changed")
    with trace("colperm"):
        if reused:
            annotate(reused=True)
            perm_c, value_map = plan.perm_c, plan.value_map
        else:
            perm_c = _order_columns(
                row_permuted,
                col_perm or PatternSolver.resolve_col_perm(options),
                etree_postorder)
            value_map = ValueMap(a, perm_r, perm_c)
        at = value_map.apply(a, dr, dc)
    return at, dr, dc, perm_r, perm_c, value_map, reused


# ---------------------------------------------------------------------- #
# the solver template
# ---------------------------------------------------------------------- #

def _per_row(scale, block):
    """``scale`` shaped to multiply ``block`` (n or n × nrhs) row-wise."""
    return scale if block.ndim == 1 else scale[:, None]


class PatternSolver:
    """What the serial and the distributed driver share.

    A back end sets ``a`` and ``options``, calls :meth:`_open`, and
    supplies three hooks:

    - ``_plan_key(fingerprint)`` — its :mod:`~repro.driver.factcache` key
      (which carries the resolved ``col_perm``);
    - ``_symbolic_step(at, plan)`` — the structures it derives from the
      pattern of ``at`` (taken from ``plan`` when that is not None), as a
      dict of attribute values;
    - ``_numeric_step(at, structures, reused)`` — its value-dependent
      step (3), as a dict of attribute values;

    plus ``_plan_extras()`` (the structures again, as
    :class:`~repro.driver.factcache.PatternPlan` fields).  Nothing is
    assigned to the solver until the numeric step has returned, so a
    factorization that raises leaves the previous one fully in place.
    """

    #: what ``options.col_perm=None`` orders: minimum degree on Aᵀ+A,
    #: the graph the symmetrized analysis eliminates
    _COL_PERM = "mmd_at_plus_a"
    #: compose the etree postorder into ``perm_c`` (distributed layout)
    _ETREE_POSTORDER = False

    @classmethod
    def resolve_col_perm(cls, options):
        """The step-(2) ordering this engine runs under ``options``: an
        explicit ``col_perm``, else the engine's own."""
        return options.col_perm or cls._COL_PERM

    def _open(self, tracer, cache):
        """Validate, resolve tracer and cache, run the first build."""
        if self.a.nrows != self.a.ncols:
            raise ValueError(
                f"{type(self).__name__} requires a square matrix")
        self.options.validate()
        fact = self.options.fact
        if fact == "FACTORED":
            raise ValueError(
                "fact='FACTORED' asserts the existing factors are current; "
                "it is only valid on refactor(), not on construction")
        if tracer is None and get_tracer().enabled:
            tracer = get_tracer()
        self.tracer = tracer
        self._own_tracer = tracer is None
        self._cache = (FACTOR_CACHE if cache is None
                       else None if cache is False else cache)
        fingerprint = pattern_fingerprint(self.a)
        with self._recording(build=True):
            plan = None
            if fact in REUSE_FACTS and self._cache is not None:
                plan = self._cache.lookup(self._plan_key(fingerprint))
                if plan is None:
                    # nothing cached for this pattern yet: fall back to a
                    # cold factorization and seed the cache for the next
                    add("factor.reuse_misses", 1)
            self._factor_from(self.a, plan,
                              fact if plan is not None else "DOFACT",
                              fingerprint)

    @contextmanager
    def _recording(self, build=False):
        """Install, and yield, the tracer an operation records into.

        A solver that was handed a tracer (the argument, or an enabled
        ambient tracer at construction) records everything there.  One
        that was not holds the spans of its *latest build only*: a build
        starts a fresh private tracer — so ``tracer`` describes the
        factorization now resident, and nothing accumulates
        over the solver's lifetime — and a solve records into the calling
        thread's ambient tracer (the no-op one unless the caller enabled
        tracing), so threads sharing the solver share no span stack.
        """
        if not self._own_tracer:
            tracer = self.tracer
        elif build:
            tracer = self.tracer = Tracer(name="gesp")
        else:
            tracer = get_tracer()
        with use_tracer(tracer):
            yield tracer

    def _factor_from(self, a, plan, fact, fingerprint):
        """Run the pipeline on ``a`` reusing ``plan`` per ``fact``, then
        commit matrix, fingerprint, transforms, structures and numeric
        state together and publish the resulting plan."""
        at, dr, dc, perm_r, perm_c, value_map, reused = preprocess(
            a, self.options, plan, fact,
            col_perm=self.resolve_col_perm(self.options),
            etree_postorder=self._ETREE_POSTORDER)
        with trace("symbolic"):
            if reused:
                annotate(reused=True)
            state = self._symbolic_step(at, plan if reused else None)
        state.update(self._numeric_step(at, state, reused))
        state.update(a=a, _fingerprint=fingerprint, a_factored=at,
                     perm_r=perm_r, perm_c=perm_c, dr=dr, dc=dc,
                     _value_map=value_map)
        self.__dict__.update(state)
        self._publish_plan()

    def refactor(self, a_new: CSCMatrix, fact: str | None = None):
        """Refactor for new values on the same sparsity pattern.

        The SamePattern fast path (SuperLU_DIST's ``Fact`` ancestry):
        every structure derived by the first factorization is reused and
        only the value-dependent work re-runs.  Runs under a ``refactor``
        span and bumps ``factor.reuse_hits`` / ``factor.reuse_misses``.

        Parameters
        ----------
        a_new:
            The new matrix.  For the reuse modes it must match this
            solver's sparsity pattern exactly
            (:class:`~repro.sparse.ops.PatternMismatchError` otherwise).
        fact:
            Reuse mode for this refactorization:

            - ``"SAME_PATTERN_SAME_ROWPERM"`` (default, unless the
              solver's options request a specific reuse mode) — reuse
              Dr/Dc/perm_r/perm_c and the symbolic factorization; only
              the numeric step runs;
            - ``"SAME_PATTERN"`` — recompute equilibration and MC64,
              verify the row permutation still matches, then reuse the
              ordering and symbolic analysis; bit-identical to a cold
              factorization of ``a_new``;
            - ``"FACTORED"`` — keep the existing factors untouched and
              only swap in ``a_new`` (refinement then corrects the
              value drift, like the paper's tiny-pivot perturbations);
            - ``"DOFACT"`` — full cold rebuild (the pattern may change).

        If the factorization raises, the solver keeps its previous
        matrix, transforms and factors.  Returns ``self`` (factored and
        ready to solve).
        """
        name = type(self).__name__
        if a_new.nrows != a_new.ncols:
            raise ValueError(f"{name} requires a square matrix")
        if a_new.ncols != self.a.ncols:
            raise ValueError("refactor requires a matrix of the same order")
        if fact is None:
            fact = (self.options.fact if self.options.fact in REUSE_FACTS
                    else "SAME_PATTERN_SAME_ROWPERM")
        if fact not in ("DOFACT", "FACTORED") + REUSE_FACTS:
            raise ValueError(f"unknown fact {fact!r}")
        fp = pattern_fingerprint(a_new)
        if fact != "DOFACT" and fp != self._fingerprint:
            raise PatternMismatchError(
                expected=self._fingerprint, got=fp,
                where=f"{name}.refactor", n=a_new.ncols, nnz=a_new.nnz)
        with self._recording(build=fact != "FACTORED") as tracer, \
                tracer.span("refactor", fact=fact):
            if fact == "FACTORED":
                # stale factors as a preconditioner: refinement on the
                # new A absorbs the value drift (paper step (4))
                annotate(kept_factors=True)
                add("factor.reuse_hits", 1)
                self.a = a_new
            else:
                # the solver's own state is the plan: refactor never
                # depends on the module cache surviving eviction
                plan = None if fact == "DOFACT" else self._instance_plan()
                self._factor_from(a_new, plan, fact, fp)
        return self

    # ------------------------------------------------------------------ #
    # plan plumbing
    # ------------------------------------------------------------------ #

    def _instance_plan(self):
        """This solver's current state as a plan."""
        return PatternPlan(
            fingerprint=self._fingerprint,
            key=self._plan_key(self._fingerprint),
            perm_r=self.perm_r, perm_c=self.perm_c, dr=self.dr, dc=self.dc,
            value_map=self._value_map, symbolic=self.symbolic,
            **self._plan_extras())

    def _publish_plan(self):
        if self._cache is not None:
            self._cache.store(self._instance_plan())

    # ------------------------------------------------------------------ #
    # solves
    # ------------------------------------------------------------------ #

    def _to_factored(self, b):
        """Apply Dr, Pr, Pc to a right-hand side (1-D or n × nrhs):
        ``c[pc[pr[i]]] = dr[i] · b[i]``."""
        b = np.asarray(b)
        c = np.empty(b.shape,
                     dtype=np.result_type(self.a.nzval, b, np.float64))
        c[self.perm_c[self.perm_r]] = _per_row(self.dr, b) * b
        return c

    def _from_factored(self, z):
        """Undo Pc and Dc on a solution of the factored system:
        ``x[i] = dc[i] · z[pc[i]]``."""
        return _per_row(self.dc, z) * z[self.perm_c]

    def _refinement(self, refine, max_steps=None):
        """Step (4)'s arguments from the options.  ``refine=False`` is a
        cap of zero corrections: the first solve, certified like any
        other iterate."""
        opts = self.options
        if not (opts.refine if refine is None else refine):
            max_steps = 0
        elif max_steps is None:
            max_steps = opts.refine_max_steps
        return dict(max_steps=max_steps, eps=opts.refine_eps,
                    stagnation_factor=opts.refine_stagnation,
                    extra_precision=opts.extra_precision_residual)

    def _solve_report(self, solve_once, b, refine) -> SolveReport:
        """Step (4): ``solve_once`` wrapped in iterative refinement on
        the original ``A``."""
        res = iterative_refinement(self.a, solve_once, b,
                                   **self._refinement(refine))
        return SolveReport(x=res.x, berr=res.berr, refine_steps=res.steps,
                           berr_history=res.berr_history,
                           converged=res.converged)
