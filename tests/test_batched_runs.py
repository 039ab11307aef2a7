"""Independent width-1 supernodes are eliminated together, in level
order (:func:`repro.factor.blockplan.build_block_plan` cuts the
elimination into steps, :func:`repro.kernels.run_steps` runs them).

Promises enforced here:

1. the batched schedule ≡ the schedule with every supernode taken alone
   — the loop as it was before batching — in ``values``, ``flops``,
   ``n_tiny_pivots``, ``perturbed_columns`` and ``pivot_deltas``, over a
   hypothesis sweep of patterns × {float64, complex128};
2. a tiny pivot *inside* a batched step is replaced and recorded as it
   was alone (sign kept; phase kept for complex), the record stays in
   column order when steps run out of supernode order, two members of a
   step that update one entry apply their updates in supernode order,
   and a zero pivot inside a step with replacement off raises
   ``ZeroDivisionError`` and leaves a solver's previous factors intact;
3. the schedule's invariants: every supernode runs once, batched members
   are width-1, independent and after every supernode reaching into
   them, supernodes whose ``S_K`` share a row run in ascending order,
   block-pivoting plans have no batched step, the index is ``int32``
   views of one allocation per field;
4. the ``kernel.*`` counters of one factorization of cfd06 / kkt02 are
   the values recorded before batching (their calls are counted from the
   plan's static totals);
5. one step list, one resolver (``kernels.bind_steps``) and one runner
   (``kernels.run_steps``) for both engines: a supernode taken alone
   runs from the plan's ``Step`` off the ops bit for bit the ops —
   values, replaced pivots and their deltas, flops and every
   ``KernelStats`` field — on the bench patterns and over the testbed
   (a kept ``dgetrf``, an interchange, a tiny pivot, a NaN, a partial
   update grid, a zero pivot that raises), and so does a step one column
   wide on both engines (a tiny, a NaN and a zero pivot); the 2 × 2
   layout's sweep is its rank programs with the same runner, float32,
   complex, no LAPACK / BLAS and the block-pivoting engine call the ops,
   and a pickled plan leaves its step lists out;
6. a factorization refills a store the plan keeps, its step list
   resolved once per store: a warm refactor resolves nothing and gathers
   no L or U; earlier factors are unchanged by later factorizations (one
   raising), threads factoring one cached plan get their serial
   bits, pickles and copies hold no store, real and complex values do
   not share one; ``l`` / ``u`` read later are the eager gather, and
   what reads them (pivot growth, transpose solves, the health check)
   reads as before.
"""

import pickle
import sys
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.driver import FactorizationCache, GESPOptions, GESPSolver
from repro.factor import blockplan, supernodal_factor
from repro.factor.gesp import GESPFactors
from repro.factor.supernodal import SupernodalFactors
from repro.factor.blockplan import build_block_plan, supernode_row_sets
from repro.factor.blockpivot import supernodal_factor_block_pivoting
from repro.matrices import matrix_by_name, testbed_53
from repro.obs import Tracer, use_tracer
from repro.recovery import FailureKind, check_factors
from repro.sparse import CSCMatrix
from repro.symbolic import block_partition, symbolic_lu_symmetrized

from conftest import primitive_partition
from test_block_engine import _random_system, shapes
from test_kernels import needs_blas

EPS = float(np.finfo(np.float64).eps)


def _plan(a, **partition):
    sym = symbolic_lu_symmetrized(a)
    return build_block_plan(a, sym, primitive_partition(sym, **partition))


def _alone(plan):
    """``plan`` with every supernode taken alone, in order."""
    return replace(plan, runs=[(range(plan.part.nsuper), None)])


def _batched(plan):
    return [(members, run) for members, run in plan.runs if run is not None]


def _assert_same_factorization(f, g):
    assert f.values.dtype == g.values.dtype
    assert np.array_equal(f.values, g.values)
    assert f.flops == g.flops
    assert f.n_tiny_pivots == g.n_tiny_pivots
    assert np.array_equal(f.perturbed_columns, g.perturbed_columns)
    assert f.pivot_deltas.dtype == g.pivot_deltas.dtype
    assert np.array_equal(f.pivot_deltas, g.pivot_deltas)


def _with_values(a, nzval):
    return CSCMatrix(a.nrows, a.ncols, a.colptr, a.rowind, nzval,
                     check=False)


def _arrow(leaves, dtype=np.float64):
    """``leaves`` columns that each couple only to the last two.  The
    last leaf joins the corner's supernode; the others are one batched
    step whose members all update the same 2×2 corner."""
    n = leaves + 2
    d = np.zeros((n, n), dtype=dtype)
    rng = np.random.default_rng(leaves)
    d[-2:, :] = rng.standard_normal((2, n))
    d[:, -2:] = rng.standard_normal((n, 2))
    d[np.arange(n), np.arange(n)] = 4.0 + np.arange(n)
    if np.issubdtype(dtype, np.complexfloating):
        d = d * np.exp(1j * rng.random((n, n)))
    return d


def _csc_keeping(d, mask):
    """``d`` as CSC storing exactly ``mask`` (explicit zeros kept)."""
    rows = np.nonzero(mask.T)[1]
    colptr = np.concatenate(([0], np.cumsum(mask.sum(axis=0))))
    return CSCMatrix(d.shape[0], d.shape[1], colptr, rows, d.T[mask.T])


# --------------------------------------------------------------------- #
# 1. batched ≡ every supernode alone
# --------------------------------------------------------------------- #

@given(dtype=st.sampled_from([np.float64, np.complex128]),
       **shapes)
@settings(max_examples=150, deadline=None)
def test_batched_schedule_equals_the_sequential_loop_property(
        dtype, n, density, hole, max_block, relax, seed):
    a, _ = _random_system(n, density, hole, seed)
    values = a.nzval.astype(dtype)
    if dtype is np.complex128:
        values = values * np.exp(1j * np.random.default_rng(seed).random(
            values.size))
    a = _with_values(a, values)
    plan = _plan(a, max_size=max_block, relax=relax)
    for scale in (None, 1e-3):      # the paper's threshold, and a busy one
        _assert_same_factorization(
            supernodal_factor(a, plan=plan, tiny_pivot_scale=scale),
            supernodal_factor(a, plan=_alone(plan), tiny_pivot_scale=scale))


def test_batched_schedule_equals_the_sequential_loop_on_the_testbed(testbed):
    """All 53 matrices as step (3) sees them, and byte for byte."""
    batched = 0
    for name, (_, _, solver) in testbed.items():
        a, plan = solver.a_factored, solver._block_plan
        batched += len(_batched(plan))
        f = supernodal_factor(a, plan=plan)
        g = supernodal_factor(a, plan=_alone(plan))
        _assert_same_factorization(f, g)
        assert f.values.tobytes() == g.values.tobytes(), name
    assert batched > 53


# --------------------------------------------------------------------- #
# 2. tiny pivots, shared targets and zero pivots inside a step
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_tiny_pivots_inside_a_run_are_replaced_as_alone(dtype):
    d = _arrow(6, dtype)
    mask = d != 0
    phase = np.exp(0.7j) if dtype is np.complex128 else 1.0
    d[1, 1], d[2, 2], d[4, 4] = 0.0, -1e-30 * phase, 1e-30 * phase
    a = _csc_keeping(d, mask)
    plan = _plan(a)
    (members, run), = _batched(plan)
    assert members == [0, 1, 2, 3, 4] and plan.part.nsuper == 6
    f = supernodal_factor(a, plan=plan)
    _assert_same_factorization(f, supernodal_factor(a, plan=_alone(plan)))
    assert f.perturbed_columns.tolist() == [1, 2, 4]
    assert f.values.dtype == f.pivot_deltas.dtype == dtype
    t = f.tiny_pivot_threshold
    new = f.values[run.dpos[[1, 2, 4]]]
    # ±thresh with the old pivot's sign (phase), +thresh for a zero one
    assert np.allclose(new, np.array([1, -phase, phase]) * t, rtol=1e-6)
    assert np.allclose(f.pivot_deltas, new - d[[1, 2, 4], [1, 2, 4]])
    # ... and L U = A + Σ δ_j e_j e_jᵀ still holds with them
    l, u = (m.to_dense() for m in f.to_csc_factors())
    d[f.perturbed_columns, f.perturbed_columns] += f.pivot_deltas
    eps = float(np.finfo(dtype).eps)
    assert np.all(np.abs(l @ u - d) <= 64 * eps * (np.abs(l) @ np.abs(u)))


def test_the_tiny_pivot_record_keeps_column_order_across_steps():
    """Supernode 2 (column 3) joins the batched step of supernode 0, so
    it runs before the wide supernode 1 (columns 1-2): both replace a
    pivot, and the record still lists them by column, as alone."""
    d = np.diag([4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    d[1, 2], d[2, 1] = 1.0, 2.0
    for i, j in ((0, 5), (1, 4), (2, 4), (3, 5), (4, 5)):
        d[i, j], d[j, i] = 0.5 + i, 0.25 + j
    mask = d != 0
    d[1, 1] = d[3, 3] = 0.0
    a = _csc_keeping(d, mask)
    plan = _plan(a)
    assert plan.part.xsup.tolist() == [0, 1, 3, 4, 6]
    assert [members for members, _ in plan.runs] == [[0, 2], [1], [3]]
    f = supernodal_factor(a, plan=plan)
    _assert_same_factorization(f, supernodal_factor(a, plan=_alone(plan)))
    assert f.perturbed_columns.tolist() == [1, 3]


def test_members_sharing_a_target_update_it_in_supernode_order():
    d = _arrow(9)
    a = CSCMatrix.from_dense(d)
    plan = _plan(a)
    (members, run), = _batched(plan)
    assert members == list(range(8))
    # every member updates the same four corner entries
    assert run.tgt.size == 8 * 4 and np.unique(run.tgt).size == 4
    f = supernodal_factor(a, plan=plan)
    _assert_same_factorization(f, supernodal_factor(a, plan=_alone(plan)))
    # the last block as the sequential loop leaves it: one subtraction
    # per leaf, in order (a sum in any other order differs in the last
    # bits), then its own LU
    last = d[8:, 8:].copy()
    for k in range(8):
        last -= np.outer(d[8:, k] / d[k, k], d[k, 8:])
    kernels.lu_nopivot(last, 0.0)
    assert np.array_equal(f.diag[-1], last)


def test_zero_pivot_inside_a_run_without_replacement_raises():
    d = _arrow(6)
    mask = d != 0
    d[3, 3] = 0.0
    a = _csc_keeping(d, mask)
    plan = _plan(a)
    assert _batched(plan)[0][0] == [0, 1, 2, 3, 4]
    for p in (plan, _alone(plan)):
        with pytest.raises(ZeroDivisionError, match="zero pivot"):
            supernodal_factor(a, plan=p, replace_tiny_pivots=False)
    f = supernodal_factor(a, plan=plan)           # replaced when allowed
    assert f.perturbed_columns.tolist() == [3]


def test_failed_batched_refactor_leaves_solver_intact():
    """A zero pivot inside a batched step, replacement off: the
    refactorization raises and the solver still answers for the matrix
    it held."""
    a = matrix_by_name("cfd03").build()
    s = GESPSolver(a, GESPOptions(replace_tiny_pivots=False), cache=False)
    members, _ = max(_batched(s._block_plan), key=lambda r: len(r[0]))
    k = members[len(members) // 2]      # a member of the widest step
    col = int(np.flatnonzero(s.perm_c == s._block_plan.part.xsup[k])[0])
    row = int(np.flatnonzero(s.perm_r == col)[0])
    nzval = a.nzval.copy()
    lo, hi = a.colptr[col], a.colptr[col + 1]
    at = lo + int(np.flatnonzero(a.rowind[lo:hi] == row)[0])
    nzval[at] = 0.0
    before = s.factors
    with pytest.raises(ZeroDivisionError, match="zero pivot"):
        s.refactor(_with_values(a, nzval))
    assert s.a is a and s.factors is before
    rep = s.solve(a @ np.ones(a.ncols))
    assert rep.converged and rep.berr <= 8 * EPS


# --------------------------------------------------------------------- #
# 3. the schedule
# --------------------------------------------------------------------- #

def _check_runs(plan):
    ns, width = plan.part.nsuper, np.diff(plan.part.xsup)
    supno = plan.part.supno()
    seq = [k for members, _ in plan.runs for k in members]
    assert sorted(seq) == list(range(ns))               # each one once
    step, at = np.empty(ns, int), np.empty(ns, int)
    for s, (members, _) in enumerate(plan.runs):
        step[list(members)] = s
    at[seq] = np.arange(ns)
    # every supernode reaching into I ran in an earlier step
    for k, rows in enumerate(plan.s_rows):
        assert (step[supno[rows]] > step[k]).all()
    # two supernodes whose S_K share a row run in ascending order
    ks = np.repeat(np.arange(ns), [s.size for s in plan.s_rows])
    rows = np.concatenate([*plan.s_rows, np.zeros(0, int)])
    o = np.lexsort((ks, rows))
    same = np.diff(rows[o]) == 0
    assert (np.diff(at[ks[o]])[same] > 0).all()
    for members, run in _batched(plan):
        members = np.array(members)
        assert members.size > 1 and (width[members] == 1).all()
        assert all(plan.selection[k] is None for k in members)
        reached = supno[np.concatenate([plan.s_rows[k] for k in members])]
        assert not np.isin(reached, members).any()      # independent
        m = np.array([plan.s_rows[k].size for k in members])
        assert np.array_equal(run.dpos, np.array(plan.bounds)[3 * members])
        assert run.bpos.size == run.bpiv.size == m.sum()
        assert run.lpos.size == run.upos.size == run.tgt.size == (m * m).sum()
        assert np.array_equal(run.tgt, np.concatenate(
            [plan.targets[k] for k in members]))
        for index in run[:6]:
            assert index.dtype == np.int32
        assert run.tgt.base is plan.targets[0].base     # no second copy
        assert run.counts.lu_calls == members.size
        assert run.counts.gemm_calls == np.count_nonzero(m)
        assert run.counts.trsm_calls == 2 * run.counts.gemm_calls
        assert run.counts.trsm_flops == 2 * m.sum()
        assert run.counts.gemm_flops == 2 * (m * m).sum()
        assert run.counts.lu_flops == 0


def test_run_invariants_over_the_testbed(testbed):
    for name, (_, _, solver) in testbed.items():
        _check_runs(solver._block_plan)


@given(**shapes)
@settings(max_examples=60, deadline=None)
def test_run_invariants_property(n, density, hole, max_block, relax, seed):
    a, _ = _random_system(n, density, hole, seed)
    _check_runs(_plan(a, max_size=max_block, relax=relax))


def test_the_bench_patterns_batch_what_was_sized(testbed):
    """Supernodes / loop iterations (steps) / supernodes batched, as
    docs/REFACTORIZATION.md tabulates them: on the solver's plan (the
    partition rule) and on the unrelaxed partition, composed from the
    primitives — under minimum degree on AᵀA (the rows sized before the
    serial default changed) and under the default (Aᵀ+A)."""
    for name, col_perm, rule, unrelaxed in (
            ("cfd06", "mmd_ata", (449, 128, 337), (612, 120, 528)),
            ("resv02", "mmd_ata", (172, 56, 124), (248, 72, 201)),
            ("hb02", "mmd_ata", (397, 49, 363), (424, 58, 387)),
            ("circuit03", "mmd_ata", (245, 31, 226), (261, 38, 237)),
            ("kkt02", "mmd_ata", (27, 18, 11), (40, 28, 17)),
            ("cfd06", None, (781, 78, 719), (790, 84, 724)),
            ("resv02", None, (344, 41, 315), (348, 42, 320)),
            ("hb02", None, (459, 28, 445), (462, 29, 447)),
            ("circuit03", None, (304, 31, 290), (304, 31, 290)),
            ("kkt02", None, (71, 15, 61), (71, 15, 61))):
        solver = (testbed[name][2] if col_perm is None else GESPSolver(
            testbed[name][0], GESPOptions(col_perm=col_perm), cache=False))
        sym = solver.symbolic
        for plan, want in ((solver._block_plan, rule),
                           (build_block_plan(solver.a_factored, sym,
                                             primitive_partition(sym)),
                            unrelaxed)):
            inside = sum(len(members) for members, _ in _batched(plan))
            assert (plan.part.nsuper, len(plan.runs), inside) == want, name


def test_block_pivoting_plans_have_no_batched_run():
    a = matrix_by_name("cfd03").build()
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym)
    plan = build_block_plan(a, sym, part,
                            s_rows=supernode_row_sets(sym, part))
    assert plan.runs == [(range(part.nsuper), None)] and plan.solve is None


def test_empty_and_diagonal_matrices():
    plan = _plan(CSCMatrix.from_dense(np.zeros((0, 0))))
    assert plan.runs == []
    a = CSCMatrix.from_dense(np.diag([2.0, 0.0, -4.0, 5.0]))
    plan = _plan(_csc_keeping(a.to_dense(), np.eye(4, dtype=bool)))
    (members, run), = plan.runs         # one step, nothing to update
    assert (members, run.tgt.size) == ([0, 1, 2, 3], 0)
    f = supernodal_factor(_csc_keeping(a.to_dense(), np.eye(4, dtype=bool)),
                          plan=plan)
    assert f.perturbed_columns.tolist() == [1] and f.flops == 0


# --------------------------------------------------------------------- #
# 4. the counters kept their values and their meaning
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name,lu,trsm,gemm,gemm_flops,flops,partition", [
    ("cfd06", 612, 1222, 611, 589_974, 924_724, "unrelaxed"),
    ("kkt02", 40, 78, 39, 8_289_486, 9_453_614, "unrelaxed"),
    ("cfd06", 449, 896, 448, 609_088, 998_468, "rule"),
    ("kkt02", 27, 52, 26, 8_415_216, 9_643_324, "rule")])
def test_kernel_counters_of_one_factorization_are_the_recorded_ones(
        name, lu, trsm, gemm, gemm_flops, flops, partition):
    """Under minimum degree on AᵀA.  The unrelaxed rows were recorded at
    the commit before batching and are factored here on a plan composed
    from the primitives; the rule's rows are the solver's own.  The
    traced ``warm_newton`` pass (96 cfd06 + 32 kkt02 factorizations)
    read 60 032 / 119 808 / 59 904 / 321 901 056 unrelaxed and
    43 968 / 87 680 / 43 840 / 327 759 360 on the rule."""
    _check_kernel_counters(name, GESPOptions(col_perm="mmd_ata"), partition,
                           [lu, trsm, gemm, gemm_flops, flops])


@pytest.mark.parametrize("name,lu,trsm,gemm,gemm_flops,flops,partition", [
    ("cfd06", 790, 1578, 789, 334_232, 445_250, "unrelaxed"),
    ("kkt02", 71, 140, 70, 4_678_974, 5_514_706, "unrelaxed"),
    ("cfd06", 781, 1560, 780, 336_608, 469_944, "rule"),
    ("kkt02", 71, 140, 70, 4_678_974, 5_514_706, "rule")])
def test_kernel_counters_under_the_default_ordering(
        name, lu, trsm, gemm, gemm_flops, flops, partition):
    """The same counts under the serial default (minimum degree on
    Aᵀ+A), recorded when it became the default: the traced
    ``warm_newton`` pass reads 77 248 / 154 240 / 77 120 /
    182 041 536 on the rule."""
    _check_kernel_counters(name, GESPOptions(), partition,
                           [lu, trsm, gemm, gemm_flops, flops])


def _check_kernel_counters(name, options, partition, want):
    """One factorization's ``kernel.*`` counts and flops, cold and warm."""
    a = matrix_by_name(name).build()
    tracer = Tracer()
    solver = GESPSolver(a, options, tracer=tracer, cache=False)
    factor = partial(solver.refactor, a)
    if partition == "unrelaxed":
        at, sym = solver.a_factored, solver.symbolic
        factor = partial(supernodal_factor, at, plan=build_block_plan(
            at, sym, primitive_partition(sym)))
        tracer = Tracer()
        with use_tracer(tracer):
            factor()
    cold = dict(tracer.root.all_counters())
    with use_tracer(tracer):
        factor()
    warm = tracer.root.all_counters()
    names = ("kernel.lu_calls", "kernel.trsm_calls", "kernel.gemm_calls",
             "kernel.gemm_flops", "factor.flops")
    assert [cold[c] for c in names] == want
    assert [warm[c] - cold[c] for c in names] == want



# --------------------------------------------------------------------- #
# 5. one step list, one runner: a supernode taken alone is its ops
# --------------------------------------------------------------------- #

BENCH_PATTERNS = ("cfd06", "circuit03", "fem05", "chem06", "resv02", "hb02",
                  "kkt01", "kkt02")


def _counted(factor):
    """``factor()`` and the calling thread's ``KernelStats`` delta."""
    st = kernels.stats()
    snap = st.snapshot()
    out = factor()
    return out, {f: getattr(st, f) - getattr(snap, f) for f in vars(snap)}


def _load(plan, a):
    """``(flat, (diag, below, right))``: ``a``'s block values in a new
    array (zeros elsewhere) and every block as a view of them."""
    flat = np.zeros(plan.bounds[-1], dtype=a.nzval.dtype)
    flat[plan.a_pos] = a.nzval
    return flat, plan.blocks(flat)


def _ops_loop(a, plan, thresh):
    """The elimination as one loop over the supernodes, in order, through
    the ops on views of the block values (the loop before step lists).
    Returns the values and each replaced pivot's column and delta, the
    delta replayed from the block as the op received it."""
    flat, (diag, below, right) = _load(plan, a)
    deltas, xsup = {}, plan.part.xsup.tolist()
    for k in range(plan.part.nsuper):
        d = diag[k]
        entry = d.diagonal().copy()
        for j in kernels.lu_nopivot(d, thresh):
            old = entry[j]
            for t in range(j):
                old = old - d[j, t] * d[t, j]
            deltas[xsup[k] + j] = d[j, j] - old
        tgt, keep = plan.targets[k], plan.selection[k]
        if tgt.size:
            upd = kernels.gemm_update(
                kernels.trsm_upper(d, below[k]),
                kernels.trsm_lower_unit(d, right[k])).ravel()
            flat[tgt] -= upd if keep is None else upd[keep]
    cols = sorted(deltas)
    return flat, cols, np.array([deltas[c] for c in cols], dtype=flat.dtype)


def _bound_is_ops(a, plan, **kw):
    """Factor ``a`` from ``plan``'s step list and by :func:`_ops_loop`:
    the same bytes, replaced pivots, pivot deltas and counts.  Returns
    the step list's factors and counts."""
    f, got = _counted(lambda: supernodal_factor(a, plan=plan, **kw))
    (flat, cols, deltas), want = _counted(
        lambda: _ops_loop(a, plan, f.tiny_pivot_threshold))
    assert f.values.tobytes() == flat.tobytes()
    assert f.perturbed_columns.tolist() == cols
    assert f.pivot_deltas.tobytes() == deltas.tobytes()
    assert f.n_tiny_pivots == len(cols)
    assert f.flops == kernels.KernelStats(**want).flops_since(
        kernels.KernelStats())
    assert got == want
    return f, got


def _drifted(a, seed, drift=0.01):
    rng = np.random.default_rng(seed)
    return _with_values(a, a.nzval * (1 + drift * rng.standard_normal(a.nnz)))


def _alone_steps(plan):
    """The steps of the supernodes a step takes alone."""
    return [s for s in plan.steps.steps if type(s) is kernels.Step]


def _bound(plan):
    """The supernodes whose blocks go to ``dgetrf`` (float64 values): the
    ones taken alone wider than one column."""
    return [s.k for s in _alone_steps(plan) if s.w > 1]


@needs_blas
@pytest.mark.parametrize("name", BENCH_PATTERNS)
def test_bound_lone_supernodes_are_the_ops_on_the_bench_patterns(name,
                                                                 testbed):
    """As step (3) sees the pattern, and a warm op's drifted values, at
    the paper's threshold and with replacement off."""
    solver = testbed[name][2]
    a, plan = solver.a_factored, solver._block_plan
    assert _bound(plan)
    for values in (a, _drifted(a, 1)):
        for replace_tiny in (True, False):
            _bound_is_ops(values, plan, replace_tiny_pivots=replace_tiny)


_TESTBED = [tm.name for tm in testbed_53()]


@needs_blas
@given(name=st.sampled_from(_TESTBED), seed=st.integers(0, 2 ** 16),
       drift=st.sampled_from([0.0, 0.01, 0.3]),
       threshold=st.sampled_from([0.0, None, 1e-2, 0.3]))
@settings(max_examples=40, deadline=None)
def test_bound_lone_supernodes_are_the_ops_property(testbed, name, seed,
                                                    drift, threshold):
    """Testbed matrices, drifted, with replacement off (``thresh = 0``),
    at the paper's threshold and at busy ones that reject blocks."""
    solver = testbed[name][2]
    a = _drifted(solver.a_factored, seed, drift)
    _bound_is_ops(a, solver._block_plan,
                  replace_tiny_pivots=threshold != 0.0,
                  tiny_pivot_scale=threshold or None)


@pytest.fixture(scope="module")
def grids():
    """name -> the 2 × 2 distributed solver of cfd06 and kkt02."""
    from repro.driver.dist_driver import DistributedGESPSolver

    return {name: DistributedGESPSolver(matrix_by_name(name).build(),
                                        nprocs=4, cache=False)
            for name in ("cfd06", "kkt02")}


def _pdgstrf(s, scale, swept, at=None):
    """``s``'s layout factored at ``scale`` by its static sweep (a
    recording made first if there is none) or by a fresh simulation of
    the rank programs, holding ``at`` (default: ``s.a_factored``).
    Returns the stores, the replaced pivots and the ``KernelStats``
    delta."""
    from repro.dmem.distribute import refill_values
    from repro.pdgstrf import pdgstrf
    from repro.sparse import norm1

    at, dist = s.a_factored if at is None else at, s.dist

    def factor():
        refill_values(dist, at)
        return pdgstrf(dist, s.dag, norm1(at), s.machine, s.pipeline,
                       s.edag_prune, replace_tiny_pivots=scale != 0.0,
                       tiny_pivot_scale=scale, schedule=s._schedule)
    if not swept:
        dist.recordings.clear()
    elif not dist.recordings:
        factor()
    run, delta = _counted(factor)
    (rec,) = dist.recordings.values()
    assert (rec.run is not None) == swept
    s.factor_run = None             # the stores no longer hold A's values
    return [x.copy() for x in dist.stores], run.n_tiny_pivots, delta


def _backward_error(a, factors):
    b = a @ np.ones(a.ncols)
    x = factors.solve(b)
    return np.abs(a @ x - b).max() / (np.abs(a.to_dense()).sum(axis=1).max()
                                      * np.abs(x).max() + np.abs(b).max())


@needs_blas
@pytest.mark.parametrize("engine", ["serial", "2x2"])
@pytest.mark.parametrize("name,scale", [("cfd06", None), ("cfd06", 0.0),
                                        ("cfd06", 0.3), ("kkt02", None)])
def test_one_runner_serves_both_engines(engine, name, scale, testbed, grids):
    """``kernels.run_steps`` against each engine's own reference: the
    serial plan's step list against the loop over the ops, the 2 × 2
    layout's static sweep against a fresh simulation of the rank
    programs — the same bytes, replaced pivots and ``KernelStats``
    deltas — at the paper's threshold, with replacement off, at a busy
    threshold (blocks ``dgetrf`` leaves a tiny pivot in) and on kkt02
    (blocks it interchanges).  Where no pivot was replaced the factors
    solve A to a small backward error: a rejected block's loop ran on
    the block as it was."""
    if engine == "serial":
        solver = testbed[name][2]
        a = solver.a_factored
        f, _ = _bound_is_ops(a, solver._block_plan,
                             replace_tiny_pivots=scale != 0.0,
                             tiny_pivot_scale=scale)
        n_tiny = f.n_tiny_pivots
    else:
        s = grids[name]
        a = s.a_factored
        stores, n_tiny, delta = _pdgstrf(s, scale, swept=True)
        want = _pdgstrf(s, scale, swept=False)
        assert [x.tobytes() for x in stores] == [x.tobytes() for x in want[0]]
        assert (n_tiny, delta) == want[1:]
        for store, x in zip(s.dist.stores, stores):
            store[...] = x
        f = s.dist.gather_to_supernodal()
    if scale == 0.3:
        assert n_tiny > 0
    else:
        assert n_tiny == 0 and _backward_error(a, f) < 1e-10


@needs_blas
def test_a_bound_block_dgetrf_rejects_takes_the_loop(testbed):
    """kkt02's wide blocks make ``dgetrf`` interchange rows, and a busy
    threshold leaves cfd06's with tiny pivots: both go to the op's loop
    through ``factor_diag`` once, with the replacements it records."""
    solver = testbed["kkt02"][2]
    plan = solver._block_plan
    f, delta = _bound_is_ops(solver.a_factored, plan)
    assert (delta["lu_lapack"], delta["lu_fallbacks"]) == (0, 9)
    assert f.n_tiny_pivots == 0 and len(_bound(plan)) == 9
    solver = testbed["cfd06"][2]
    plan, xsup = solver._block_plan, solver._block_plan.part.xsup
    f, delta = _bound_is_ops(solver.a_factored, plan, tiny_pivot_scale=0.3)
    assert delta["lu_fallbacks"] == 7 and f.n_tiny_pivots == 7
    # each replaced pivot lies in a bound supernode
    assert set(np.searchsorted(xsup, f.perturbed_columns, "right") - 1) <= \
        set(_bound(plan))


@needs_blas
def test_a_bound_partial_update_grid_is_the_ops(testbed):
    """A dense tail merged across etree branches leaves some bound
    supernodes a partial update grid (``keep``): the entries they keep
    are subtracted as the ops subtract them."""
    a = testbed["fem04"][2].a_factored
    sym = symbolic_lu_symmetrized(a)
    plan = build_block_plan(a, sym, block_partition(
        sym, dense_tail_threshold=0.2))
    assert any(s.w > 1 and s.updates and s.updates[0][2] is not None
               for s in _alone_steps(plan))
    for replace_tiny in (True, False):
        _bound_is_ops(_drifted(a, 2), plan, replace_tiny_pivots=replace_tiny)


@needs_blas
def test_a_nan_pivot_rejects_a_bound_block(testbed):
    """An infinity in U makes ``dgetrf``'s last pivot ``-inf + inf`` with
    no interchange and ``info == 0``: the NaN fails its comparison with
    the threshold, so the verdict rejects the block (a Python ``min`` of
    the pivots would return 3.6).  A NaN already in a block is rejected
    by LAPACKE's own check."""
    d = np.full((4, 4), 1.0) + 3 * np.eye(4)
    d[0, 3] = np.inf
    a = CSCMatrix.from_dense(d)
    with np.errstate(invalid="ignore"):     # the loop's -inf + inf
        f, delta = _bound_is_ops(a, _plan(a), replace_tiny_pivots=False)
    assert (delta["lu_lapack"], delta["lu_fallbacks"]) == (0, 1)
    assert np.isnan(f.diag[0][3, 3])
    solver = testbed["cfd06"][2]
    a, plan = solver.a_factored, solver._block_plan
    # the widest block that updates nothing: the NaN stays in it
    k = max((s for s in _alone_steps(plan) if s.w > 1 and not s.updates),
            key=lambda s: s.w).k
    last = int(plan.part.xsup[k + 1]) - 1
    lo, hi = a.colptr[last], a.colptr[last + 1]
    nzval = a.nzval.copy()
    nzval[lo + int(np.flatnonzero(a.rowind[lo:hi] == last)[0])] = np.nan
    with np.errstate(invalid="ignore"):     # the ops loop's NaN compares
        f, delta = _bound_is_ops(_with_values(a, nzval), plan,
                                 replace_tiny_pivots=False)
    assert (delta["lu_lapack"], delta["lu_fallbacks"]) == (56, 1)
    assert np.isnan(f.diag[k][-1, -1])


@needs_blas
def test_zero_pivot_in_a_bound_block_raises_and_leaves_solver_intact():
    """A zero pivot in a block run at raw addresses, replacement off: the
    refactorization raises and the solver still answers for the matrix
    it held.  The matrix is 4 × 4 diagonal blocks bordered by a last row
    and column, with blocks added until the etree's root subtree is too
    wide to amalgamate, so a bound block updates."""
    rng = np.random.default_rng(4)
    for nblk in range(3, 8):
        n = 4 * nblk + 1
        d = np.zeros((n, n))
        for lo in range(0, n - 1, 4):
            d[lo:lo + 4, lo:lo + 4] = (rng.standard_normal((4, 4))
                                       + 6 * np.eye(4))
        d[-1, :], d[:, -1] = rng.standard_normal(n), rng.standard_normal(n)
        d[-1, -1] = 20.0
        a = CSCMatrix.from_dense(d)
        s = GESPSolver(a, GESPOptions(replace_tiny_pivots=False,
                                      col_perm="natural"), cache=False)
        plan = s._block_plan
        step = next(x for x in _alone_steps(plan) if x.w > 1)
        if step.updates:
            break
    k = step.k
    assert step.updates       # it updates, and nothing reaches it
    assert k not in plan.part.supno()[np.concatenate(plan.s_rows)]
    col = int(np.flatnonzero(s.perm_c == plan.part.xsup[k])[0])
    row = int(np.flatnonzero(s.perm_r == col)[0])
    nzval = a.nzval.copy()
    lo, hi = a.colptr[col], a.colptr[col + 1]
    nzval[lo + int(np.flatnonzero(a.rowind[lo:hi] == row)[0])] = 0.0
    before = s.factors
    with pytest.raises(ZeroDivisionError, match="zero pivot"):
        s.refactor(_with_values(a, nzval))
    assert s.a is a and s.factors is before
    rep = s.solve(a @ np.ones(a.ncols))
    assert rep.converged and rep.berr <= 8 * EPS


def _pivot_at(a, j, rows, c, value):
    """``a`` with ``value`` in column j where ``rows`` (every entry's row
    as the engine factors it) is c, and zeros where it is above c: the
    pivot of column c, where j lands, is ``value`` exactly when it is
    eliminated (every update of it is a product with zero)."""
    lo, hi = a.colptr[j], a.colptr[j + 1]
    nzval = a.nzval.copy()
    nzval[lo:hi][rows[lo:hi] < c] = 0.0
    nzval[lo:hi][rows[lo:hi] == c] = value
    return _with_values(a, nzval)


def _width1(engine, s):
    """The first column of ``s``'s engine that is a step one column wide
    taken alone."""
    from repro.pdgstrf import build_schedule

    steps = (s._block_plan.steps.steps if engine == "serial" else
             build_schedule(s.dist, s.dag, s.edag_prune)["updates"].steps.steps)
    part = s._block_plan.part if engine == "serial" else s.part
    return int(part.xsup[next(x.k for x in steps
                              if type(x) is kernels.Step and x.w == 1)])


@needs_blas
@pytest.mark.parametrize("engine", ["serial", "2x2"])
@pytest.mark.parametrize("case", ["tiny", "nan"])
def test_a_width1_step_is_the_ops(engine, case, testbed, grids):
    """A step one column wide taken alone runs off the ops by the batched
    step's rule, bit for bit the ops with the same ``KernelStats`` delta:
    a pivot below the threshold goes to ``factor_diag``, which replaces it
    and records it (with the ops' pivot delta on the serial engine), and
    a NaN pivot goes there too and spreads as the ops spread it."""
    value = -1e-30 if case == "tiny" else np.nan
    s = testbed["cfd06"][2] if engine == "serial" else grids["cfd06"]
    c, at = _width1(engine, s), s.a_factored
    at = _pivot_at(at, c, at.rowind, c, value)
    with np.errstate(invalid="ignore"):     # the NaN's compares
        if engine == "serial":
            f, _ = _bound_is_ops(at, s._block_plan)
            pivot = f.diag[int(s._block_plan.part.supno()[c])][0, 0]
        else:
            stores, n_tiny, delta = _pdgstrf(s, None, True, at)
            want = _pdgstrf(s, None, False, at)
            assert [x.tobytes() for x in stores] == \
                [x.tobytes() for x in want[0]]
            assert (n_tiny, delta) == want[1:]
    if case == "tiny" and engine == "serial":
        assert c in f.perturbed_columns and pivot == -f.tiny_pivot_threshold
    elif case == "tiny":
        assert n_tiny >= 1
    elif engine == "serial":
        assert np.isnan(pivot)


@needs_blas
@pytest.mark.parametrize("engine", ["serial", "2x2"])
def test_a_zero_width1_pivot_raises_and_leaves_the_solver_intact(engine):
    """Replacement off, a zero pivot in a step one column wide raises
    ``ZeroDivisionError`` on both engines — in the distributed layout's
    sweep and in a fresh simulation — and the solver still answers for
    the matrix it holds: bit for bit what it answered before."""
    from repro.driver.dist_driver import DistributedGESPSolver

    a = matrix_by_name("cfd06").build()
    b, fact = a @ np.ones(a.ncols), "SAME_PATTERN_SAME_ROWPERM"
    opts = GESPOptions(replace_tiny_pivots=False)
    s = (GESPSolver(a, opts, cache=False) if engine == "serial" else
         DistributedGESPSolver(a, nprocs=4, options=opts, cache=False))
    c = _width1(engine, s)
    j = int(np.flatnonzero(s.perm_c == c)[0])
    bad = _pivot_at(a, j, s.perm_c[s.perm_r[a.rowind]], c, 0.0)
    if engine == "serial":
        before, want = s.factors, s.solve(b).x
        with pytest.raises(ZeroDivisionError, match="zero pivot"):
            s.refactor(bad, fact=fact)
        assert s.a is a and s.factors is before
        assert np.array_equal(s.solve(b).x, want)
        return
    s.refactor(a, fact=fact)
    want = s.solve_distributed(b).x       # recorded
    for swept in (True, False):
        s.refactor(a, fact=fact)
        assert np.array_equal(s.solve_distributed(b).x, want)
        if not swept:
            s.dist.recordings.clear()
        s.refactor(bad, fact=fact)
        with pytest.raises(ZeroDivisionError, match="zero pivot"):
            s.factorize()
        runs = [rec.run for rec in s.dist.recordings.values()]
        # the sweep raised; the simulation raised and recorded nothing
        assert len(runs) == 3 and None not in runs if swept else not runs
        s.refactor(a, fact=fact)
        assert np.array_equal(s.solve_distributed(b).x, want)


def _spied(monkeypatch, name):
    calls = []
    op = getattr(kernels, name)

    def spy(d, *args, **kw):
        calls.append(d.shape[0])
        return op(d, *args, **kw)
    monkeypatch.setattr(kernels, name, spy)
    return calls


@pytest.mark.parametrize("case", ["float32", "complex128", "no_blas"])
def test_what_calls_the_ops(case, testbed, monkeypatch):
    """float32 values and a host without LAPACK / BLAS call ``lu_nopivot``
    for every supernode a step takes alone, complex values for every
    supernode (each taken alone: no batched step); float64 calls it for
    none, the width-1 ones taken alone included (no pivot is at or below
    the threshold)."""
    a, plan = testbed["cfd06"][2].a_factored, testbed["cfd06"][2]._block_plan
    alone = [k for members, run in plan.runs if run is None for k in members]
    lu = _spied(monkeypatch, "lu_nopivot")
    supernodal_factor(a, plan=plan)
    assert lu == []
    if case == "no_blas":
        monkeypatch.setattr(kernels, "_BLAS", None)
    lu.clear()
    if case == "float32":           # the runner itself: no solver has one
        kernels.run_steps(kernels.bind_steps(
            plan.steps, [_load(plan, a)[0].astype(case)]),
            lambda k, d, op=kernels.lu_nopivot: op(d, 0.0), 0.0)
    else:
        supernodal_factor(_with_values(a, a.nzval.astype(
            np.float64 if case == "no_blas" else case)), plan=plan)
    assert len(lu) == (plan.part.nsuper if case == "complex128"
                       else len(alone))


def test_the_block_pivoting_engine_calls_its_own_factor_diag(monkeypatch):
    """Every supernode's diagonal block goes through ``lu_partial``, and
    nothing calls ``dgetrf``: its steps all run on the ops."""
    a = matrix_by_name("cfd03").build()
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym)

    def unused(*args):
        raise AssertionError("the block-pivoting engine called dgetrf")
    monkeypatch.setattr(kernels, "dgetrf", unused)
    lu = _spied(monkeypatch, "lu_partial")
    supernodal_factor_block_pivoting(a, sym, part)
    assert len(lu) == part.nsuper


def test_bound_entries_are_the_wide_lone_supernodes(testbed):
    """The plan's step list is its ``runs`` in order: a batched step as
    it stands, each supernode taken alone a ``Step`` with D_K, B_K and
    R_K where the plan puts them, its targets ``intp`` copies and its
    selection the plan's; the static counts are those of every step taken
    alone, ``lu_lapack`` of the ones wider than one column.  A pickled plan leaves both step lists out and
    builds them again: its batched steps are its own runs, and its
    complex list takes every supernode alone."""
    for name in BENCH_PATTERNS:
        plan = testbed[name][2]._block_plan
        steps = iter(plan.steps.steps)
        for members, run in plan.runs:
            if run is not None:
                assert next(steps)[1] is run
            for k in members if run is None else ():
                step = next(steps)
                (w, _), (m, _) = plan.shapes[3 * k:3 * k + 2]
                d, b, r = plan.bounds[3 * k:3 * k + 3]
                assert step[:4] == (k, w, 0, d), name
                if plan.targets[k].size:
                    assert step.panels == (("trsm_upper", 0, b, m, w, 1),
                                           ("trsm_lower_unit", 0, r, w, m, 1))
                    (t, tgt, take, *operands), = step.updates
                    assert tgt.dtype == np.intp and t == 0
                    assert np.array_equal(tgt, plan.targets[k])
                    assert take is plan.selection[k]
                    assert operands == [0, 1, 1]     # panel 0 times panel 1
                else:
                    assert step.panels == step.updates == ()
        assert next(steps, None) is None
        counts = plan.steps.counts
        assert counts.lu_calls == len(_alone_steps(plan))
        assert counts.lu_lapack == len(_bound(plan))
        plan.steps_alone
        copy = pickle.loads(pickle.dumps(plan))
        assert "steps" not in vars(copy) and "steps_alone" not in vars(copy)
        runs = [run for _, run in copy.runs if run is not None]
        kept = [s[1] for s in copy.steps.steps if type(s) is not kernels.Step]
        assert len(kept) == len(runs)
        assert all(x is y for x, y in zip(kept, runs))
        assert all(type(s) is kernels.Step for s in copy.steps_alone.steps)
        assert len(copy.steps_alone.steps) == plan.part.nsuper


# --------------------------------------------------------------------- #
# 6. the plan's resident store, and L and U gathered when read
# --------------------------------------------------------------------- #

def _snapshot(f):
    """A serial factorization's bytes: ``values`` and every block view."""
    return [f.values.tobytes()] + [blk.tobytes() for blocks in (
        f.diag, f.below, f.right) for blk in blocks]


def _eager_lu(f):
    """``f``'s L and U gathered from its values on the static pattern at
    once: the reference the lazy ``l`` / ``u`` are held to."""
    plan, n = f.plan, f.n
    lval = f.values[plan.l_pos]
    lval[plan.sym.l_colptr[:-1]] = 1.0
    return (CSCMatrix(n, n, plan.sym.l_colptr, plan.sym.l_rowind, lval,
                      check=False),
            CSCMatrix(n, n, plan.u_colptr, plan.u_rowind,
                      f.values[plan.u_pos], check=False))


def _same_csc(x, y):
    assert (x.colptr.tobytes(), x.rowind.tobytes(), x.nzval.tobytes()) == (
        y.colptr.tobytes(), y.rowind.tobytes(), y.nzval.tobytes())


def _free(plan, dtype=np.float64):
    """The resolved lists of ``plan``'s stores of ``dtype`` not out."""
    return vars(plan).get("_free", {}).get(np.dtype(dtype), [])


def test_a_warm_serial_refactor_resolves_and_gathers_nothing(monkeypatch):
    """A warm refactor + solve makes no ``kernels.bind_steps`` call and
    reads no L or U; reading ``l`` / ``u`` gathers them once, and a copy
    of the plan resolves its own store on its first factorization."""
    a = matrix_by_name("cfd06").build()
    s = GESPSolver(a, cache=False)
    b = a @ np.ones(a.ncols)
    binds, gathers = [], []
    bind, gather = kernels.bind_steps, SupernodalFactors.csc_lu
    for module in (kernels, blockplan):     # the plan imports it by name
        monkeypatch.setattr(module, "bind_steps",
                            lambda *args: binds.append(args) or bind(*args))
    monkeypatch.setattr(SupernodalFactors, "csc_lu",
                        lambda f: gathers.append(f) or gather(f))
    for scale in (1.0, 1.5, 0.75):
        s.refactor(_with_values(a, a.nzval * scale))
        assert s.solve(b).converged
    assert binds == [] and gathers == []
    assert "l" not in vars(s.factors) and "u" not in vars(s.factors)
    s.factors.l, s.factors.u, s.factors.l
    assert len(gathers) == 1
    assert len(_free(s._block_plan)) == 1
    supernodal_factor(s.a_factored, plan=replace(s._block_plan))
    assert len(binds) == 1


def test_earlier_factors_outlive_later_factorizations_of_the_plan():
    """Factors keep their own copy of the store: their values, block
    views, solves and (first read afterwards) L and U are unchanged by
    later factorizations of the plan with other values, one of them
    raising ``ZeroDivisionError`` mid-list; the factorization after the
    raise is a fresh plan's, bit for bit."""
    s = GESPSolver(matrix_by_name("cfd06").build(), cache=False)
    a, plan = s.a_factored, s._block_plan
    b = np.linspace(1.0, 2.0, a.ncols)
    first = supernodal_factor(a, plan=plan)
    snap, eager = _snapshot(first), _eager_lu(first)
    factors = first.to_gesp_factors()
    x = factors.solve(b).tobytes()
    # a supernode nothing reaches, late in the list: zero its D_K and it
    # raises there, with the steps before it run
    reached = set(plan.part.supno()[np.concatenate(plan.s_rows)].tolist())
    order = [k for s_ in plan.steps.steps for k in (
        [s_.k] if type(s_) is kernels.Step else s_[0])]
    k = max((k for k in order if k not in reached), key=order.index)
    assert order.index(k) > len(order) // 2
    d, w = plan.bounds[3 * k], plan.shapes[3 * k][0]
    zero = a.nzval.copy()
    zero[(plan.a_pos >= d) & (plan.a_pos < d + w * w)] = 0.0
    other = _with_values(a, a.nzval * 1.25)
    supernodal_factor(other, plan=plan)
    (store,) = _free(plan)
    with pytest.raises(ZeroDivisionError, match="zero pivot"):
        supernodal_factor(_with_values(a, zero), plan=plan,
                          replace_tiny_pivots=False)
    assert len(_free(plan)) == 1 and _free(plan)[0] is store  # back
    after = supernodal_factor(other, plan=plan)
    assert _snapshot(after) == _snapshot(
        supernodal_factor(other, plan=replace(plan)))
    assert _snapshot(first) == snap
    assert factors.solve(b).tobytes() == x
    _same_csc(factors.l, eager[0])
    _same_csc(factors.u, eager[1])


def test_threads_factor_one_shared_plan(monkeypatch):
    """``cache=True`` solvers of one ``FactorizationCache`` share a plan;
    factored from three threads at once (more than the host's cores; each
    first run held at a barrier, so three stores are out; a short switch
    interval), every answer and U is bit for bit what the same stream
    gives serially."""
    a = matrix_by_name("cfd06").build()
    cache, opts = (FactorizationCache(),
                   GESPOptions(fact="SAME_PATTERN_SAME_ROWPERM"))
    solvers = [GESPSolver(a, opts, cache=cache) for _ in range(3)]
    plan = solvers[0]._block_plan
    assert all(s._block_plan is plan for s in solvers)
    rng = np.random.default_rng(7)
    b = a @ np.ones(a.ncols)
    streams = [[_with_values(a, a.nzval * (1 + 0.05 * rng.standard_normal(
        a.nnz))) for _ in range(12)] for _ in solvers]

    def walk(s, stream):
        out = []
        for m in stream:
            s.refactor(m)
            out.append((s.solve(b).x.tobytes(), s.factors.u.nzval.tobytes()))
        return out

    serial = GESPSolver(a, opts, cache=False)
    want = [walk(serial, stream) for stream in streams]
    barrier, held = threading.Barrier(len(solvers)), threading.local()
    run = kernels.run_steps

    def run_steps(*args):
        if not getattr(held, "once", False):
            held.once = True
            barrier.wait(timeout=30)
        return run(*args)
    monkeypatch.setattr(kernels, "run_steps", run_steps)
    got, errors = [None] * len(solvers), []

    def thread(i):
        try:
            got[i] = walk(solvers[i], streams[i])
        except Exception as exc:    # reported below
            errors.append(exc)
            barrier.abort()
    threads = [threading.Thread(target=thread, args=(i,))
               for i in range(len(solvers))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert got == want
    assert all(s._block_plan is plan for s in solvers)
    assert len(_free(plan)) == len(solvers)


def test_pickles_and_copies_carry_no_store_and_dtypes_share_none():
    """A pickled plan and a ``dataclasses.replace`` copy hold no store;
    real and complex factorizations of one plan each have their own, and
    a real one after a complex one is a fresh plan's bit for bit."""
    s = GESPSolver(matrix_by_name("cfd03").build(), cache=False)
    a, plan = s.a_factored, s._block_plan
    real = supernodal_factor(a, plan=plan)
    cplx = supernodal_factor(_with_values(a, a.nzval * (1 + 0.5j)),
                             plan=plan)
    (r,), (c,) = _free(plan), _free(plan, np.complex128)
    assert r.stores[0].dtype == np.float64
    assert c.stores[0].dtype == np.complex128
    assert not np.shares_memory(r.stores[0], c.stores[0])
    assert cplx.values.dtype == np.complex128
    assert _snapshot(supernodal_factor(a, plan=plan)) == _snapshot(real)
    for copy in (pickle.loads(pickle.dumps(plan)), replace(plan)):
        assert "_free" not in vars(copy)
        assert _snapshot(supernodal_factor(a, plan=copy)) == _snapshot(real)
        assert _free(copy)[0].stores[0] is not r.stores[0]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_l_and_u_read_when_asked_are_the_eager_gather(dtype):
    """After a warm refactor, ``l`` / ``u`` are the eager gather byte for
    byte, and ``pivot_growth``, ``solve_transpose`` and
    ``check_factors`` read as on eager factors, a NaN factor's
    ``NONFINITE_FACTORS`` included."""
    a = matrix_by_name("cfd06").build()
    a = _with_values(a, a.nzval.astype(dtype) * (1 + 0.25j if dtype ==
                                                  np.complex128 else 1))
    s = GESPSolver(a, cache=False)
    s.refactor(_with_values(a, a.nzval * 1.5))
    f = supernodal_factor(s.a_factored, plan=s._block_plan)
    assert f.tiny_pivot_threshold == s.factors.tiny_pivot_threshold
    l, u = _eager_lu(f)
    eager = GESPFactors(l=l, u=u, n_tiny_pivots=f.n_tiny_pivots,
                        tiny_pivot_threshold=f.tiny_pivot_threshold)
    assert "l" not in vars(s.factors)
    assert s.pivot_growth() == eager.pivot_growth(s.a_factored)
    _same_csc(s.factors.l, l)
    _same_csc(s.factors.u, u)
    b = np.linspace(1.0, 2.0, a.ncols)
    s.refactor(_with_values(a, a.nzval * 1.5))
    xt = s.solve_transpose(b)
    s.factors = replace(s.factors, l=l, u=u, gather=None)
    assert s.solve_transpose(b).tobytes() == xt.tobytes()
    # a NaN in an L and in a U entry (not L's unit diagonal)
    off = np.setdiff1d(np.arange(f.plan.l_pos.size),
                       f.plan.sym.l_colptr[:-1])[0]
    f.values[[f.plan.l_pos[off], f.plan.u_pos[-1]]] = np.nan
    lazy, (l, u) = f.to_gesp_factors(), _eager_lu(f)
    diagnoses = [(d.kind, d.data) for d in check_factors(lazy, a.ncols)]
    assert diagnoses == [(d.kind, d.data) for d in check_factors(
        replace(eager, l=l, u=u), a.ncols)]
    assert diagnoses[0] == (FailureKind.NONFINITE_FACTORS,
                            {"nonfinite_entries": 2})
