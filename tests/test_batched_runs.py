"""Independent width-1 supernodes are eliminated together, in level
order (:func:`repro.factor.blockplan.build_block_plan` cuts the
elimination into steps, :func:`repro.factor.supernodal.eliminate` walks
them).

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
5. a supernode taken alone from its bound entry (``BlockPlan.lone``) is
   its ops bit for bit — values, replaced pivots and every
   ``KernelStats`` field — on the bench patterns and over the testbed
   (a kept ``dgetrf``, an interchange, a tiny pivot, a NaN, a zero pivot
   that raises), while float32, complex, no LAPACK / BLAS and the
   block-pivoting engine call the ops, and the entries are not pickled.
"""

import pickle
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.driver import GESPOptions, GESPSolver
from repro.factor import supernodal_factor
from repro.factor.blockplan import (
    BlockPlan,
    Blocks,
    build_block_plan,
    supernode_row_sets,
)
from repro.factor.blockpivot import supernodal_factor_block_pivoting
from repro.factor.supernodal import eliminate
from repro.matrices import matrix_by_name, testbed_53
from repro.obs import Tracer, use_tracer
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
# 5. lone supernodes bound once per plan
# --------------------------------------------------------------------- #

BENCH_PATTERNS = ("cfd06", "circuit03", "fem05", "chem06", "resv02", "hb02",
                  "kkt01", "kkt02")

def _ops(plan):
    """``plan`` with nothing bound: every supernode a step takes alone
    calls the ops."""
    ops = replace(plan)
    ops.lone = None
    return ops


def _counted(factor):
    """``factor()`` and the calling thread's ``KernelStats`` delta."""
    st = kernels.stats()
    snap = st.snapshot()
    out = factor()
    return out, {f: getattr(st, f) - getattr(snap, f) for f in vars(snap)}


def _bound_is_ops(a, plan, **kw):
    """Factor ``a`` from ``plan``'s bound entries and from its ops: the
    same bytes, replaced pivots and counts.  Returns the bound side."""
    f, got = _counted(lambda: supernodal_factor(a, plan=plan, **kw))
    g, want = _counted(lambda: supernodal_factor(a, plan=_ops(plan), **kw))
    assert f.values.tobytes() == g.values.tobytes()
    assert f.perturbed_columns.tolist() == g.perturbed_columns.tolist()
    assert f.pivot_deltas.tobytes() == g.pivot_deltas.tobytes()
    assert (f.flops, f.n_tiny_pivots) == (g.flops, g.n_tiny_pivots)
    assert got == want
    return f, got


def _drifted(a, seed, drift=0.01):
    rng = np.random.default_rng(seed)
    return _with_values(a, a.nzval * (1 + drift * rng.standard_normal(a.nnz)))


def _bound(plan):
    return [k for k, e in enumerate(plan.lone[0]) if e is not None]


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
    assert any(plan.lone[0][k].keep is not None for k in _bound(plan))
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
    k = max((k for k in _bound(plan) if not plan.lone[0][k].m),
            key=lambda k: plan.lone[0][k].w)
    last = int(plan.part.xsup[k + 1]) - 1
    lo, hi = a.colptr[last], a.colptr[last + 1]
    nzval = a.nzval.copy()
    nzval[lo + int(np.flatnonzero(a.rowind[lo:hi] == last)[0])] = np.nan
    f, delta = _bound_is_ops(_with_values(a, nzval), plan,
                             replace_tiny_pivots=False)
    assert (delta["lu_lapack"], delta["lu_fallbacks"]) == (56, 1)
    assert np.isnan(f.diag[k][-1, -1])


@needs_blas
def test_zero_pivot_in_a_bound_block_raises_and_leaves_solver_intact():
    """A zero pivot in a block taken from its bound entry, replacement
    off: the refactorization raises and the solver still answers for the
    matrix it held.  The matrix is 4 × 4 diagonal blocks bordered by a
    last row and column, with blocks added until the etree's root
    subtree is too wide to amalgamate, so a bound block updates."""
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
        k = _bound(plan)[0]
        if plan.lone[0][k].m:
            break
    assert plan.lone[0][k].m       # it updates, and nothing reaches it
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
    """float32 and complex values and a host without LAPACK / BLAS call
    ``lu_nopivot`` for every supernode a step takes alone (complex: every
    supernode) and never derive the bound entries; float64 calls it only
    for the width-1 ones."""
    a, plan = testbed["cfd06"][2].a_factored, testbed["cfd06"][2]._block_plan
    alone = [k for members, run in plan.runs if run is None for k in members]
    lu = _spied(monkeypatch, "lu_nopivot")

    def eliminate_as(dtype, plan):
        flat = plan.load(a)[0].astype(dtype)
        eliminate(plan, flat, [Blocks(plan, flat, kind) for kind in range(3)],
                  lambda k, d, op=kernels.lu_nopivot: op(d, 0.0), bound=True)
    eliminate_as(np.float64, replace(plan))
    assert len(lu) == len(alone) - len(_bound(plan))
    if case == "no_blas":
        monkeypatch.setattr(kernels, "_BLAS", None)
    lu.clear()
    fresh = replace(plan)
    eliminate_as(np.float64 if case == "no_blas" else case, fresh)
    assert len(lu) == (plan.part.nsuper if case == "complex128"
                       else len(alone))
    assert "lone" not in vars(fresh)


def test_the_block_pivoting_engine_calls_its_own_factor_diag(monkeypatch):
    """Every supernode's diagonal block goes through ``lu_partial``; the
    engine never reads a plan's bound entries."""
    a = matrix_by_name("cfd03").build()
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym)

    def unread(plan):
        raise AssertionError("the block-pivoting engine read BlockPlan.lone")
    monkeypatch.setattr(BlockPlan, "lone", property(unread))
    lu = _spied(monkeypatch, "lu_partial")
    supernodal_factor_block_pivoting(a, sym, part)
    assert len(lu) == part.nsuper


def test_bound_entries_are_the_wide_lone_supernodes(testbed):
    """One entry per supernode a step takes alone wider than one column,
    its targets ``intp`` copies, its blocks where the plan puts them —
    and a pickled plan leaves them behind (the spool schema is unchanged)."""
    for name in BENCH_PATTERNS:
        plan = testbed[name][2]._block_plan
        entries, counts = plan.lone
        for members, run in plan.runs:
            for k in members:
                e, w = entries[k], int(np.diff(plan.part.xsup)[k])
                assert (e is not None) == (run is None and w > 1), name
                if e is not None:
                    assert e.tgt.dtype == np.intp
                    assert np.array_equal(e.tgt, plan.targets[k])
                    assert (e.w, e.m) == (w, plan.s_rows[k].size)
                    assert plan.bounds[3 * k:3 * k + 4] == [e.d, e.b, e.r,
                                                            e.end]
        assert counts.lu_calls == counts.lu_lapack == len(_bound(plan))
        assert "lone" not in vars(pickle.loads(pickle.dumps(plan)))
