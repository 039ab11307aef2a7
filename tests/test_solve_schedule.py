"""The solve phase's static schedule (repro.factor.solveplan).

- its invariants, over the testbed and a hypothesis sweep of supernode
  shapes: every stored off-diagonal entry of L and of U exactly once,
  each in a row whose level is strictly above (L) or below (U) its
  source's, per-level rows distinct, no empty ``reduceat`` segment;
- schedule ≡ the column sweeps ``solve_upper_csc(solve_lower_csc(·))``
  on the same factors — fp64 and complex values, one
  right-hand side and a block — and column t of a block solve equal to
  the solve of column t bit for bit;
- a tiny-pivot-replaced block refines to certification and a non-finite
  block reports ``converged=False`` with a non-finite berr, as before;
- two threads solving on one solver get the single-thread answers.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings

from repro.driver import GESPOptions, GESPSolver
from repro.factor import supernodal_factor
from repro.factor.blockplan import build_block_plan
from repro.factor.solveplan import LINV, LOWER, UINV, UPPER
from repro.matrices import testbed_53
from repro.solve import solve_lower_csc, solve_upper_csc
from repro.sparse import CSCMatrix
from repro.symbolic import block_partition, symbolic_lu_symmetrized

from conftest import primitive_partition
from test_block_engine import _random_system, shapes

EPS = float(np.finfo(np.float64).eps)


# --------------------------------------------------------------------- #
# (i) the plan's invariants
# --------------------------------------------------------------------- #

def _check_schedule(plan):
    sp, bounds, xsup = plan.solve, np.array(plan.bounds), plan.part.xsup
    supno = plan.part.supno()
    # a row's level: every row has a pivot, so it sits in one U⁻¹ step,
    # and the back sweep visits the levels root first
    last = [step for step in sp.program if step[0] == UINV]
    level = np.full(sp.n, -1)
    for l, step in enumerate(reversed(last)):
        level[step[1]] = l
    assert (level >= 0).all()
    assert np.array_equal(level, level[xsup[:-1]][supno])  # per supernode

    order, done = [], dict.fromkeys(range(4), None)
    seen = np.zeros(sp.n, dtype=int)
    for operand, rows, ptr, src, lo, hi in sp.program:
        assert hi - lo == src.size > 0
        assert np.unique(rows).size == rows.size           # distinct rows
        l = level[rows[0]]
        assert (level[rows] == l).all()
        order.append((operand >= UPPER, -l if operand >= UPPER else l,
                      operand))
        # no empty segment: reduceat would return an element for it
        assert ptr[0] == 0 and (np.diff(ptr) > 0).all() \
            and ptr[-1] < src.size
        row = np.repeat(rows, np.diff(np.append(ptr, src.size)))
        if operand == LOWER:
            assert (level[src] < l).all() and (src < row).all()
        elif operand == UPPER:
            assert (level[src] > l).all() and (src > row).all()
        else:
            assert (supno[src] == supno[row]).all()
            assert (src < row).all() if operand == LINV \
                else (src >= row).all()
        if operand == UINV:
            seen += np.bincount(row, minlength=sp.n)
        # an operand's values are one run, in ascending level order
        if operand < UPPER:
            assert done[operand] in (None, lo)
            done[operand] = hi
        else:
            assert done[operand] in (None, hi)
            done[operand] = lo
    # forward sweep leaves first, back sweep root first, and in a level
    # the panel comes off before the diagonal block is applied
    assert order == sorted(order)
    assert np.array_equal(seen, xsup[supno + 1] - np.arange(sp.n))

    # the values: every slot of every below / right panel exactly once
    # (negated flat entries), then the stacks' triangles
    size, flat = sp.stacks[-1][1] if sp.stacks else 0, bounds[-1]
    nl = int(sum(s.size * w for s, w in zip(plan.s_rows, np.diff(xsup))))
    ni = (sp.pos.size - 2 * nl - sp.n) // 2
    cuts = np.cumsum([nl, ni, nl])
    lower, linv, upper, uinv = np.split(sp.pos, cuts)
    for pos, first in ((lower, 1), (upper, 2)):
        slots = [np.arange(lo, hi) for lo, hi
                 in zip(bounds[first::3], bounds[first + 1::3])]
        assert np.array_equal(np.sort(pos),
                              np.concatenate([*slots, bounds[:0]]))
    assert linv.size == ni == int(sum(w * (w - 1) // 2 for w in np.diff(xsup)))
    assert linv.size == 0 or flat <= linv.min() <= linv.max() < flat + size
    assert uinv.size == 0 or flat + size <= uinv.min() \
        <= uinv.max() < flat + 2 * size
    assert np.unique(sp.pos).size == sp.pos.size
    # the diagonal blocks land in disjoint stack slots
    assert np.array_equal(np.sort(sp.d_src), np.concatenate(
        [np.arange(lo, hi) for lo, hi
         in zip(bounds[0:-1:3], bounds[1::3])] + [bounds[:0]]))
    assert np.unique(sp.d_dst).size == sp.d_dst.size
    assert sp.d_dst.size == 0 or sp.d_dst.max() < size
    assert len(sp.stacks) <= 4
    for index in (sp.pos, sp.d_src, sp.d_dst, sp.eye):
        assert index.dtype == np.int32


@given(**shapes)
@settings(max_examples=80, deadline=None)
def test_schedule_invariants_and_dense_oracle_property(n, density, hole,
                                                       max_block, relax,
                                                       seed):
    """Relaxed supernodes, widths 1…24, a last supernode with an empty
    ``S_K``, a structurally absent diagonal entry: the invariants hold
    and the sweeps equal dense triangular solves with the blocks' L, U."""
    a, _ = _random_system(n, density, hole, seed)
    sym = symbolic_lu_symmetrized(a)
    part = primitive_partition(sym, max_size=max_block, relax=relax)
    plan = build_block_plan(a, sym, part)
    _check_schedule(plan)
    assert plan.s_rows[-1].size == 0
    # any block values: here the factors of a
    f = supernodal_factor(a, plan=plan)
    lmat, umat = (m.to_dense() for m in f.to_csc_factors())
    b = np.random.default_rng(seed).standard_normal((n, 3))
    want = np.linalg.solve(umat, np.linalg.solve(lmat, b))
    got = plan.solve.apply(plan.solve.values(f.values), b)
    # normwise forward bound of a substitution: ‖|U⁻¹||L⁻¹||b|‖∞ · n · eps
    scale = np.abs(np.linalg.inv(umat)) @ np.abs(np.linalg.inv(lmat)) \
        @ np.abs(b)
    assert np.abs(got - want).max() <= 1e3 * n * EPS * scale.max()


def test_schedule_of_the_empty_and_the_1x1_system():
    for n in (0, 1):
        a = CSCMatrix.from_dense(2.0 * np.eye(n))
        sym = symbolic_lu_symmetrized(a)
        plan = build_block_plan(a, sym, block_partition(sym))
        _check_schedule(plan)
        solver = GESPSolver(a, cache=False)
        for shape in ((n,), (n, 1), (n, 3)):
            x = solver.solve_once(np.ones(shape))
            assert x.shape == shape and np.array_equal(x, np.full(shape, .5))


# --------------------------------------------------------------------- #
# (ii) schedule ≡ column sweeps, over the testbed
# --------------------------------------------------------------------- #

def _sweeps(factors, b):
    return solve_upper_csc(factors.u,
                           solve_lower_csc(factors.l, b, unit_diagonal=True))


def test_schedule_matches_the_column_sweeps_over_the_testbed(testbed):
    worst = {}
    for name, (a, _, solver) in testbed.items():
        plan, at = solver._block_plan, solver.a_factored
        _check_schedule(plan)
        rng = np.random.default_rng(a.ncols)
        block = rng.standard_normal((a.ncols, 8))
        phase = 1.0 + 0.2j * rng.uniform(-1, 1, at.nnz)
        for label, values in (("fp64", at.nzval),
                              ("complex", at.nzval * phase)):
            factors = supernodal_factor(
                CSCMatrix(at.nrows, at.ncols, at.colptr, at.rowind, values,
                          check=False), plan=plan).to_gesp_factors()
            if label == "fp64":         # what the solver itself holds
                assert np.array_equal(factors.u.nzval,
                                      solver.factors.u.nzval)
            assert factors.sweeps is not None
            assert factors.u.nzval.dtype == values.dtype
            x = factors.solve(block)
            assert x.dtype == np.result_type(values.dtype, np.float64)
            want = _sweeps(factors, block)
            err = np.abs(x - want).max() / np.abs(want).max()
            assert err <= 1e-8, (name, label, err)
            worst[label] = max(worst.get(label, 0.0), err)
            # one vector, a block of one, a block of eight: bit for bit
            for t in range(8):
                single = factors.solve(block[:, t])
                assert single.shape == (a.ncols,)
                assert np.array_equal(single, x[:, t]), (name, label, t)
            assert np.array_equal(factors.solve(block[:, :1]), x[:, :1])
    assert all(0.0 < err <= 1e-8 for err in worst.values()), worst


def test_oracle_configurations_keep_the_column_sweeps(rng):
    from conftest import random_nonsingular_dense

    a = CSCMatrix.from_dense(random_nonsingular_dense(rng, 30))
    b = rng.standard_normal((30, 4))
    assert GESPSolver(a, cache=False).factors.sweeps is not None
    for options in (GESPOptions.paper_defaults(),
                    GESPOptions(aggressive_pivot_replacement=True)):
        solver = GESPSolver(a, options, cache=False)
        assert solver.factors.sweeps is None
        x = solver.solve_once(b)            # a block through the sweeps
        for t in range(4):
            assert np.array_equal(x[:, t], solver.solve_once(b[:, t]))
        assert solver.solve_multi(b).converged


# --------------------------------------------------------------------- #
# (iv) outcome classes, (v) shared state
# --------------------------------------------------------------------- #

def test_replaced_pivot_inside_a_block_refines_to_certification():
    # a dense 6×6 (one supernode) whose second pivot cancels exactly
    rng = np.random.default_rng(5)
    d = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    d[1, 1] = d[1, 0] * d[0, 1] / d[0, 0]
    a = CSCMatrix.from_dense(d)
    solver = GESPSolver(a, GESPOptions(equilibrate=False, row_perm="none",
                                       col_perm="natural"), cache=False)
    assert solver._block_plan.part.nsuper == 1
    assert solver.factors.n_tiny_pivots == 1
    rep = solver.solve(d @ np.ones(6))
    assert rep.converged and rep.berr <= 2 * EPS and rep.refine_steps >= 1
    assert np.allclose(rep.x, 1.0, atol=1e-8)


def test_nonfinite_block_reports_unconverged_not_an_exception():
    rng = np.random.default_rng(6)
    d = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    a = CSCMatrix.from_dense(d)
    solver = GESPSolver(a, cache=False)
    bad = a.nzval.copy()
    bad[0] = np.nan
    solver.refactor(CSCMatrix(6, 6, a.colptr, a.rowind, bad, check=False))
    rep = solver.solve(np.ones(6))
    assert not rep.converged and not np.isfinite(rep.berr)
    assert rep.refine_steps == 0
    multi = solver.solve_multi(np.ones((6, 2)))
    assert not multi.converged and not np.isfinite(multi.berr)


def test_two_threads_on_one_solver_get_the_single_thread_answers():
    """``solve_once``, ``solve`` and ``solve_multi`` — what service
    workers run on one resident solver — read the schedule and its values
    and write nothing shared: a solver that was handed no tracer records
    its solves into the calling thread's ambient tracer, not into a span
    stack of its own."""
    a = next(tm for tm in testbed_53() if tm.name == "cfd03").build()
    solver = GESPSolver(a, cache=False)
    rng = np.random.default_rng(7)
    rhs = [rng.standard_normal((a.ncols, 4)) for _ in range(3)]

    def answers():
        return [(np.stack([solver.solve_once(b[:, 0]),
                           solver.solve(b[:, 0]).x]),
                 solver.solve_multi(b).x) for b in rhs]

    want = answers()
    got, errors = {}, []

    def client(tid):
        try:
            for _ in range(5):
                got[tid] = answers()
        except BaseException as exc:    # surfaced by the assert below
            errors.append(exc)
            raise

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(t,))
                   for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(120.0)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(th.is_alive() for th in threads)
    for tid in range(4):
        for (x1, xm), (w1, wm) in zip(got[tid], want):
            assert np.array_equal(x1, w1) and np.array_equal(xm, wm)
