"""An answer does not depend on its batch-mates.

Step (4) is one loop (``repro.solve.refine.refine_block``) that applies
the paper's stopping rule to every column of a block on its own, so
``solve_multi(B)`` column t is what ``solve(B[:, t])`` returns:

- bit for bit in all five fields (x, berr, step count, berr history,
  converged) wherever ``solve_once`` gives a column of a block the bits
  it gives the vector alone — the default engine (real, complex) and the column oracle on real systems;
- to rounding, and certified alike, where it does not: a dense block
  operation inside ``solve_once`` (an active Woodbury correction,
  diagonal-block pivoting — ``gemm`` is not column-bit-stable), and the
  column sweeps on complex values (numpy's complex multiply rounds
  differently in its 1-D and its broadcast loop).
"""

import numpy as np
import pytest

from repro.driver import GESPOptions, GESPSolver
from repro.obs import Tracer, use_tracer
from repro.sparse import CSCMatrix

from test_complex import random_complex

EPS = float(np.finfo(np.float64).eps)
WIDTHS = (1, 3, 8)


def block_for(a, seed, dtype=np.float64):
    """Eight right-hand sides: ``A·1``, one that is certified at once
    (zero), six random."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((a.ncols, 8)).astype(dtype)
    if dtype is np.complex128:
        b += 1j * rng.standard_normal(b.shape)
    b[:, 0] = a @ np.ones(a.ncols)
    b[:, 1] = 0.0
    return b


def solve_multi_with_histories(solver, block):
    """``solve_multi`` plus every column's berr history, decoded from the
    ``berr`` events of the ``refine`` span (columns in order, ``step``
    restarting at 0) — the solver was built untraced, so its solves
    record into the tracer installed here."""
    tracer = Tracer()
    with use_tracer(tracer):
        res = solver.solve_multi(block)
    histories = []
    for ev in tracer.root.find("solve").find("refine").events:
        if ev["step"] == 0:
            histories.append([])
        histories[-1].append(ev["berr"])
    assert tracer.root.total("refine.steps") == res.col_steps.sum()
    return res, histories


def assert_columns_are_the_single_solves(solver, block, label):
    singles = [solver.solve(block[:, t]) for t in range(block.shape[1])]
    for k in WIDTHS:
        res, histories = solve_multi_with_histories(solver, block[:, :k])
        assert res.steps == res.col_steps.max(), label
        assert res.berr == res.berrs.max() or np.isnan(res.berr), label
        assert res.converged == bool(res.col_converged.all()), label
        for t in range(k):
            one, where = singles[t], (label, k, t)
            assert np.array_equal(res.x[:, t], one.x), where
            assert res.berrs[t] == one.berr, where
            assert res.col_steps[t] == one.refine_steps, where
            assert histories[t] == one.berr_history, where
            assert bool(res.col_converged[t]) == one.converged, where
    return singles


def test_block_columns_equal_single_solves_over_the_testbed(testbed,
                                                            testbed_oracles):
    """All 53 matrices × {default engine, column oracle} × k = 1, 3, 8."""
    for name, (a, _, default) in testbed.items():
        block = block_for(a, a.ncols)
        assert_columns_are_the_single_solves(default, block, (name, "default"))
        assert_columns_are_the_single_solves(testbed_oracles[name], block,
                                             (name, "oracle"))


def complex_system(seed):
    """The complex instances of tests/test_complex.py."""
    rng = np.random.default_rng(seed)
    return CSCMatrix.from_dense(
        random_complex(rng, 30, zero_diag=bool(seed % 2)))


def test_block_columns_equal_single_solves_complex():
    for seed in range(6):
        a = complex_system(seed)
        assert_columns_are_the_single_solves(
            GESPSolver(a, cache=False), block_for(a, seed, np.complex128),
            ("complex", seed))


def assert_follows_the_rule(history, steps, converged, options):
    """One column's kept iterates and step count, read against the
    paper's rule."""
    eps, factor = options.refine_eps, 2     # berr must halve per step
    # a dropped (worse) correction is counted but not kept
    assert len(history) in (steps, steps + 1) and history
    # refinement went on only above the target, and while berr halved
    assert all(b > eps for b in history[:-1])
    assert all(nxt <= b / factor for b, nxt in zip(history, history[1:-1]))
    last = history[-1]
    stalled = len(history) == steps or (
        len(history) > 1 and last > history[-2] / factor)
    assert converged == (last <= eps or (stalled and last <= 2 * eps))


def assert_columns_certify_alike(solver, block, label):
    """No bitwise claim — the certificate is the test: every column
    ``solve`` certifies, ``solve_multi`` certifies within the same bar,
    and each column's history follows the same rule."""
    res, histories = solve_multi_with_histories(solver, block)
    for t in range(block.shape[1]):
        one = solver.solve(block[:, t])
        assert one.converged and res.col_converged[t], (label, t)
        assert res.berrs[t] <= 2 * EPS, (label, t)
        assert_follows_the_rule(histories[t], res.col_steps[t],
                                bool(res.col_converged[t]), solver.options)
        assert np.allclose(res.x[:, t], one.x, rtol=1e-8, atol=1e-12)
    # ... and a block of one column is the vector solve under any engine
    # (what a service request that found no batch-mates goes through)
    alone, one = solver.solve_multi(block[:, :1]), solver.solve(block[:, 0])
    assert np.array_equal(alone.x[:, 0], one.x), label
    assert (alone.berrs[0], alone.col_steps[0]) == (one.berr,
                                                    one.refine_steps), label


SMALL = ("cfd01", "device01", "circuit01", "fem01", "chem01", "chem02",
         "kkt01", "gen01")


@pytest.mark.parametrize("options", [
    GESPOptions(aggressive_pivot_replacement=True, tiny_pivot_scale=0.05),
    GESPOptions(diag_block_pivoting=0.5),
], ids=["woodbury", "diag_block_pivoting"])
def test_dense_block_ops_inside_solve_once_certify_alike(testbed, options):
    corrected = 0
    for name in SMALL:
        a = testbed[name][0]
        solver = GESPSolver(a, options, cache=False)
        corrected += solver._smw is not None
        assert_columns_certify_alike(solver, block_for(a, a.ncols), name)
    if options.aggressive_pivot_replacement:
        assert corrected >= 3        # a Woodbury correction was active


def test_complex_column_sweeps_certify_alike():
    for seed in range(6):
        a = complex_system(seed)
        assert_columns_certify_alike(
            GESPSolver(a, GESPOptions.paper_defaults(), cache=False),
            block_for(a, seed, np.complex128), ("complex oracle", seed))


def test_nonfinite_column_stops_alone(testbed):
    a, b, solver = testbed["cfd03"]
    block = block_for(a, 3)[:, :4]
    block[0, 2] = np.nan
    res = solver.solve_multi(block)
    assert not res.converged and not np.isfinite(res.berr)
    assert res.col_converged.tolist() == [True, True, False, True]
    assert not np.isfinite(res.berrs[2]) and res.col_steps[2] == 0
    for t in (0, 1, 3):                  # its mates: as if it were not there
        one = solver.solve(block[:, t])
        assert np.array_equal(res.x[:, t], one.x)
        assert res.col_steps[t] == one.refine_steps
