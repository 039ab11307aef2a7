"""Unit tests for iterative refinement and the componentwise backward error."""

import numpy as np
import pytest

from repro.factor import gesp_factor
from repro.solve import componentwise_backward_error, iterative_refinement
from repro.sparse import CSCMatrix

from conftest import random_nonsingular_dense

EPS = float(np.finfo(np.float64).eps)


def test_berr_zero_for_exact_solution():
    d = np.array([[2.0, 1.0], [0.0, 3.0]])
    a = CSCMatrix.from_dense(d)
    x = np.array([1.0, 2.0])
    b = d @ x
    assert componentwise_backward_error(a, x, b) <= 4 * EPS


def test_berr_oettli_prager_formula(rng):
    d = random_nonsingular_dense(rng, 8, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    x = rng.standard_normal(8)
    b = rng.standard_normal(8)
    r = b - d @ x
    ref = np.max(np.abs(r) / (np.abs(d) @ np.abs(x) + np.abs(b)))
    assert componentwise_backward_error(a, x, b) == pytest.approx(ref)


def test_berr_finite_with_zero_rows():
    # a zero row with zero rhs has zero residual (|Ax| <= |A||x|), so the
    # zero-denominator row is consistently skipped and berr stays finite
    d = np.array([[1.0, 0.0], [0.0, 0.0]])
    a = CSCMatrix.from_dense(d)
    x = np.array([1.0, 1.0])
    b = np.array([0.0, 0.0])
    assert componentwise_backward_error(a, x, b) == pytest.approx(1.0)


def test_berr_skips_consistent_zero_rows():
    d = np.array([[1.0, 0.0], [0.0, 0.0]])
    a = CSCMatrix.from_dense(d)
    x = np.array([2.0, 0.0])
    b = np.array([2.0, 0.0])
    assert componentwise_backward_error(a, x, b) <= EPS


def test_refinement_converges_to_eps(rng):
    # weak diagonal: the raw solve is poor, refinement fixes it
    n = 40
    d = random_nonsingular_dense(rng, n, hidden_perm=False)
    d += np.eye(n) * 1e-8
    a = CSCMatrix.from_dense(d)
    f = gesp_factor(a)
    b = d @ np.ones(n)
    res = iterative_refinement(a, f.solve, b)
    assert res.berr <= 2 * EPS
    assert res.converged
    assert np.allclose(res.x, 1.0, atol=1e-6)


def test_refinement_counts_steps(rng):
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    f = gesp_factor(a)
    b = d @ np.ones(20)
    res = iterative_refinement(a, f.solve, b)
    assert res.steps >= 0
    assert len(res.berr_history) == res.steps + 1


def test_refinement_stagnation_detected():
    # a "solver" that always returns a fixed wrong answer: berr stagnates
    d = np.array([[1.0, 0.5], [0.25, 1.0]])
    a = CSCMatrix.from_dense(d)
    b = np.array([1.0, 1.0])

    def bad_solve(r):
        return np.array([0.1, 0.1])

    res = iterative_refinement(a, bad_solve, b, max_steps=10)
    assert not res.converged
    assert res.steps < 10  # stopped by stagnation, not the cap


def test_refinement_keeps_best_iterate():
    d = np.array([[1.0, 0.0], [0.0, 1.0]])
    a = CSCMatrix.from_dense(d)
    b = np.array([1.0, 1.0])
    calls = {"n": 0}

    def worsening_solve(r):
        calls["n"] += 1
        if calls["n"] == 1:
            return b * 0.99   # close
        return np.array([50.0, -50.0])  # a step that would make it worse

    res = iterative_refinement(a, worsening_solve, b, max_steps=5)
    # the damaging step must have been rolled back
    assert np.abs(res.x - b * 0.99).max() < 1e-12


def test_refinement_max_steps_cap():
    d = np.array([[1.0, 0.0], [0.0, 1.0]])
    a = CSCMatrix.from_dense(d)
    b = np.array([1.0, 1.0])

    def slow_solve(r):
        return 0.5 * np.asarray(r)  # converges slowly (never stagnates)

    res = iterative_refinement(a, slow_solve, b, max_steps=3)
    assert res.steps <= 3


def test_extra_precision_residual(rng):
    d = random_nonsingular_dense(rng, 15, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    f = gesp_factor(a)
    b = d @ np.ones(15)
    res = iterative_refinement(a, f.solve, b, extra_precision=True)
    assert res.berr <= 2 * EPS


def test_x0_used():
    d = np.eye(3) * 2.0
    a = CSCMatrix.from_dense(d)
    b = np.array([2.0, 4.0, 6.0])
    res = iterative_refinement(a, lambda r: np.asarray(r) / 2.0, b,
                               x0=np.array([1.0, 2.0, 3.0]))
    assert res.steps == 0
    assert res.berr <= EPS


# --------------------------------------------------------------------- #
# what "converged" means at a stagnation stop (decided in refine.py)
# --------------------------------------------------------------------- #

def _scripted_berr(monkeypatch, values):
    """Make the loop's next iterate evaluations return ``values`` (in
    eps) — it patches the one helper the loop evaluates iterates with."""
    import repro.solve.refine as refine_mod

    seq = iter(values)
    monkeypatch.setattr(
        refine_mod, "_evaluate",
        lambda a, x, b, extra: (np.zeros_like(b), next(seq) * EPS))


@pytest.mark.parametrize("history, converged, berr, steps", [
    ([1.7, 1.09], True, 1.09, 1),      # stalled a hair above eps
    ([1.9, 1.95], True, 1.9, 1),       # worse step rolled back, in slack
    ([5.0, 3.0], False, 3.0, 1),       # stalled outside the slack
    ([1.7, 0.9], True, 0.9, 1),        # the target itself
    ([1.7], False, 1.7, 0),            # no slack without a stagnation stop
])
def test_stagnation_stop_within_slack_is_converged(monkeypatch, history,
                                                   converged, berr, steps):
    from repro.solve.refine import STAGNATION_SLACK

    assert STAGNATION_SLACK == 2.0
    _scripted_berr(monkeypatch, history)
    a = CSCMatrix.from_dense(np.eye(2))
    res = iterative_refinement(a, lambda r: np.zeros(2), np.ones(2),
                               max_steps=len(history) - 1)
    assert res.converged is converged
    assert res.berr == berr * EPS and res.steps == steps


def test_solve_multi_applies_the_same_slack_per_column(monkeypatch, rng):
    """Columns start at 0.9, 1.5 and 4 eps: the first is certified and
    never evaluated again, the other two stall after one correction at
    1.2 (inside the slack) and 3 eps (outside it)."""
    from repro.driver import GESPSolver

    d = random_nonsingular_dense(rng, 12, hidden_perm=False)
    s = GESPSolver(CSCMatrix.from_dense(d), cache=False)
    #                 first solve      one correction of columns 1, 2
    _scripted_berr(monkeypatch, [0.9, 1.5, 4.0, 1.2, 3.0])
    res = s.solve_multi(rng.standard_normal((12, 3)))
    assert res.steps == 1 and not res.converged
    assert res.col_converged.tolist() == [True, True, False]
    assert res.berrs.tolist() == [0.9 * EPS, 1.2 * EPS, 3.0 * EPS]
    assert res.col_steps.tolist() == [0, 1, 1]
    _scripted_berr(monkeypatch, [0.9, 1.5, 1.9, 1.2, 1.6])
    res = s.solve_multi(rng.standard_normal((12, 3)))
    assert res.converged and res.col_converged.all()
    assert res.berr == 1.6 * EPS
