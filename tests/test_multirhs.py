"""Multi right-hand-side solves: the triangular sweeps on a block of
right-hand sides (the same functions as for one) and the driver."""

import numpy as np
import pytest

from repro.driver import GESPOptions, GESPSolver
from repro.solve.triangular import solve_lower_csc, solve_upper_csc
from repro.sparse import CSCMatrix

from conftest import random_nonsingular_dense, random_sparse_dense

EPS = float(np.finfo(np.float64).eps)


def test_lower_multi_matches_single(rng):
    d = np.tril(random_sparse_dense(rng, 10, density=0.4), -1)
    np.fill_diagonal(d, 2.0 + rng.random(10))
    a = CSCMatrix.from_dense(d)
    b = rng.standard_normal((10, 4))
    x = solve_lower_csc(a, b)
    assert x.shape == b.shape
    for t in range(4):
        assert np.array_equal(x[:, t], solve_lower_csc(a, b[:, t]))


def test_lower_multi_unit_diag(rng):
    d = np.tril(random_sparse_dense(rng, 8, density=0.4), -1)
    np.fill_diagonal(d, 5.0)
    unit = d.copy()
    np.fill_diagonal(unit, 1.0)
    a = CSCMatrix.from_dense(d)
    b = rng.standard_normal((8, 3))
    x = solve_lower_csc(a, b, unit_diagonal=True)
    assert np.allclose(unit @ x, b, atol=1e-12)


def test_upper_multi_matches_single(rng):
    d = np.triu(random_sparse_dense(rng, 10, density=0.4), 1)
    np.fill_diagonal(d, 2.0 + rng.random(10))
    a = CSCMatrix.from_dense(d)
    b = rng.standard_normal((10, 5))
    x = solve_upper_csc(a, b)
    assert x.shape == b.shape
    for t in range(5):
        assert np.array_equal(x[:, t], solve_upper_csc(a, b[:, t]))


def test_multi_shape_validation():
    a = CSCMatrix.identity(3)
    assert solve_lower_csc(a, np.ones(3)).shape == (3,)      # one vector
    assert solve_upper_csc(a, np.ones((3, 1))).shape == (3, 1)
    with pytest.raises(ValueError):
        solve_lower_csc(a, np.ones((3, 2, 2)))
    with pytest.raises(ValueError):
        solve_upper_csc(a, np.ones((4, 2)))


def test_multi_missing_diagonal():
    a = CSCMatrix.from_dense(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ZeroDivisionError):
        solve_lower_csc(a, np.ones((2, 2)))


def test_driver_solve_multi(rng):
    d = random_nonsingular_dense(rng, 30, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    x_true = rng.standard_normal((30, 6))
    b = d @ x_true
    s = GESPSolver(a)
    res = s.solve_multi(b)
    assert res.berr <= 8 * EPS
    assert res.converged
    assert np.abs(res.x - x_true).max() < 1e-6


def test_driver_solve_multi_matches_single(rng):
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    b = rng.standard_normal((20, 3))
    s = GESPSolver(a)
    x = s.solve_multi(b, refine=False).x
    for t in range(3):
        single = s.solve(b[:, t], refine=False)
        assert np.allclose(x[:, t], single.x, atol=1e-12)


def test_driver_solve_multi_with_smw(rng):
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    opts = GESPOptions(aggressive_pivot_replacement=True,
                       tiny_pivot_scale=0.05)
    s = GESPSolver(a, opts)
    x_true = rng.standard_normal((20, 2))
    x = s.solve_multi(d @ x_true).x
    assert np.abs(x - x_true).max() < 1e-6


def test_driver_solve_multi_complex(rng):
    n = 15
    d = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d *= rng.random((n, n)) < 0.4
    np.fill_diagonal(d, 4.0 + 1j)
    a = CSCMatrix.from_dense(d)
    x_true = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    s = GESPSolver(a)
    x = s.solve_multi(d @ x_true).x
    assert np.abs(x - x_true).max() < 1e-7


def test_driver_solve_multi_rejects_1d(rng):
    d = random_nonsingular_dense(rng, 10, hidden_perm=False)
    s = GESPSolver(CSCMatrix.from_dense(d))
    with pytest.raises(ValueError):
        s.solve_multi(np.ones(10))


def test_driver_solve_multi_rollback_on_stagnation(rng):
    """Regression for the stagnation path: a correction that makes the
    worst-column berr *worse* must be rolled back (the better iterate is
    returned), mirroring repro/solve/refine.py, and ``converged`` must
    say False."""
    d = random_nonsingular_dense(rng, 25, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    s = GESPSolver(a)
    b = rng.standard_normal((25, 3))

    from repro.driver.gesp_driver import MultiSolveResult

    # an impossible target forces the loop to run until stagnation
    import dataclasses

    s.options = dataclasses.replace(s.options, refine_eps=0.0)
    res = s.solve_multi(b, max_steps=10)
    assert isinstance(res, MultiSolveResult)
    assert not res.converged
    # the returned iterate is the best one seen: re-evaluating its berr
    # reproduces res.berr, and one more correction would not improve it
    # by the stagnation factor
    from repro.solve.refine import componentwise_backward_error

    worst = max(componentwise_backward_error(a, res.x[:, t], b[:, t])
                for t in range(3))
    assert worst == res.berr
    assert res.berr <= 8 * EPS  # still an excellent solution


def test_driver_solve_multi_nonfinite_bails(rng):
    """A non-finite initial berr cannot be refined away: solve_multi
    must return immediately with converged=False instead of iterating
    on garbage."""
    n = 6
    d = np.zeros((n, n))
    d[0, 0] = 1e-300
    for j in range(1, n):
        d[j, j] = 1.0
    d[0, 1] = 1.0
    a = CSCMatrix.from_dense(d)
    opts = GESPOptions(equilibrate=False, scale_diagonal=False,
                       replace_tiny_pivots=False)
    s = GESPSolver(a, opts)
    b = np.zeros((n, 2))
    b[0, :] = 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        res = s.solve_multi(b, max_steps=5)
    if not np.isfinite(res.berr):
        assert res.steps == 0
        assert not res.converged


def test_driver_solve_multi_extra_precision(rng):
    """opts.extra_precision_residual must flow into the block residuals
    and berr evaluation exactly like the single-RHS path."""
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    b = rng.standard_normal((20, 3))
    sx = GESPSolver(a, GESPOptions(extra_precision_residual=True))
    res = sx.solve_multi(b)
    assert res.converged
    for t in range(3):
        single = sx.solve(b[:, t])
        assert np.allclose(res.x[:, t], single.x, rtol=1e-12, atol=1e-14)


def test_distributed_multirhs(rng):
    from repro.driver.dist_driver import DistributedGESPSolver

    d = random_nonsingular_dense(rng, 35, zero_diag=True)
    a = CSCMatrix.from_dense(d)
    s = DistributedGESPSolver(a, nprocs=6)
    x_true = rng.standard_normal((35, 4))
    run = s.solve_distributed_multi(d @ x_true)
    assert np.abs(run.x - x_true).max() < 1e-6


def test_distributed_multirhs_message_count_independent_of_nrhs(rng):
    """The §5 point: a block solve uses the same messages as a single
    solve — only the payload widens."""
    from repro.driver.dist_driver import DistributedGESPSolver

    d = random_nonsingular_dense(rng, 30, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    s = DistributedGESPSolver(a, nprocs=6)
    one = s.solve_distributed(d @ np.ones(30))
    many = s.solve_distributed_multi(d @ rng.standard_normal((30, 8)))
    assert many.total_messages == one.total_messages
    # but it moves more bytes
    lower_bytes_one = sum(st.bytes_sent for st in one.lower.stats)
    lower_bytes_many = sum(st.bytes_sent for st in many.lower.stats)
    assert lower_bytes_many > lower_bytes_one


def test_distributed_multirhs_rejects_1d(rng):
    from repro.driver.dist_driver import DistributedGESPSolver

    d = random_nonsingular_dense(rng, 15, hidden_perm=False)
    s = DistributedGESPSolver(CSCMatrix.from_dense(d), nprocs=2)
    with pytest.raises(ValueError):
        s.solve_distributed_multi(np.ones(15))


# --------------------------------------------------------------------- #
# per-column berrs / col_converged (the repro.service contract)
# --------------------------------------------------------------------- #

def test_driver_solve_multi_per_column_aggregates(rng):
    d = random_nonsingular_dense(rng, 25, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    b = rng.standard_normal((25, 5))
    res = GESPSolver(a).solve_multi(b)
    assert res.berrs.shape == (5,)
    assert res.col_converged.shape == (5,)
    assert res.col_converged.dtype == np.bool_
    # the scalar fields are exactly the worst-case aggregates
    assert res.berr == res.berrs.max()
    assert res.converged == bool(res.col_converged.all())
    assert res.converged
    # each column's reported berr is the berr of the returned iterate
    from repro.solve.refine import componentwise_backward_error

    for t in range(5):
        assert componentwise_backward_error(a, res.x[:, t], b[:, t]) \
            == res.berrs[t]


def test_driver_solve_multi_per_column_matches_single_solves(rng):
    d = random_nonsingular_dense(rng, 20, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    b = rng.standard_normal((20, 4))
    s = GESPSolver(a)
    res = s.solve_multi(b, refine=False)
    for t in range(4):
        single = s.solve(b[:, t], refine=False)
        assert np.isclose(res.berrs[t], single.berr, rtol=1e-12, atol=0)


def test_driver_solve_multi_per_column_convergence_split(rng):
    """An impossible per-column target flags every column individually;
    the aggregate stays consistent with the arrays under stagnation."""
    import dataclasses

    d = random_nonsingular_dense(rng, 25, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    s = GESPSolver(a)
    s.options = dataclasses.replace(s.options, refine_eps=0.0)
    res = s.solve_multi(rng.standard_normal((25, 3)), max_steps=4)
    assert not res.converged
    assert not res.col_converged.any()   # nobody can hit berr <= 0
    assert res.berr == res.berrs.max()
    assert np.all(res.berrs > 0.0)
