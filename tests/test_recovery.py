"""End-to-end tests of the solve-recovery ladder (repro.recovery).

The contract under test: a solve that cannot be certified NEVER comes
back looking like a success — ``converged`` is False and ``failure``
carries a classified diagnosis — and a solve that *can* be rescued is,
with the escalation path recorded in the report and the trace.
"""

import numpy as np

from repro import CSCMatrix, GESPOptions, GESPSolver, recover_solve
from repro.obs import Tracer, use_tracer
from repro.recovery import FailureKind, RUNGS, check_structure
from repro.solve.refine import RefinementResult, iterative_refinement

SQRT_EPS = float(np.sqrt(np.finfo(np.float64).eps))

RAW_OPTS = dict(row_perm="none", scale_diagonal=False, equilibrate=False,
                col_perm="natural")


def graded_matrix(n=40, expo=-12, seed=0):
    """Dense ill-conditioned matrix with graded singular values."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(np.logspace(0, expo, n)) @ q2


# --------------------------------------------------------------------- #
# happy path
# --------------------------------------------------------------------- #

def test_healthy_system_certifies_on_first_rung():
    rng = np.random.default_rng(3)
    n = 30
    d = np.diag(rng.uniform(1, 2, n)) + 0.1 * rng.standard_normal((n, n))
    a = CSCMatrix.from_dense(d)
    b = d @ np.ones(n)
    rep = recover_solve(a, b)
    assert rep.converged
    assert rep.berr <= SQRT_EPS
    assert rep.failure is None
    assert rep.recovery.path == ["gesp"]
    assert rep.recovery.final_rung == "gesp"
    np.testing.assert_allclose(rep.x, np.ones(n), rtol=1e-8)


# --------------------------------------------------------------------- #
# structural singularity: rejected up front, classified
# --------------------------------------------------------------------- #

def test_structurally_singular_is_classified_not_silent():
    d = np.eye(6)
    d[:, 2] = 0.0                      # empty column: no transversal
    a = CSCMatrix.from_dense(d)
    rep = recover_solve(a, np.ones(6))
    assert not rep.converged
    assert rep.failure is not None
    assert rep.failure.kind == FailureKind.STRUCTURAL_SINGULARITY
    assert rep.failure.data["deficiency"] == 1
    assert 2 in rep.failure.data["unmatched_columns"]
    # no plausible-looking garbage solution
    assert np.isnan(rep.x).all()
    # the ladder never got past the gate
    assert rep.recovery.path == ["gesp"]
    assert not rep.recovery.certified


def test_check_structure_accepts_full_transversal():
    a = CSCMatrix.from_dense(np.eye(5) + np.diag(np.ones(4), 1))
    assert check_structure(a) is None


# --------------------------------------------------------------------- #
# numerical singularity
# --------------------------------------------------------------------- #

def test_numerically_singular_inconsistent_system_is_diagnosed():
    # exactly rank-deficient, rhs far from the range: no rung can
    # certify, and the report must say why instead of handing back x
    rng = np.random.default_rng(7)
    d = rng.standard_normal((10, 10))
    d[:, 4] = d[:, 7]                  # exact linear dependence
    a = CSCMatrix.from_dense(d)
    b = rng.standard_normal(10) * 1e6
    opts = GESPOptions(replace_tiny_pivots=False, **RAW_OPTS)
    rep = recover_solve(a, b, target=1e-12, options=opts)
    if rep.converged:
        # if some rung legitimately certified, the bar must be honest
        assert rep.berr <= 1e-12
    else:
        assert rep.failure is not None
        assert rep.failure.kind in (FailureKind.NUMERICAL_SINGULARITY,
                                    FailureKind.BERR_STAGNATION)
        # every configured rung was tried before giving up
        assert rep.recovery.path[-1] == "gmres_ilu"


def test_zero_pivot_without_replacement_escalates():
    # replace_tiny_pivots off + exact zero pivot: rung 1 raises, the
    # ladder's refactor rung (aggressive replacement) must rescue
    d = np.array([[0.0, 1.0], [1.0, 0.0]])
    a = CSCMatrix.from_dense(d)
    b = np.array([1.0, 2.0])
    opts = GESPOptions(replace_tiny_pivots=False, **RAW_OPTS)
    rep = recover_solve(a, b, options=opts)
    assert rep.converged
    assert rep.berr <= SQRT_EPS
    assert rep.recovery.path[0] == "gesp"
    assert len(rep.recovery.path) > 1
    gesp_att = rep.recovery.rungs[0]
    assert any(dg.kind == FailureKind.NUMERICAL_SINGULARITY
               for dg in gesp_att.diagnoses)
    np.testing.assert_allclose(rep.x, [2.0, 1.0], atol=1e-12)


# --------------------------------------------------------------------- #
# all-tiny-pivot matrices
# --------------------------------------------------------------------- #

def test_all_tiny_pivots_flagged_and_solved():
    # uniformly tiny diagonal: every pivot below sqrt(eps)*||A|| when
    # scaling is off, so every one is replaced -> excessive_tiny_pivots
    # must be flagged on the first rung even though the (well-scaled-in-
    # disguise) system is ultimately solvable
    n = 12
    a = CSCMatrix.from_dense(np.eye(n) * 1e-30 + np.diag(np.ones(n - 1), 1))
    b = (np.eye(n) * 1e-30 + np.diag(np.ones(n - 1), 1)) @ np.ones(n)
    opts = GESPOptions(**RAW_OPTS)
    rep = recover_solve(a, b, options=opts)
    flagged = [dg.kind for att in rep.recovery.rungs for dg in att.diagnoses]
    assert rep.recovery.rungs[0].rung == "gesp"
    if rep.converged:
        assert rep.berr <= SQRT_EPS
    else:
        assert rep.failure is not None
    # the factor health check saw the wall of replaced pivots
    assert FailureKind.EXCESSIVE_TINY_PIVOTS in flagged


# --------------------------------------------------------------------- #
# the acceptance case: stagnating GESP rescued, path in the trace
# --------------------------------------------------------------------- #

def test_stagnating_solve_is_rescued_with_visible_path():
    d = graded_matrix(n=40, expo=-12, seed=0)
    a = CSCMatrix.from_dense(d)
    b = d @ np.ones(40)
    opts = GESPOptions(**RAW_OPTS)

    # baseline GESP genuinely stagnates above the certification target
    base = GESPSolver(a, GESPOptions(**RAW_OPTS)).solve(b)
    assert not base.converged
    assert base.berr > SQRT_EPS

    tracer = Tracer()
    with use_tracer(tracer):
        rep = recover_solve(a, b, options=opts)
    assert rep.converged
    assert rep.berr <= SQRT_EPS
    assert rep.failure is None
    # it took more than the baseline rung
    assert len(rep.recovery.path) >= 2
    assert rep.recovery.path[0] == "gesp"
    assert rep.recovery.final_rung != "gesp"
    assert rep.recovery.rungs[-1].certified
    # escalation causes are recorded
    assert all(att.triggered_by for att in rep.recovery.rungs[1:])

    # ... and the whole story is visible in the trace record
    tracer.finish()
    span_names = [s.name for s in tracer.root.walk()]
    for rung in rep.recovery.path:
        assert f"recovery/{rung}" in span_names
    counters = tracer.root.all_counters()
    assert counters["recovery.attempts"] == len(rep.recovery.path)
    assert counters["recovery.rescues"] == 1
    assert "recovery.failures" not in counters
    rung_events = [e for s in tracer.root.walk() for e in s.events
                   if e["name"] == "rung"]
    assert [e["rung"] for e in rung_events] == rep.recovery.path


def test_failure_counts_and_event_trail_on_exhaustion():
    d = np.eye(6)
    d[:, 2] = 0.0
    a = CSCMatrix.from_dense(d)
    tracer = Tracer()
    with use_tracer(tracer):
        rep = recover_solve(a, np.ones(6))
    tracer.finish()
    counters = tracer.root.all_counters()
    assert counters["recovery.failures"] == 1
    assert "recovery.rescues" not in counters
    assert not rep.converged


# --------------------------------------------------------------------- #
# ladder bookkeeping invariants
# --------------------------------------------------------------------- #

def test_rungs_are_attempted_in_ladder_order():
    rng = np.random.default_rng(7)
    d = rng.standard_normal((10, 10))
    d[:, 4] = d[:, 7]
    a = CSCMatrix.from_dense(d)
    opts = GESPOptions(replace_tiny_pivots=False, **RAW_OPTS)
    rep = recover_solve(a, rng.standard_normal(10) * 1e6,
                        target=1e-13, options=opts)
    order = {r: i for i, r in enumerate(RUNGS)}
    idx = [order[r] for r in rep.recovery.path]
    assert idx == sorted(idx)
    assert all(r in RUNGS for r in rep.recovery.path)


def test_uncertified_reports_always_carry_a_diagnosis():
    # the "never silently fails" contract, stated directly
    cases = [
        np.diag([1.0, 1.0, 0.0]),                        # singular
        graded_matrix(n=20, expo=-14, seed=5),           # hopeless cond
    ]
    for d in cases:
        a = CSCMatrix.from_dense(d)
        rep = recover_solve(a, np.ones(d.shape[0]),
                            options=GESPOptions(**RAW_OPTS))
        assert rep.converged == (rep.failure is None)
        if not rep.converged:
            assert rep.failure.kind in FailureKind.ALL
            assert rep.recovery is not None


def test_enable_woodbury_is_idempotent_and_reports_activation():
    d = graded_matrix(n=30, expo=-12, seed=0)
    a = CSCMatrix.from_dense(d)
    sv = GESPSolver(a, GESPOptions(**RAW_OPTS))
    assert sv.factors.perturbed_columns.size > 0
    assert sv._smw is None
    assert sv.enable_woodbury()
    smw = sv._smw
    assert sv.enable_woodbury()        # second call: no rebuild
    assert sv._smw is smw

    # with no perturbations there is nothing to enable
    healthy = CSCMatrix.from_dense(np.eye(4) * 2.0)
    sv2 = GESPSolver(healthy, GESPOptions(**RAW_OPTS))
    assert not sv2.enable_woodbury()
    assert sv2._smw is None


def test_complex_right_hand_side_is_not_truncated():
    """recover_solve used to cast b to float64 and solve A x = Re(b)."""
    rng = np.random.default_rng(4)
    n = 20
    d = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    d *= rng.random((n, n)) < 0.4
    np.fill_diagonal(d, 4.0 + 1.0j)
    a = CSCMatrix.from_dense(d)
    b = d @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    rep = recover_solve(a, b)
    assert rep.converged and rep.recovery.final_rung == "gesp"
    assert np.abs(rep.x - GESPSolver(a, cache=False).solve(b).x).max() \
        <= 1e-12


# --------------------------------------------------------------------- #
# satellite: refine bails out immediately on a non-finite initial berr
# --------------------------------------------------------------------- #

def test_refinement_bails_out_on_nonfinite_initial_berr():
    a = CSCMatrix.from_dense(np.eye(3))
    b = np.ones(3)
    calls = []

    def broken_solve(rhs):
        calls.append(1)
        return np.full(3, np.nan)

    res: RefinementResult = iterative_refinement(a, broken_solve, b,
                                                 max_steps=20)
    assert not res.converged
    assert not np.isfinite(res.berr)
    assert res.steps == 0
    assert len(calls) == 1             # no futile refinement loop
    assert res.berr_history and not np.isfinite(res.berr_history[0])
