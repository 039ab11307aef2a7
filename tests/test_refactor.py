"""The pattern-reuse solve path: Fact modes, refactor(), FactorizationCache.

The contract under test (docs/REFACTORIZATION.md):

- ``SAME_PATTERN`` warm factorizations are **bit-identical** to a cold
  factorization of the same matrix (L, U, perm_r, perm_c);
- a wrong-pattern matrix raises a structured
  :class:`~repro.sparse.ops.PatternMismatchError` on every reuse
  surface, never garbage factors;
- cache misses fall back to a cold factorization (and seed the cache);
- ``factor.reuse_hits`` / ``factor.reuse_misses`` are visible in trace
  JSON;
- reuse composes with fault injection and the recovery ladder.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.driver import (
    FactorizationCache,
    GESPOptions,
    GESPSolver,
    MultiSolveResult,
)
from repro.driver.dist_driver import DistributedGESPSolver
from repro.driver.factcache import FACTOR_CACHE, serial_plan_key
from repro.obs import Tracer, use_tracer
from repro.sparse import CSCMatrix
from repro.sparse.ops import PatternMismatchError, pattern_fingerprint

from conftest import random_nonsingular_dense

EPS = float(np.finfo(np.float64).eps)


def _pair(rng, n=40, density=0.2, scale=1e-2):
    """Two matrices with identical sparsity patterns, different values."""
    d = random_nonsingular_dense(rng, n, density=density, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    a2 = CSCMatrix(a.nrows, a.ncols, a.colptr, a.rowind,
                   a.nzval * (1.0 + scale * rng.standard_normal(a.nnz)),
                   check=False)
    return a, a2


def _other_pattern(a, rng):
    """A matrix whose pattern provably differs from ``a``'s."""
    d = a.to_dense()
    i, j = 0, a.ncols - 1
    if d[i, j] == 0.0:
        d[i, j] = 1.0
    else:
        d[i, j] = 0.0
        d[i, (j + 1) % a.ncols] = d[i, (j + 1) % a.ncols] or 1.0
    out = CSCMatrix.from_dense(d)
    assert pattern_fingerprint(out) != pattern_fingerprint(a)
    return out


# --------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------- #

def test_fingerprint_ignores_values(rng):
    a, a2 = _pair(rng)
    assert pattern_fingerprint(a) == pattern_fingerprint(a2)


def test_fingerprint_sees_structure(rng):
    a, _ = _pair(rng)
    assert pattern_fingerprint(_other_pattern(a, rng)) != pattern_fingerprint(a)


# --------------------------------------------------------------------- #
# bit-identical warm factorization
# --------------------------------------------------------------------- #

def test_same_pattern_bit_identical_via_cache(rng):
    """A SAME_PATTERN warm construction must equal a cold factorization
    of the new matrix bit for bit."""
    a, a2 = _pair(rng)
    cache = FactorizationCache()
    GESPSolver(a, GESPOptions(fact="SAME_PATTERN"), cache=cache)
    warm = GESPSolver(a2, GESPOptions(fact="SAME_PATTERN"), cache=cache)
    cold = GESPSolver(a2, cache=False)
    assert np.array_equal(warm.perm_r, cold.perm_r)
    assert np.array_equal(warm.perm_c, cold.perm_c)
    assert np.array_equal(warm.factors.l.nzval, cold.factors.l.nzval)
    assert np.array_equal(warm.factors.u.nzval, cold.factors.u.nzval)
    assert np.array_equal(warm.factors.l.rowind, cold.factors.l.rowind)
    assert np.array_equal(warm.factors.u.rowind, cold.factors.u.rowind)


def test_same_pattern_bit_identical_via_refactor(rng):
    a, a2 = _pair(rng)
    s = GESPSolver(a, cache=False)
    s.refactor(a2, fact="SAME_PATTERN")
    cold = GESPSolver(a2, cache=False)
    assert np.array_equal(s.factors.l.nzval, cold.factors.l.nzval)
    assert np.array_equal(s.factors.u.nzval, cold.factors.u.nzval)
    assert np.array_equal(s.perm_r, cold.perm_r)
    assert np.array_equal(s.perm_c, cold.perm_c)


def _two_matchings(n=24, seed=5):
    """Two value sets on one pattern whose MC64 matchings provably
    differ.  The pattern is the diagonal, the cyclic subdiagonal and a
    sprinkle of small entries; the diagonal and the subdiagonal are its
    only two perfect matchings free of small entries, and which of the
    two dominates every column is swapped between ``a`` and ``a2``."""
    rng = np.random.default_rng(seed)
    d = np.where(rng.random((n, n)) < 0.1, 1e-3, 0.0)
    idx = np.arange(n)
    d2 = d.copy()
    d[idx, idx], d[(idx + 1) % n, idx] = 10.0, 1.0
    d2[idx, idx], d2[(idx + 1) % n, idx] = 1.0, 10.0
    a, a2 = CSCMatrix.from_dense(d), CSCMatrix.from_dense(d2)
    assert pattern_fingerprint(a) == pattern_fingerprint(a2)
    return a, a2


def _make(kind, a, **kw):
    """A serial or a distributed solver, by name (cache off)."""
    if kind == "serial":
        return GESPSolver(a, cache=False, **kw)
    return DistributedGESPSolver(a, nprocs=4, cache=False, **kw)


def _factor_values(s):
    """The numeric factors of either solver as a flat list of arrays."""
    if isinstance(s, GESPSolver):
        return [s.factors.l.nzval, s.factors.u.nzval]
    s.factorize()
    g = s.dist.gather_to_supernodal()
    return [*g.diag, *g.below, *g.right]


def _storage(s):
    """The object a refactorization either keeps (reuse) or replaces."""
    return s.symbolic if isinstance(s, GESPSolver) else s.dist


DRIVERS = ("serial", "distributed")


@pytest.mark.parametrize("kind", DRIVERS)
def test_same_pattern_moved_matching_downgrades_to_cold(kind):
    """When new values move the MC64 matching, SAME_PATTERN must fall
    back to a cold analysis — exactly one miss, no hit, said so on the
    trace — and produce factors bit-identical to a cold run."""
    a, a2 = _two_matchings()
    tracer = Tracer()
    s = _make(kind, a, tracer=tracer)
    perm_r_before, storage_before = s.perm_r, _storage(s)
    s.refactor(a2, fact="SAME_PATTERN")
    assert not np.array_equal(s.perm_r, perm_r_before)  # it did move
    counters = tracer.root.all_counters()
    assert counters["factor.reuse_misses"] == 1
    assert counters.get("factor.reuse_hits", 0) == 0
    assert tracer.root.find("refactor").attrs["reuse_downgraded"] == \
        "row_perm_changed"
    assert _storage(s) is not storage_before  # nothing stale survived
    cold = _make(kind, a2)
    assert np.array_equal(s.perm_r, cold.perm_r)
    assert np.array_equal(s.perm_c, cold.perm_c)
    for x, y in zip(_factor_values(s), _factor_values(cold)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("fact", ["DOFACT", "SAME_PATTERN",
                                  "SAME_PATTERN_SAME_ROWPERM"])
def test_both_drivers_share_one_preprocessing(rng, fact):
    """Steps (1)-(2) are one function: for every fact mode the two
    drivers compute the same row permutation and scalings."""
    a, a2 = _pair(rng, n=30)
    serial, dist = _make("serial", a), _make("distributed", a)
    for s in (serial, dist):
        s.refactor(a2, fact=fact)
    assert np.array_equal(serial.perm_r, dist.perm_r)
    assert np.array_equal(serial.dr, dist.dr)
    assert np.array_equal(serial.dc, dist.dc)


def test_dist_same_pattern_unmoved_matching_refills_in_place(rng):
    """Structures reused and block storage exists → refill in place,
    whichever reuse mode got there."""
    a, a2 = _pair(rng, n=30)
    tracer = Tracer()
    s = _make("distributed", a, tracer=tracer)
    perm_r_before = s.perm_r
    rank, key = next((r, k) for r in range(s.grid.size)
                     for k in s.dist.diag[r])
    block_before = s.dist.diag[rank][key]
    s.refactor(a2, fact="SAME_PATTERN")
    assert np.array_equal(s.perm_r, perm_r_before)
    assert tracer.root.all_counters()["factor.reuse_hits"] == 1
    assert s.dist.diag[rank][key] is block_before
    cold = _make("distributed", a2)
    for x, y in zip(_factor_values(s), _factor_values(cold)):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("kind", DRIVERS)
def test_failed_dofact_refactor_leaves_solver_intact(rng, kind):
    """A DOFACT refactorization that raises (here: a structurally
    singular matrix) must not commit anything — in particular not the
    new fingerprint, which would make the next SAME_PATTERN call on the
    old pattern a PatternMismatchError against its own factors."""
    from repro.scaling.matching import StructurallySingularError

    a, a2 = _pair(rng, n=20)
    d = a.to_dense()
    d[:, 3] = 0.0
    d[0, 3] = d[0, 4] = 1.0
    d[1:, 4] = 0.0  # columns 3 and 4 both live in row 0 only
    s = _make(kind, a)
    with pytest.raises(StructurallySingularError):
        s.refactor(CSCMatrix.from_dense(d), fact="DOFACT")
    assert s.a is a
    s.refactor(a2, fact="SAME_PATTERN")
    rep = s.solve(a2 @ np.ones(a.ncols))
    assert rep.converged and rep.berr <= 8 * EPS


def test_same_pattern_same_rowperm_solves_accurately(rng):
    a, a2 = _pair(rng)
    b = rng.standard_normal(a.ncols)
    s = GESPSolver(a, cache=False)
    rep = s.refactor(a2).solve(b)  # default: SAME_PATTERN_SAME_ROWPERM
    assert rep.converged
    assert rep.berr <= 8 * EPS


def test_factored_mode_keeps_factors_refines_drift(rng):
    a, a2 = _pair(rng, scale=1e-6)
    b = rng.standard_normal(a.ncols)
    s = GESPSolver(a, cache=False)
    l_before = s.factors.l.nzval.copy()
    rep = s.refactor(a2, fact="FACTORED").solve(b)
    assert np.array_equal(s.factors.l.nzval, l_before)  # untouched
    assert rep.converged  # refinement absorbed the value drift
    assert rep.berr <= 8 * EPS


def test_factored_invalid_at_construction(rng):
    a, _ = _pair(rng, n=10)
    with pytest.raises(ValueError, match="FACTORED"):
        GESPSolver(a, GESPOptions(fact="FACTORED"))
    with pytest.raises(ValueError, match="FACTORED"):
        DistributedGESPSolver(a, nprocs=2,
                              options=GESPOptions(fact="FACTORED"))


def test_unknown_fact_rejected(rng):
    a, _ = _pair(rng, n=10)
    with pytest.raises(ValueError):
        GESPOptions(fact="SOMETIMES").validate()
    s = GESPSolver(a, cache=False)
    with pytest.raises(ValueError):
        s.refactor(a, fact="SOMETIMES")


# --------------------------------------------------------------------- #
# structured pattern-mismatch errors
# --------------------------------------------------------------------- #

def test_refactor_pattern_mismatch_raises(rng):
    a, _ = _pair(rng)
    s = GESPSolver(a, cache=False)
    bad = _other_pattern(a, rng)
    with pytest.raises(PatternMismatchError) as ei:
        s.refactor(bad)
    assert ei.value.expected == pattern_fingerprint(a)
    assert ei.value.got == pattern_fingerprint(bad)
    assert "GESPSolver.refactor" in str(ei.value)
    # the solver is still usable with its old factors
    rep = s.solve(a @ np.ones(a.ncols))
    assert rep.converged


def test_refactor_pattern_mismatch_is_valueerror(rng):
    """PatternMismatchError must stay a ValueError so existing broad
    handlers keep working."""
    a, _ = _pair(rng, n=12)
    s = GESPSolver(a, cache=False)
    with pytest.raises(ValueError):
        s.refactor(_other_pattern(a, rng))


@pytest.mark.parametrize("engine", ["serial", "distributed"])
def test_refactor_compares_the_pattern_and_hashes_only_a_new_one(
        engine, rng, monkeypatch):
    """A matrix whose ``colptr`` / ``rowind`` equal the solver's own copy
    of its pattern reuses the fingerprint without hashing.  A mismatch
    still raises with the same fields, also when the caller has since
    rewritten the arrays the solver was built from."""
    from repro.driver import pipeline

    a, _ = _pair(rng, n=30)
    s = (GESPSolver(a, cache=False) if engine == "serial"
         else DistributedGESPSolver(a, nprocs=4, cache=False))
    name = type(s).__name__
    hashed = []
    monkeypatch.setattr(pipeline, "pattern_fingerprint",
                        lambda m: hashed.append(m) or pattern_fingerprint(m))
    same = CSCMatrix(a.nrows, a.ncols, a.colptr.copy(), a.rowind.copy(),
                     a.nzval * 1.01)
    assert s.refactor(same) is s and hashed == []
    fp, bad = pattern_fingerprint(a), _other_pattern(a, rng)
    a.rowind[0] ^= 1             # the array the solver was built from
    for wrong in (bad, a):
        with pytest.raises(PatternMismatchError) as ei:
            s.refactor(wrong)
        err = ei.value
        assert (err.expected, err.got, err.where, err.n, err.nnz) == (
            fp, pattern_fingerprint(wrong), f"{name}.refactor", wrong.ncols,
            wrong.nnz)
    assert len(hashed) == 2


def test_gesp_factor_rejects_wrong_pattern_symbolic(rng):
    from repro.factor.gesp import gesp_factor
    from repro.symbolic.fill import symbolic_lu

    a, _ = _pair(rng)
    sym = symbolic_lu(a)
    bad = _other_pattern(a, rng)
    with pytest.raises(PatternMismatchError):
        gesp_factor(bad, sym=sym)


def test_refill_values_rejects_wrong_pattern(rng):
    from repro.dmem import best_grid, distribute_matrix, refill_values
    from repro.symbolic.fill import symbolic_lu_symmetrized
    from repro.symbolic.supernode import block_partition

    a, a2 = _pair(rng, n=25)
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=8)
    dist = distribute_matrix(a, sym, part, best_grid(4))
    refill_values(dist, a2, sym)  # same pattern: fine
    with pytest.raises(PatternMismatchError):
        refill_values(dist, _other_pattern(a, rng), sym)


def test_refill_values_checks_the_layout_pattern_with_and_without_sym():
    """The layout remembers the pattern it was built for, so a refill is
    checked even when no ``sym`` is passed.  Unchecked, an entry outside
    the fill pattern — the first of cfd06's factored matrix in column 0
    — went into a neighbouring slot of L(·, 0), and a one-gather refill
    would take any matrix with the same nnz.  Nothing is written on a
    mismatch."""
    from repro.dmem import refill_values
    from repro.matrices import matrix_by_name
    from repro.symbolic.fill import symbolic_lu_symmetrized

    s = DistributedGESPSolver(matrix_by_name("cfd06").build(), nprocs=4,
                              cache=False)
    at, dist = s.a_factored, s.dist
    rows = np.arange(at.nrows)
    r = int(np.flatnonzero(~dist.slots(rows, np.zeros_like(rows))[2])[0])
    assert not dist.slots(np.array([r]), np.array([0]))[2].any()  # no slot
    col0 = at.rowind[:at.colptr[1]].tolist()
    assert r not in col0
    t = int(np.searchsorted(col0, r))
    extra = CSCMatrix(at.nrows, at.ncols, at.colptr + (at.colptr > 0),
                      np.insert(at.rowind, t, r), np.insert(at.nzval, t, 123.0))
    rows0 = sorted(col0[:-1] + [r])               # same nnz: one entry moved
    moved = CSCMatrix(at.nrows, at.ncols, at.colptr,
                      np.concatenate((rows0, at.rowind[len(col0):])),
                      at.nzval)
    before = [store.copy() for store in dist.stores]
    for bad in (extra, moved):
        for sym in (None, s.symbolic):
            with pytest.raises(PatternMismatchError):
                refill_values(dist, bad, sym)
    # a passed sym is still honoured: the right matrix, a foreign sym
    with pytest.raises(PatternMismatchError):
        refill_values(dist, at, symbolic_lu_symmetrized(extra))
    assert all(np.array_equal(x, y) for x, y in zip(before, dist.stores))
    refill_values(dist, at)                       # the right pattern: fine


def test_dist_refactor_pattern_mismatch(rng):
    a, _ = _pair(rng, n=30)
    s = DistributedGESPSolver(a, nprocs=4, cache=False)
    with pytest.raises(PatternMismatchError):
        s.refactor(_other_pattern(a, rng))


# --------------------------------------------------------------------- #
# the cache
# --------------------------------------------------------------------- #

def test_cache_miss_falls_back_cold_then_hits(rng):
    a, a2 = _pair(rng)
    cache = FactorizationCache()
    tracer = Tracer()
    with use_tracer(tracer):
        GESPSolver(a, GESPOptions(fact="SAME_PATTERN_SAME_ROWPERM"),
                   cache=cache)  # miss: empty cache
        GESPSolver(a2, GESPOptions(fact="SAME_PATTERN_SAME_ROWPERM"),
                   cache=cache)  # hit
    counters = tracer.root.all_counters()
    assert counters["factor.reuse_misses"] == 1
    assert counters["factor.reuse_hits"] == 1
    assert cache.stats().size == 1


def test_cache_key_separates_option_shapes(rng):
    a, _ = _pair(rng)
    fp = pattern_fingerprint(a)
    k1 = serial_plan_key(fp, GESPOptions())
    k2 = serial_plan_key(fp, GESPOptions(col_perm="mmd_ata"))
    assert k1 != k2


def test_cache_lru_eviction(rng):
    cache = FactorizationCache(maxsize=2)
    mats = [random_nonsingular_dense(np.random.default_rng(s), 12 + s,
                                     hidden_perm=False)
            for s in range(3)]
    for d in mats:
        GESPSolver(CSCMatrix.from_dense(d), cache=cache)
    assert len(cache) == 2  # first entry evicted
    cache.clear()
    assert len(cache) == 0
    assert cache.stats().hits == 0


def test_module_cache_is_default(rng):
    a, _ = _pair(rng, n=14)
    key_count = len(FACTOR_CACHE)
    s = GESPSolver(a)
    assert len(FACTOR_CACHE) >= key_count  # seeded (or refreshed)
    assert serial_plan_key(pattern_fingerprint(a), s.options) in FACTOR_CACHE


def test_cache_disabled_with_false(rng):
    a, _ = _pair(rng, n=14)
    cache = FactorizationCache()
    s = GESPSolver(a, cache=False)
    assert s._cache is None
    assert len(cache) == 0


# --------------------------------------------------------------------- #
# counters in trace JSON
# --------------------------------------------------------------------- #

def test_reuse_counters_in_trace_json(rng, tmp_path):
    a, a2 = _pair(rng)
    b = rng.standard_normal(a.ncols)
    cache = FactorizationCache()
    tracer = Tracer(name="reuse")
    with use_tracer(tracer):
        s = GESPSolver(a, GESPOptions(fact="SAME_PATTERN"), cache=cache)
        s.solve(b)
        s.refactor(a2)
        s.solve(b)
    record = tracer.record(test="reuse")
    path = tmp_path / "trace.json"
    record.dump(str(path))
    data = json.loads(path.read_text())
    flat = json.dumps(data)
    assert "factor.reuse_hits" in flat
    assert "factor.reuse_misses" in flat
    # and a refactor span exists with the fact mode attribute
    assert '"refactor"' in flat
    assert "SAME_PATTERN" in flat


# --------------------------------------------------------------------- #
# distributed reuse
# --------------------------------------------------------------------- #

def test_dist_warm_construction_bit_identical(rng):
    a, a2 = _pair(rng, n=40)
    cache = FactorizationCache()
    s1 = DistributedGESPSolver(a, nprocs=4,
                               options=GESPOptions(fact="SAME_PATTERN"),
                               cache=cache)
    s1.factorize()
    warm = DistributedGESPSolver(a2, nprocs=4,
                                 options=GESPOptions(fact="SAME_PATTERN"),
                                 cache=cache)
    cold = DistributedGESPSolver(a2, nprocs=4, cache=False)
    warm.factorize()
    cold.factorize()
    gw, gc = warm.dist.gather_to_supernodal(), cold.dist.gather_to_supernodal()
    for x, y in zip(gw.diag, gc.diag):
        assert np.array_equal(x, y)
    for x, y in zip(gw.below, gc.below):
        assert np.array_equal(x, y)
    for x, y in zip(gw.right, gc.right):
        assert np.array_equal(x, y)


def test_dist_refactor_refills_in_place_and_reuses_schedule(rng):
    a, a2 = _pair(rng, n=40)
    b = rng.standard_normal(a.ncols)
    s = DistributedGESPSolver(a, nprocs=4, cache=False)
    assert s.solve(b).converged
    sched = s._schedule
    assert sched is not None
    # remember identity of a block array: refactor must reuse the storage
    rank, key = next((r, k) for r in range(s.grid.size)
                     for k in s.dist.diag[r])
    block_before = s.dist.diag[rank][key]
    s.refactor(a2)
    assert s.dist.diag[rank][key] is block_before  # refilled, not realloc'd
    assert s._schedule is sched                    # schedule reused
    assert s.factor_run is None                    # numeric phase re-runs
    rep = s.solve(b)
    assert rep.converged and rep.berr <= 8 * EPS
    # correctness vs a cold solver of the new matrix
    cold = DistributedGESPSolver(a2, nprocs=4, cache=False)
    assert np.allclose(rep.x, cold.solve(b).x, rtol=1e-10, atol=1e-12)


def test_dist_reuse_under_fault_plan(rng):
    """Reuse must compose with fault injection: a lossy-but-recoverable
    machine still factors correctly through the warm path."""
    from repro.dmem import FaultPlan

    a, a2 = _pair(rng, n=35)
    b = rng.standard_normal(a.ncols)
    plan = FaultPlan(seed=3, duplicate=0.1, delay=0.2, delay_factor=1.0)
    s = DistributedGESPSolver(a, nprocs=4, fault_plan=plan, cache=False)
    assert s.solve(b).converged
    rep = s.refactor(a2).solve(b)
    assert rep.converged
    assert rep.berr <= 8 * EPS


# --------------------------------------------------------------------- #
# recovery-ladder interplay
# --------------------------------------------------------------------- #

def test_recover_solve_with_reuse_options(rng):
    """recover_solve must work when the caller's options request reuse:
    rung 1 honors the mode, and the rung-4 rebuild is forced DOFACT."""
    from repro.recovery import recover_solve

    a, a2 = _pair(rng)
    b = a @ np.ones(a.ncols)
    cache_opts = GESPOptions(fact="SAME_PATTERN_SAME_ROWPERM")
    GESPSolver(a, cache_opts)  # seed the module cache
    rep = recover_solve(a2, a2 @ np.ones(a.ncols), options=cache_opts)
    assert rep.converged
    assert np.abs(rep.x - 1.0).max() < 1e-6


def test_ladder_refactor_rung_forces_dofact(rng):
    """The aggressive-refactor rung rebuilds cold even when the failing
    options asked for reuse (no cache interplay during recovery)."""
    import repro.recovery.ladder as ladder_mod

    src = open(ladder_mod.__file__).read()
    assert 'fact="DOFACT"' in src


# --------------------------------------------------------------------- #
# solve(refine=False) honesty (satellite bugfix)
# --------------------------------------------------------------------- #

def test_unrefined_solve_converged_is_honest(rng):
    a, _ = _pair(rng)
    b = rng.standard_normal(a.ncols)
    s = GESPSolver(a, cache=False)
    rep = s.solve(b, refine=False)
    assert rep.converged == (rep.berr <= s.options.refine_eps)
    assert rep.berr_history == [rep.berr]
    # with an impossible target the same solve must report False
    strict = dataclasses.replace(s.options, refine_eps=0.0)
    s2 = GESPSolver(a, strict, cache=False)
    rep2 = s2.solve(b, refine=False)
    assert rep2.berr > 0.0
    assert not rep2.converged


def test_unrefined_dist_solve_converged_is_honest(rng):
    a, _ = _pair(rng, n=30)
    b = rng.standard_normal(a.ncols)
    opts = GESPOptions(refine_eps=0.0)
    s = DistributedGESPSolver(a, nprocs=4, options=opts, cache=False)
    rep = s.solve(b, refine=False)
    assert not rep.converged
    assert rep.berr_history == [rep.berr]


def test_figure3_steps_property(rng):
    a, _ = _pair(rng)
    b = rng.standard_normal(a.ncols)
    rep = GESPSolver(a, cache=False).solve(b)
    assert rep.figure3_steps == rep.refine_steps + 1

    from repro.solve.refine import RefinementResult

    r = RefinementResult(x=np.zeros(1), berr=0.0, steps=2)
    assert r.figure3_steps == 3


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #

def test_cli_refactor_sweep(capsys):
    from repro.__main__ import main

    assert main(["solve", "cfd01", "--refactor-sweep", "2"]) == 0
    out = capsys.readouterr().out
    assert "refactor sweep   : 2 iterations" in out
    assert "SAME_PATTERN_SAME_ROWPERM" in out
    assert "speedup" in out


def test_cli_fact_flag(capsys):
    from repro.__main__ import main

    assert main(["--trace", "solve", "cfd01",
                 "--fact", "SAME_PATTERN"]) == 0
    out = capsys.readouterr().out
    assert "backward error" in out
