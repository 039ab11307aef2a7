"""The dense ops' numerical contracts (:mod:`repro.kernels`).

Promises enforced here:

1. on the loop path (the LAPACK / BLAS binding monkeypatched absent)
   every op is **bit for bit** the historical loop it replaced — a
   frozen copy of every pre-refactor kernel lives in this file (the
   ``golden_*`` functions) and is compared op by op, through a
   hypothesis update pipeline, and through whole factorizations on
   testbed matrices (the engines reach an op through the module, so a
   golden run is ``monkeypatch.setattr(kernels, name, golden)``);
2. ops keep their dtype and the tiny-pivot replacement its phase;
3. flops are counted once, inside the op, per thread;
4. there is one implementation and nothing selects another: no option,
   no flag, and no scipy in ``sys.modules`` after any default solve;
5. on the LAPACK / BLAS path an op's backward error is within
   c·w·ε of ‖|L||U|‖, a block ``dgetrf`` would pivot or leave a pivot
   below the threshold runs the loop (bit for bit the frozen one), a
   zero on ``U_KK``'s diagonal keeps the warning loop, and the binding
   resolves wherever numpy reports its OpenBLAS;
6. an op bound once for a static sweep (``kernels.bind_*``) is the op
   bit for bit with the same ``KernelStats`` delta, decides ``dgetrf``'s
   verdict and the zero-diagonal check per call, and keeps the arrays
   whose addresses it holds alive.
"""

import gc
import weakref
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.factor.gesp
from repro import kernels
from repro.factor.gesp import col_scale, spa_axpy
from repro.kernels import gemm_flops, lu_flops, trsm_flops
from repro.solve.triangular import solve_lower_csc, solve_upper_csc
from repro.sparse import CSCMatrix

EPS = float(np.finfo(np.float64).eps)


# --------------------------------------------------------------------- #
# the frozen pre-refactor loops — copied verbatim from the historical
# call sites (factor/supernodal.py, factor/blockpivot.py, pdgstrs/*)
# at the commit before the kernel layer existed.
# DO NOT "fix" or modernise these: they are the golden arithmetic the
# ops promise to reproduce bit for bit.
# --------------------------------------------------------------------- #

def golden_lu_nopivot(d, thresh):
    w = d.shape[0]
    replaced = []
    for k in range(w):
        p = d[k, k]
        if thresh > 0.0:
            if abs(p) < thresh:
                p = thresh if p >= 0.0 else -thresh
                d[k, k] = p
                replaced.append(k)
        elif p == 0.0:
            raise ZeroDivisionError("zero pivot in diagonal block")
        if k + 1 < w:
            d[k + 1:, k] /= p
            d[k + 1:, k + 1:] -= np.outer(d[k + 1:, k], d[k, k + 1:])
    return replaced


def golden_lu_partial(d, thresh, pivot_threshold=1.0):
    w = d.shape[0]
    piv = np.arange(w, dtype=np.int64)
    replaced = []
    for k in range(w):
        col = d[k:, k]
        mloc = int(np.argmax(np.abs(col)))
        mval = abs(col[mloc])
        if mval > 0 and abs(d[k, k]) < pivot_threshold * mval:
            p = k + mloc
            if p != k:
                d[[k, p], :] = d[[p, k], :]
                piv[[k, p]] = piv[[p, k]]
        pval = d[k, k]
        if thresh > 0.0:
            if abs(pval) < thresh:
                pval = thresh if pval >= 0.0 else -thresh
                d[k, k] = pval
                replaced.append(k)
        elif pval == 0.0:
            raise ZeroDivisionError("zero pivot in diagonal block")
        if k + 1 < w:
            d[k + 1:, k] /= pval
            d[k + 1:, k + 1:] -= np.outer(d[k + 1:, k], d[k, k + 1:])
    return piv, replaced


def golden_trsm_upper(d, b):
    w = d.shape[0]
    for k in range(w):
        if k:
            b[:, k] -= b[:, :k] @ d[:k, k]
        b[:, k] /= d[k, k]
    return b


def golden_trsm_lower_unit(d, r):
    w = d.shape[0]
    for k in range(1, w):
        r[k, :] -= d[k, :k] @ r[:k, :]
    return r


def golden_gemm_update(l, u):
    return l @ u


# not an op any more: the engines do step (3) as one subtract through
# offsets precomputed in their plans; this is what that must equal
def golden_scatter_sub(tgt, rows, cols, src, src_rows=None,
                src_cols=None):
    if src_rows is not None:
        src = src[src_rows]
    if src_cols is not None:
        src = src[:, src_cols]
    tgt[np.ix_(rows, cols)] -= src


def golden_spa_axpy(spa, rows, vals, xk):
    spa[rows] -= xk * vals


def golden_col_scale(vals, pivot):
    return vals / pivot


def golden_diag_solve_lower_unit(d, x):
    w = d.shape[0]
    for jj in range(w):
        if jj:
            x[jj] -= d[jj, :jj] @ x[:jj]
    return x


def golden_diag_solve_upper(d, x):
    w = d.shape[0]
    for jj in range(w - 1, -1, -1):
        if jj + 1 < w:
            x[jj] -= d[jj, jj + 1:] @ x[jj + 1:]
        x[jj] /= d[jj, jj]
    return x


GOLDEN_OPS = {name: globals()["golden_" + name] for name in kernels.OPS}


def _swap_in_golden(monkeypatch):
    """Every op the engines call (and the column oracle's two SPA
    helpers) replaced by its frozen loop for the rest of the context."""
    for name, fn in GOLDEN_OPS.items():
        monkeypatch.setattr(kernels, name, fn)
    monkeypatch.setattr(repro.factor.gesp, "spa_axpy", golden_spa_axpy)
    monkeypatch.setattr(repro.factor.gesp, "col_scale", golden_col_scale)


@pytest.fixture
def no_blas(monkeypatch):
    """The LAPACK / BLAS binding absent: every op runs its loop."""
    monkeypatch.setattr(kernels, "_BLAS", None)


def _block(rng, w, dominant=True):
    d = rng.standard_normal((w, w))
    if dominant:
        d[np.arange(w), np.arange(w)] += np.sign(np.diag(d)) * w + \
            (np.diag(d) == 0) * w
    return d


# --------------------------------------------------------------------- #
# 1. the ops ≡ golden, bit for bit
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("w", [1, 2, 3, 5, 8, 13, 24])
def test_reference_lu_bit_identical_to_golden(w, no_blas):
    rng = np.random.default_rng(42 + w)
    d0 = _block(rng, w, dominant=False)
    thresh = 1e-10
    dr, dg = d0.copy(), d0.copy()
    assert kernels.lu_nopivot(dr, thresh) == golden_lu_nopivot(dg, thresh)
    assert np.array_equal(dr, dg)
    dr, dg = d0.copy(), d0.copy()
    pr, rr = kernels.lu_partial(dr, thresh, pivot_threshold=0.5)
    pg, rg = golden_lu_partial(dg, thresh, pivot_threshold=0.5)
    assert np.array_equal(pr, pg) and rr == rg
    assert np.array_equal(dr, dg)


@pytest.mark.parametrize("w,m", [(1, 4), (3, 1), (8, 5), (24, 17)])
def test_reference_trsm_bit_identical_to_golden(w, m, no_blas):
    rng = np.random.default_rng(7 * w + m)
    d = _block(rng, w)
    b0 = rng.standard_normal((m, w))
    r0 = rng.standard_normal((w, m))
    assert np.array_equal(kernels.trsm_upper(d, b0.copy()),
                          golden_trsm_upper(d, b0.copy()))
    assert np.array_equal(kernels.trsm_lower_unit(d, r0.copy()),
                          golden_trsm_lower_unit(d, r0.copy()))
    x0 = rng.standard_normal((w, m))
    assert np.array_equal(kernels.diag_solve_lower_unit(d, x0.copy()),
                          golden_diag_solve_lower_unit(d, x0.copy()))
    assert np.array_equal(kernels.diag_solve_upper(d, x0.copy()),
                          golden_diag_solve_upper(d, x0.copy()))


def test_reference_scatter_spa_bit_identical_to_golden():
    rng = np.random.default_rng(3)
    spa0 = rng.standard_normal(50)
    srows = rng.choice(50, size=17, replace=False)
    vals = rng.standard_normal(17)
    sr, sg = spa0.copy(), spa0.copy()
    spa_axpy(sr, srows, vals, 1.7)
    golden_spa_axpy(sg, srows, vals, 1.7)
    assert np.array_equal(sr, sg)
    assert np.array_equal(col_scale(vals, 3.7), golden_col_scale(vals, 3.7))


@pytest.mark.parametrize("name", ["cfd01", "circuit01", "hb01", "cfd02"])
def test_reference_factorization_bit_identical_on_testbed(name, monkeypatch,
                                                         no_blas):
    """Whole supernodal factorizations and block substitutions through
    the frozen loops and through the ops produce identical bits — the
    frozen side over the schedule with every supernode taken alone (the
    loop as it was before width-1 supernodes were eliminated together),
    the ops over the batched schedule."""
    from dataclasses import replace

    from repro.driver import GESPSolver
    from repro.factor.supernodal import supernodal_factor
    from repro.matrices import matrix_by_name

    # the matrix step (3) sees — scaled, matched, ordered — and its plan
    solver = GESPSolver(matrix_by_name(name).build(), cache=False)
    a, plan = solver.a_factored, solver._block_plan
    b = a @ np.ones(a.ncols)
    batched = sum(len(members) for members, run in plan.runs
                  if run is not None)
    assert batched > plan.part.nsuper // 4      # there is something to prove
    f_ref = supernodal_factor(a, plan=plan)
    x_ref = f_ref.solve(b)
    assert f_ref.flops > 0
    alone = replace(plan, runs=[(range(plan.part.nsuper), None)])
    with monkeypatch.context() as patch:
        _swap_in_golden(patch)
        f_gold = supernodal_factor(a, plan=alone)
        x_gold = f_gold.solve(b)
    # the frozen loops really ran, every call of them: a batched step
    # would have counted its members' flops from the plan
    assert f_gold.flops == 0
    assert supernodal_factor(a, plan=alone).flops == f_ref.flops
    assert np.array_equal(f_ref.values, f_gold.values)
    for k in range(len(f_ref.diag)):
        assert np.array_equal(f_ref.diag[k], f_gold.diag[k])
        assert np.array_equal(f_ref.below[k], f_gold.below[k])
        assert np.array_equal(f_ref.right[k], f_gold.right[k])
    assert np.array_equal(x_ref, x_gold)


def test_reference_gesp_bit_identical_on_testbed(monkeypatch):
    from repro.factor.gesp import gesp_factor
    from repro.matrices import matrix_by_name
    from repro.symbolic import symbolic_lu_unsymmetric

    a = matrix_by_name("cfd02").build()
    sym = symbolic_lu_unsymmetric(a)
    f_ref = gesp_factor(a, sym)
    assert f_ref.flops > 0
    with monkeypatch.context() as patch:
        _swap_in_golden(patch)
        f_gold = gesp_factor(a, sym)
    assert f_gold.flops == 0
    assert np.array_equal(f_ref.l.nzval, f_gold.l.nzval)
    assert np.array_equal(f_ref.u.nzval, f_gold.u.nzval)


DTYPES = [np.float32, np.float64, np.complex128]


def _typed(rng, shape, dtype):
    a = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 1j * rng.standard_normal(shape)
    return np.ascontiguousarray(a.astype(dtype))


# --------------------------------------------------------------------- #
# 2. hypothesis: random supernode shapes, w ∈ 1..24, |S| ∈ 0..64
# --------------------------------------------------------------------- #

@pytest.mark.usefixtures("no_blas")      # one patch for every example
@given(w=st.integers(1, 24), s_size=st.integers(0, 64),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_update_pipeline_property(w, s_size, seed):
    """One Figure-8 step — panel solve, GEMM, and the subtract through
    precomputed flat offsets that pdgstrf and ``eliminate`` do — is bit
    for bit the frozen loops for every supernode width and update-set
    size."""
    rng = np.random.default_rng(seed)
    n = s_size + w + 1
    l = rng.standard_normal((s_size, w))
    u = rng.standard_normal((w, s_size)) if s_size else np.zeros((w, 0))
    tgt0 = rng.standard_normal((n, max(s_size, 1)))
    rows = rng.choice(n, size=s_size, replace=False)
    cols = rng.choice(tgt0.shape[1], size=min(s_size, tgt0.shape[1]),
                      replace=False)
    upd_g = golden_gemm_update(l, u[:, :cols.size])
    upd_k = kernels.gemm_update(l, u[:, :cols.size])
    assert np.array_equal(upd_g, upd_k)
    tg, tk = tgt0.copy(), tgt0.copy()
    golden_scatter_sub(tg, rows, cols, upd_g)
    tk.reshape(-1)[(rows[:, None] * tk.shape[1] + cols).ravel()] -= \
        upd_k.ravel()
    assert np.array_equal(tg, tk)
    d = _block(rng, w)
    b0 = rng.standard_normal((s_size, w))
    assert np.array_equal(kernels.trsm_upper(d, b0.copy()),
                          golden_trsm_upper(d, b0.copy()))


# --------------------------------------------------------------------- #
# 3. accounting
# --------------------------------------------------------------------- #

def test_flop_formulas_and_stats():
    assert lu_flops(6) == 2 * 6 ** 3 // 3
    assert trsm_flops(4, 10) == 10 * 16
    assert gemm_flops(3, 4, 5) == 120
    stats = kernels.stats()
    assert stats is kernels.stats()          # one accumulator per thread
    snap = stats.snapshot()
    rng = np.random.default_rng(0)
    d = _block(rng, 6)
    kernels.lu_nopivot(d.copy(), 0.0)
    kernels.trsm_upper(d, rng.standard_normal((10, 6)))
    kernels.gemm_update(rng.standard_normal((3, 4)),
                        rng.standard_normal((4, 5)))
    assert stats.flops_since(snap) == \
        lu_flops(6) + trsm_flops(6, 10) + gemm_flops(3, 4, 5)
    delta = stats.counter_delta(snap)
    assert delta == {"kernel.lu_calls": 1, "kernel.trsm_calls": 1,
                     "kernel.gemm_calls": 1,
                     "kernel.gemm_flops": gemm_flops(3, 4, 5),
                     "kernel.lu_lapack": int(kernels._BLAS is not None),
                     "kernel.lu_fallbacks": 0}
    # the column oracle's SPA helpers count here too (2 / 1 per entry)
    snap = stats.snapshot()
    spa_axpy(np.zeros(9), np.arange(4), np.ones(4), 2.0)
    col_scale(np.ones(5), 2.0)
    assert stats.flops_since(snap) == 2 * 4 + 5


def test_kernel_counters_reach_tracer():
    from repro.factor.supernodal import supernodal_factor
    from repro.matrices import matrix_by_name
    from repro.obs import Tracer, use_tracer

    a = matrix_by_name("cfd01").build()
    tracer = Tracer(name="t")
    with use_tracer(tracer):
        f = supernodal_factor(a)
    c = tracer.root.all_counters()
    assert c["kernel.lu_calls"] >= 1
    assert c["kernel.trsm_calls"] >= 1
    assert c["kernel.gemm_flops"] > 0
    # satellite fix: GEMM flops are counted once, inside the kernel layer,
    # and are strictly part of the factorization's total
    assert c["kernel.gemm_flops"] < f.flops


def test_kernel_stats_are_per_thread():
    """The ops are module functions shared by every service worker
    thread; their accumulator must not be.  Three threads (more than
    this host has cores) factor three patterns at once, over and over,
    under a shortened switch interval: every factorization must report
    exactly the flops and ``kernel.*`` deltas it reports alone."""
    import sys
    import threading

    from repro.factor.supernodal import supernodal_factor
    from repro.matrices import matrix_by_name
    from repro.obs import Tracer, use_tracer

    def measure(a):
        tracer = Tracer()
        with use_tracer(tracer):
            f = supernodal_factor(a)
        c = tracer.root.all_counters()
        return (f.flops, c["factor.flops"], c["kernel.lu_calls"],
                c["kernel.trsm_calls"], c["kernel.gemm_calls"],
                c["kernel.gemm_flops"])

    mats = [matrix_by_name(n).build() for n in ("cfd01", "chem01", "fem01")]
    alone = [measure(a) for a in mats]
    assert len(set(alone)) == 3          # three distinguishable workloads
    seen = [[] for _ in mats]

    def worker(i):
        for _ in range(6):
            seen[i].append(measure(mats[i]))

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(mats))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, expected in enumerate(alone):
        assert seen[i] == [expected] * 6


# --------------------------------------------------------------------- #
# 4. dtype preservation: every op
# --------------------------------------------------------------------- #

def _typed_block(rng, w, dtype):
    d = _typed(rng, (w, w), dtype)
    d[np.arange(w), np.arange(w)] += w     # diagonally dominant
    return d


@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_every_op_preserves_dtype_and_matches_golden(dtype):
    """Every op (and the column oracle's two SPA helpers) keeps its
    input dtype — the fp32-factor path depends on never silently
    upcasting — and agrees with the frozen loop to a few hundred ulps of
    the *working* dtype (bit for bit on float64's loop path: section
    1)."""
    rng = np.random.default_rng(20260808)
    w, m = 8, 5
    tol = 500 * float(np.finfo(np.dtype(dtype)).eps)

    def check(out, gold_out):
        out, gold_out = np.asarray(out), np.asarray(gold_out)
        assert out.dtype == np.dtype(dtype)
        gold_c = gold_out.astype(np.complex128)
        scale = np.maximum(np.abs(gold_c), 1.0)
        assert np.all(np.abs(out.astype(np.complex128) - gold_c)
                      <= tol * scale)

    d0 = _typed_block(rng, w, dtype)

    dk, dg = d0.copy(), d0.copy()                        # lu_nopivot
    assert kernels.lu_nopivot(dk, 1e-10) == golden_lu_nopivot(dg, 1e-10)
    check(dk, dg)

    dk, dg = d0.copy(), d0.copy()                        # lu_partial
    pk, rk = kernels.lu_partial(dk, 1e-10, pivot_threshold=0.5)
    pg, rg = golden_lu_partial(dg, 1e-10, pivot_threshold=0.5)
    assert np.array_equal(pk, pg) and rk == rg
    check(dk, dg)

    b0 = _typed(rng, (m, w), dtype)                      # trsm_upper
    check(kernels.trsm_upper(d0.copy(), b0.copy()),
          golden_trsm_upper(d0.copy(), b0.copy()))

    r0 = _typed(rng, (w, m), dtype)                      # trsm_lower_unit
    check(kernels.trsm_lower_unit(d0.copy(), r0.copy()),
          golden_trsm_lower_unit(d0.copy(), r0.copy()))

    l = _typed(rng, (m, w), dtype)                       # gemm_update
    u = _typed(rng, (w, m), dtype)
    check(kernels.gemm_update(l, u), golden_gemm_update(l, u))

    spa0 = _typed(rng, (4 * w,), dtype)                  # spa_axpy
    srows = rng.choice(4 * w, size=w, replace=False)
    vals = _typed(rng, (w,), dtype)
    sk, sg = spa0.copy(), spa0.copy()
    spa_axpy(sk, srows, vals, 1.5)
    golden_spa_axpy(sg, srows, vals, 1.5)
    check(sk, sg)

    # a wider pivot must not upcast the column (the frozen loop may)
    check(col_scale(vals, np.float64(3.7)), golden_col_scale(vals, 3.7))

    x1 = _typed(rng, (w,), dtype)                        # diag solves, 1-D
    check(kernels.diag_solve_lower_unit(d0, x1.copy()),
          golden_diag_solve_lower_unit(d0, x1.copy()))
    x2 = _typed(rng, (w, m), dtype)                      # diag solves, 2-D
    check(kernels.diag_solve_upper(d0, x2.copy()),
          golden_diag_solve_upper(d0, x2.copy()))

    # the CSC sweeps are not ops: they take a block as they take a
    # vector, in the wider of the factor dtype and float64
    assert len(kernels.OPS) == 7 and set(kernels.OPS) == set(GOLDEN_OPS)
    wide = np.result_type(dtype, np.float64)
    for solve, tri in ((solve_lower_csc, np.tril), (solve_upper_csc, np.triu)):
        mat = CSCMatrix.from_dense(tri(_typed_block(rng, w, dtype)))
        xb = solve(mat, x2)
        assert xb.dtype == wide and xb.shape == x2.shape
        for t in range(m):
            assert np.array_equal(xb[:, t], solve(mat, x2[:, t]))


# --------------------------------------------------------------------- #
# 5. one implementation, nothing to select, no scipy
# --------------------------------------------------------------------- #

def test_no_solve_path_imports_scipy():
    """``import repro``, a default serial solve and a 2×2 distributed
    factorize + ``solve_distributed`` leave scipy (28 MiB resident in
    every worker process when loaded) out of ``sys.modules``.  A fresh
    interpreter: this process has long since loaded scipy."""
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
import numpy as np
import repro

d = np.diag(np.arange(2.0, 14.0)) + 0.1
a = repro.CSCMatrix.from_dense(d)
b = d @ np.ones(12)
assert repro.GESPSolver(a, cache=False).solve(b).converged
dist = repro.DistributedGESPSolver(a, nprocs=4, cache=False)
assert dist.grid.nprow == dist.grid.npcol == 2
dist.factorize()
assert np.allclose(dist.solve_distributed(b).x, 1.0)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], text=True,
                          capture_output=True, timeout=120,
                          env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr


def test_kernel_backend_option_and_flag_are_gone(capsys):
    from repro.__main__ import main
    from repro.driver import GESPOptions

    with pytest.raises(TypeError, match="kernel_backend"):
        GESPOptions(kernel_backend="reference")
    for command in (["solve", "cfd01"], ["scaling", "cfd01"],
                    ["serve", "cfd01"]):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--kernel-backend", "reference"])
        assert exc.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err


def test_tiny_pivot_replacement_is_dtype_and_phase_preserving():
    """The ±thresh safeguard stays in the block's dtype, and for complex
    pivots keeps the phase (``p/|p|·thresh``) instead of comparing with
    ``>=`` (which raises on complex)."""
    d = np.eye(3, dtype=np.float32)
    d[1, 1] = np.float32(-1e-12)
    assert kernels.lu_nopivot(d, 1e-6) == [1]
    assert d.dtype == np.float32
    assert d[1, 1] == np.float32(-1e-6)    # sign kept, dtype kept

    z = np.eye(3, dtype=np.complex128)
    z[2, 2] = 1e-12 * np.exp(0.7j)
    assert kernels.lu_nopivot(z, 1e-6) == [2]
    assert z.dtype == np.complex128
    assert abs(z[2, 2]) == pytest.approx(1e-6)
    assert np.angle(z[2, 2]) == pytest.approx(0.7)

    z0 = np.eye(2, dtype=np.complex128)    # zero pivot: no phase to keep
    z0[0, 0] = 0.0
    assert kernels.lu_nopivot(z0, 1e-6) == [0]
    assert z0[0, 0] == 1e-6


# --------------------------------------------------------------------- #
# 6. the LAPACK / BLAS path
# --------------------------------------------------------------------- #

needs_blas = pytest.mark.skipif(kernels._BLAS is None,
                                reason="no OpenBLAS binding on this host")


def test_binding_resolves_on_scipy_openblas_numpy():
    """Where numpy reports the 64-bit scipy-openblas it ships, the ops
    must reach it: a silent fall back to the loops would pass every
    other test and lose the speed."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if blas.get("name") != "scipy-openblas" or \
            "USE64BITINT" not in blas.get("openblas configuration", ""):
        pytest.skip(f"numpy links {blas.get('name')}, not scipy-openblas64")
    assert kernels._BLAS is not None


def _dominant(rng, w):
    """Strictly column diagonally dominant: partial pivoting makes no
    interchange (dominance survives elimination)."""
    d = rng.standard_normal((w, w))
    d[np.arange(w), np.arange(w)] = \
        np.where(np.diag(d) < 0, -1.0, 1.0) * (np.abs(d).sum(axis=0) + 1.0)
    return d


def _inf_norm(a):
    return np.abs(a).sum(axis=1).max()


@needs_blas
@given(w=st.integers(2, 24), m=st.integers(1, 40),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_lapack_path_backward_error_property(w, m, seed):
    """``dgetrf``'s accepted factors and ``dtrsm``'s panel solves are
    backward stable: ‖A − LU‖ ≤ c·w·ε·‖|L||U|‖ and likewise for
    ``X·U = B`` and ``L·Y = R`` (c = 2, ∞-norm)."""
    rng = np.random.default_rng(seed)
    d0 = _dominant(rng, w)
    stats = kernels.stats()
    snap = stats.snapshot()
    d = d0.copy()
    assert kernels.lu_nopivot(d, 1e-10) == []
    assert stats.counter_delta(snap)["kernel.lu_lapack"] == 1
    lo, up = np.tril(d, -1) + np.eye(w), np.triu(d)
    tol = 2 * w * EPS
    assert _inf_norm(lo @ up - d0) <= tol * _inf_norm(np.abs(lo) @ np.abs(up))
    b0 = rng.standard_normal((m, w))
    x = kernels.trsm_upper(d, b0.copy())
    assert _inf_norm(x @ up - b0) <= tol * _inf_norm(np.abs(x) @ np.abs(up))
    r0 = rng.standard_normal((w, m))
    y = kernels.trsm_lower_unit(d, r0.copy())
    assert _inf_norm(lo @ y - r0) <= tol * _inf_norm(np.abs(lo) @ np.abs(y))


@contextmanager
def _dtrsm_calls():
    """The ``dtrsm`` calls the ops make inside the block, as a list."""
    getrf, trsm = kernels._BLAS
    calls = []

    def spy(*args):
        calls.append(args[:5])
        return trsm(*args)

    kernels._BLAS = (getrf, spy)
    try:
        yield calls
    finally:
        kernels._BLAS = (getrf, trsm)


@needs_blas
@given(w=st.integers(2, 24), nrhs=st.one_of(st.none(), st.integers(1, 8)),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_diag_solve_dtrsm_backward_error_property(w, nrhs, seed):
    """The diagonal solves on ``dtrsm`` — a 1-D right-hand side as a
    (w, 1) view, a block as it stands — solve in place, backward
    stably: ‖L·Y − X‖ ≤ c·w·ε·‖|L||Y|‖ and likewise for U (c = 2,
    ∞-norm)."""
    rng = np.random.default_rng(seed)
    d = _dominant(rng, w)
    lo, up = np.tril(d, -1) + np.eye(w), np.triu(d)
    x0 = rng.standard_normal((w,) if nrhs is None else (w, nrhs))
    tol = 2 * w * EPS
    with _dtrsm_calls() as calls:
        for op, tri in ((kernels.diag_solve_lower_unit, lo),
                        (kernels.diag_solve_upper, up)):
            x = x0.copy()
            assert op(d, x) is x
            y = x.reshape(w, -1)
            assert _inf_norm(tri @ y - x0.reshape(w, -1)) <= \
                tol * _inf_norm(np.abs(tri) @ np.abs(y))
    assert len(calls) == 2


def _tiny_last_pivot(rng, w):
    d = _dominant(rng, w)
    d[-1, :] = 0.0
    d[-1, -1] = 1e-14
    return d


@needs_blas
@pytest.mark.parametrize("case", ["interchange", "tiny", "zero"])
def test_lapack_rejects_take_the_golden_loop(case):
    """A block ``dgetrf`` would pivot, one it leaves with a pivot below
    ``thresh``, and a zero pivot at ``thresh = 0`` each run the loop on
    the untouched block: bit for bit the frozen loop, the same
    replacements, the same ``ZeroDivisionError``."""
    rng = np.random.default_rng(11)
    w, thresh = 6, 1e-10
    if case == "interchange":
        d0 = _dominant(rng, w)
        d0[0, 0], d0[1, 0] = 0.5, 4.0           # above thresh, not the max
    else:
        d0 = _tiny_last_pivot(rng, w)
        if case == "zero":
            d0[-1, -1], thresh = 0.0, 0.0
    stats = kernels.stats()
    snap = stats.snapshot()
    dk, dg = d0.copy(), d0.copy()
    if case == "zero":
        with pytest.raises(ZeroDivisionError):
            kernels.lu_nopivot(dk, thresh)
        with pytest.raises(ZeroDivisionError):
            golden_lu_nopivot(dg, thresh)
    else:
        expected = [w - 1] if case == "tiny" else []
        assert kernels.lu_nopivot(dk, thresh) == expected
        assert golden_lu_nopivot(dg, thresh) == expected
    assert np.array_equal(dk, dg)
    delta = stats.counter_delta(snap)
    assert (delta["kernel.lu_lapack"], delta["kernel.lu_fallbacks"]) == (0, 1)


@needs_blas
def test_what_stays_on_the_loops():
    """Width 1 keeps the division (a batched step is the alone loop bit
    for bit), and so do other dtypes and non-contiguous operands: bit
    for bit the frozen loops, with ``dgetrf`` never tried.  Operands of
    the wrong shape fail in the loop as before, never in BLAS."""
    rng = np.random.default_rng(5)
    stats = kernels.stats()
    snap = stats.snapshot()
    one = np.array([[3.0]])
    b0 = rng.standard_normal((7, 1))
    assert np.array_equal(kernels.trsm_upper(one, b0.copy()),
                          golden_trsm_upper(one, b0.copy()))
    d0 = _dominant(rng, 5)
    for block in (one, d0.astype(np.float32), np.asfortranarray(d0)):
        dk, dg = block.copy(order="K"), block.copy(order="K")
        assert kernels.lu_nopivot(dk, 1e-6) == golden_lu_nopivot(dg, 1e-6)
        assert np.array_equal(dk, dg)
    pk = rng.standard_normal((5, 16))
    pg = pk.copy()
    kernels.trsm_lower_unit(d0, pk[:, ::2])              # strided panels
    golden_trsm_lower_unit(d0, pg[:, ::2])
    assert np.array_equal(pk, pg)
    with pytest.raises(IndexError):     # a panel that does not face d0
        kernels.trsm_upper(d0, np.ones((3, 4)))          # never reaches BLAS
    with pytest.raises(IndexError):
        kernels.trsm_lower_unit(d0, np.ones((4, 3)))
    delta = stats.counter_delta(snap)
    assert (delta["kernel.lu_lapack"], delta["kernel.lu_fallbacks"]) == (0, 0)
    # the diagonal solves: width 1, float32, strided x (1-D and a block)
    x1, xb = rng.standard_normal(10), rng.standard_normal((10, 3))
    cases = [(one, x1[:1]), (d0.astype(np.float32), x1[:5].astype(np.float32)),
             (d0, x1[::2]), (d0, xb[::2]), (d0, xb[:5, ::2])]

    def like(x):                        # a fresh x with x's strides
        out = np.lib.stride_tricks.as_strided(
            np.empty(x.size * 8, x.dtype), x.shape, x.strides)
        out[...] = x
        return out

    with _dtrsm_calls() as calls:
        for d, x in cases:
            for name in ("diag_solve_lower_unit", "diag_solve_upper"):
                xk, xg = like(x), like(x)
                getattr(kernels, name)(d, xk)
                GOLDEN_OPS[name](d, xg)
                assert np.array_equal(xk, xg)
    assert calls == []


def test_zero_on_the_upper_diagonal_warns_on_the_loop():
    """``dtrsm`` would divide by a zero on ``U_KK``'s diagonal silently:
    such a block takes the loop, whose division warns (an error under
    this suite's filters), and gives the frozen loop's inf."""
    rng = np.random.default_rng(9)
    d = _dominant(rng, 6)
    d[0, 0] = 0.0                   # the last division: nothing reads x[0]
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        xk = kernels.diag_solve_upper(d, np.ones(6))
    with np.errstate(divide="ignore", invalid="ignore"):
        xg = golden_diag_solve_upper(d, np.ones(6))
    assert np.array_equal(xk, xg, equal_nan=True) and np.isinf(xk[0])


# --------------------------------------------------------------------- #
# 7. an op bound once (``kernels.bind_*``) is the op
# --------------------------------------------------------------------- #

def _delta(st, snap):
    return {f: getattr(st, f) - getattr(snap, f) for f in vars(snap)}


def _called(call):
    """``call()``'s result (or the exception it raised) and the calling
    thread's ``KernelStats`` delta it made."""
    st = kernels.stats()
    snap = st.snapshot()
    try:
        out = call()
    except ZeroDivisionError as exc:
        out = type(exc)
    return out, _delta(st, snap)


def _bound_call(name, operands, extra):
    """``bind_<name>`` on ``operands`` run as a static sweep runs it: the
    bound call, then the build-time counts added once (not after a raise).
    Returns ``(fn, result, delta)``."""
    binder = kernels.Binder()
    fn, args = getattr(kernels, "bind_" + name)(*operands, binder)

    def call():
        out = fn(*args, *extra)
        kernels.stats().add(binder.counts)
        return out
    return (fn, *_called(call))


def _lu_block(case):
    rng = np.random.default_rng(17)
    d = _dominant(rng, 6)
    thresh = 1e-10
    if case == "interchange":
        d[0, 0], d[1, 0] = 0.5, 4.0          # above thresh, not the max
    elif case in ("tiny", "zero"):
        d = _tiny_last_pivot(rng, 6)
        if case == "zero":
            d[-1, -1], thresh = 0.0, 0.0
    elif case == "width1":
        d = np.array([[3.0]])
    elif case == "fortran":
        d = np.asfortranarray(d)
    elif case == "float32":
        d = d.astype(np.float32)
    return lambda: [d.copy(order="K")], (thresh,)


def _solve_operands(name, case):
    """Fresh ``(d, b)`` for a trsm / diagonal solve: ``w = 3 / 12``, width
    1, a strided operand, float32, or a zero on the diagonal."""
    rng = np.random.default_rng(23)
    w = {"w3": 3, "width1": 1}.get(case, 12)
    d = _dominant(rng, w)
    if case == "zero":
        d[0, 0] = 0.0
    shape = {"trsm_upper": (7, w), "trsm_lower_unit": (w, 7)}.get(
        name, (w,) if case in ("w3", "zero") else (w, 3))
    base = rng.standard_normal((shape[0], 2 * shape[-1])
                               if case == "strided" else shape)
    dtype = np.float32 if case == "float32" else np.float64

    def fresh():
        b = base.astype(dtype)
        return [d.astype(dtype), b[:, ::2] if case == "strided" else b]
    return fresh, ()


_BOUND = [("lu_nopivot", c) for c in ("kept", "interchange", "tiny", "zero",
                                      "width1", "fortran", "float32")] + [
    (name, c) for name in ("trsm_upper", "trsm_lower_unit",
                           "diag_solve_lower_unit", "diag_solve_upper")
    for c in ("w3", "w12", "width1", "strided", "float32")] + [
    ("diag_solve_upper", "zero")]


@needs_blas
@pytest.mark.parametrize("name,case", _BOUND)
def test_bound_op_is_the_op(name, case):
    """A binding is its op bit for bit with the same ``KernelStats``
    delta: ``dgetrf`` kept, rejected (an interchange, a tiny pivot, a zero
    pivot at ``thresh = 0`` and its ``ZeroDivisionError``), and a zero on
    ``U_KK``'s diagonal (the loop's ``RuntimeWarning``) are decided per
    call; width 1, a non-contiguous and a float32 operand bind the op
    itself."""
    fresh, extra = (_lu_block(case) if name == "lu_nopivot"
                    else _solve_operands(name, case))
    op_operands, bound_operands = fresh(), fresh()
    def warns():
        return pytest.warns(RuntimeWarning, match="divide by zero") \
            if (name, case) == ("diag_solve_upper", "zero") else nullcontext()

    with warns():
        want, want_delta = _called(
            lambda: getattr(kernels, name)(*op_operands, *extra))
    with warns():
        fn, got, got_delta = _bound_call(name, bound_operands, extra)
    assert got_delta == want_delta
    assert all(np.array_equal(g, w, equal_nan=True) and g.dtype == w.dtype
               for g, w in zip(bound_operands, op_operands))
    if name == "lu_nopivot":
        assert got == want
    falls_back = case in ("width1", "fortran", "strided", "float32")
    assert (fn is getattr(kernels, name)) == falls_back
    if name == "lu_nopivot" and not falls_back:
        assert (got is ZeroDivisionError) == (case == "zero")
        assert (want_delta["lu_lapack"], want_delta["lu_fallbacks"]) == \
            ((1, 0) if case == "kept" else (0, 1))


@needs_blas
@pytest.mark.parametrize("name", ["lu_nopivot", "trsm_upper",
                                  "diag_solve_lower_unit", "diag_solve_upper"])
def test_a_binding_keeps_its_operands_alive(name):
    """A bound call holds raw addresses: with every other reference to its
    operands dropped, they stay alive, and the call still is the op's."""
    fresh, extra = (_lu_block("kept") if name == "lu_nopivot"
                    else _solve_operands(name, "w12"))
    want = fresh()
    getattr(kernels, name)(*want, *extra)
    operands = fresh()
    refs = [weakref.ref(x) for x in operands]
    fn, args = getattr(kernels, "bind_" + name)(*operands, kernels.Binder())
    del operands
    gc.collect()
    junk = [np.full(want[-1].shape, np.nan) for _ in range(64)]
    assert all(ref() is not None for ref in refs)
    fn(*args, *extra)
    assert all(np.array_equal(ref(), w) for ref, w in zip(refs, want))
    assert len(junk) == 64
