"""The dense-kernel layer's numerical contracts.

Three promises, enforced here:

1. the ``reference`` backend is **bit for bit** the historical loops it
   replaced — a frozen copy of every pre-refactor kernel lives in this
   file (``GoldenBackend``) and whole factorizations through it must
   match the reference backend exactly, on random blocks and on testbed
   matrices;
2. the ``vectorized`` backend agrees with the reference to a few ulps
   (≤ 4·eps componentwise on kernel ops; its scatter is exactly
   bit-identical since it performs the same subtractions);
3. backend selection is total and structured: unknown names raise
   :class:`~repro.kernels.UnknownBackendError` listing the registry, and
   the resolution order is instance → name → env var → ``reference``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    KernelBackend,
    UnknownBackendError,
    available_backends,
    gemm_flops,
    get_backend,
    lu_flops,
    resolve_backend,
    resolve_backend_name,
    trsm_flops,
)
from repro.kernels.reference import ReferenceBackend
from repro.kernels.vectorized import VectorizedBackend
from repro.solve.triangular import solve_lower_csc, solve_upper_csc
from repro.sparse import CSCMatrix

EPS = float(np.finfo(np.float64).eps)


# --------------------------------------------------------------------- #
# the frozen pre-refactor loops — copied verbatim from the historical
# call sites (factor/supernodal.py, factor/blockpivot.py, pdgstrs/*)
# at the commit before the kernel layer existed.
# DO NOT "fix" or modernise these: they are the golden arithmetic the
# reference backend promises to reproduce bit for bit.
# --------------------------------------------------------------------- #

class GoldenBackend(KernelBackend):
    """The pre-refactor loops, frozen, for bit-identity comparison."""

    name = "golden-frozen"

    def lu_nopivot(self, d, thresh):
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

    def lu_partial(self, d, thresh, pivot_threshold=1.0):
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

    def trsm_upper(self, d, b):
        w = d.shape[0]
        for k in range(w):
            if k:
                b[:, k] -= b[:, :k] @ d[:k, k]
            b[:, k] /= d[k, k]
        return b

    def trsm_lower_unit(self, d, r):
        w = d.shape[0]
        for k in range(1, w):
            r[k, :] -= d[k, :k] @ r[:k, :]
        return r

    def gemm_update(self, l, u):
        return l @ u

    def scatter_sub(self, tgt, rows, cols, src, src_rows=None,
                    src_cols=None):
        if src_rows is not None:
            src = src[src_rows]
        if src_cols is not None:
            src = src[:, src_cols]
        tgt[np.ix_(rows, cols)] -= src

    def spa_axpy(self, spa, rows, vals, xk):
        spa[rows] -= xk * vals

    def col_scale(self, vals, pivot):
        return vals / pivot

    def diag_solve_lower_unit(self, d, x):
        w = d.shape[0]
        for jj in range(w):
            if jj:
                x[jj] -= d[jj, :jj] @ x[:jj]
        return x

    def diag_solve_upper(self, d, x):
        w = d.shape[0]
        for jj in range(w - 1, -1, -1):
            if jj + 1 < w:
                x[jj] -= d[jj, jj + 1:] @ x[jj + 1:]
            x[jj] /= d[jj, jj]
        return x


def _block(rng, w, dominant=True):
    d = rng.standard_normal((w, w))
    if dominant:
        d[np.arange(w), np.arange(w)] += np.sign(np.diag(d)) * w + \
            (np.diag(d) == 0) * w
    return d


# --------------------------------------------------------------------- #
# 1. reference ≡ golden, bit for bit
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("w", [1, 2, 3, 5, 8, 13, 24])
def test_reference_lu_bit_identical_to_golden(w):
    rng = np.random.default_rng(42 + w)
    ref, gold = ReferenceBackend(), GoldenBackend()
    d0 = _block(rng, w, dominant=False)
    thresh = 1e-10
    dr, dg = d0.copy(), d0.copy()
    assert ref.lu_nopivot(dr, thresh) == gold.lu_nopivot(dg, thresh)
    assert np.array_equal(dr, dg)
    dr, dg = d0.copy(), d0.copy()
    pr, rr = ref.lu_partial(dr, thresh, pivot_threshold=0.5)
    pg, rg = gold.lu_partial(dg, thresh, pivot_threshold=0.5)
    assert np.array_equal(pr, pg) and rr == rg
    assert np.array_equal(dr, dg)


@pytest.mark.parametrize("w,m", [(1, 4), (3, 1), (8, 5), (24, 17)])
def test_reference_trsm_bit_identical_to_golden(w, m):
    rng = np.random.default_rng(7 * w + m)
    ref, gold = ReferenceBackend(), GoldenBackend()
    d = _block(rng, w)
    b0 = rng.standard_normal((m, w))
    r0 = rng.standard_normal((w, m))
    assert np.array_equal(ref.trsm_upper(d, b0.copy()),
                          gold.trsm_upper(d, b0.copy()))
    assert np.array_equal(ref.trsm_lower_unit(d, r0.copy()),
                          gold.trsm_lower_unit(d, r0.copy()))
    x0 = rng.standard_normal((w, m))
    assert np.array_equal(ref.diag_solve_lower_unit(d, x0.copy()),
                          gold.diag_solve_lower_unit(d, x0.copy()))
    assert np.array_equal(ref.diag_solve_upper(d, x0.copy()),
                          gold.diag_solve_upper(d, x0.copy()))


def test_reference_scatter_spa_bit_identical_to_golden():
    rng = np.random.default_rng(3)
    ref, gold = ReferenceBackend(), GoldenBackend()
    tgt0 = rng.standard_normal((30, 20))
    src = rng.standard_normal((12, 9))
    rows = rng.choice(30, size=12, replace=False)
    cols = rng.choice(20, size=9, replace=False)
    tr, tg = tgt0.copy(), tgt0.copy()
    ref.scatter_sub(tr, rows, cols, src)
    gold.scatter_sub(tg, rows, cols, src)
    assert np.array_equal(tr, tg)
    spa0 = rng.standard_normal(50)
    srows = rng.choice(50, size=17, replace=False)
    vals = rng.standard_normal(17)
    sr, sg = spa0.copy(), spa0.copy()
    ref.spa_axpy(sr, srows, vals, 1.7)
    gold.spa_axpy(sg, srows, vals, 1.7)
    assert np.array_equal(sr, sg)
    assert np.array_equal(ref.col_scale(vals, 3.7), gold.col_scale(vals, 3.7))


@pytest.mark.parametrize("name", ["cfd01", "circuit01", "hb01"])
def test_reference_factorization_bit_identical_on_testbed(name):
    """Whole supernodal factorizations through the frozen loops and
    through the reference backend produce identical bits."""
    from repro.factor.supernodal import supernodal_factor
    from repro.matrices import matrix_by_name

    a = matrix_by_name(name).build()
    f_ref = supernodal_factor(a, kernel="reference")
    f_gold = supernodal_factor(a, kernel=GoldenBackend())
    for k in range(len(f_ref.diag)):
        assert np.array_equal(f_ref.diag[k], f_gold.diag[k])
        assert np.array_equal(f_ref.below[k], f_gold.below[k])
        assert np.array_equal(f_ref.right[k], f_gold.right[k])
    b = a @ np.ones(a.ncols)
    assert np.array_equal(f_ref.solve(b),
                          f_gold.solve(b, kernel=GoldenBackend()))


def test_reference_gesp_bit_identical_on_testbed():
    from repro.factor.gesp import gesp_factor
    from repro.matrices import matrix_by_name
    from repro.symbolic import symbolic_lu_unsymmetric

    a = matrix_by_name("cfd02").build()
    sym = symbolic_lu_unsymmetric(a)
    f_ref = gesp_factor(a, sym, kernel="reference")
    f_gold = gesp_factor(a, sym, kernel=GoldenBackend())
    assert np.array_equal(f_ref.l.nzval, f_gold.l.nzval)
    assert np.array_equal(f_ref.u.nzval, f_gold.u.nzval)


# --------------------------------------------------------------------- #
# 2. vectorized vs reference
# --------------------------------------------------------------------- #

def _within_4eps(ref_out, vec_out, bound):
    """Componentwise reordering envelope: two summation orders of the
    same triangular sweep differ at most ~γ_w per component, i.e.
    ``|ref − vec| ≤ 4·w·eps·(|T|·|x|)`` where ``bound = |T|·|x|`` is the
    exact componentwise magnitude each sum accumulates (Higham ASNA
    Thm 8.5 applied to both orderings)."""
    return np.all(np.abs(ref_out - vec_out) <= 4 * EPS * bound + 4 * EPS)


@pytest.mark.parametrize("w,m", [(4, 6), (8, 3), (16, 16), (24, 40)])
def test_vectorized_trsm_within_4eps(w, m):
    rng = np.random.default_rng(100 * w + m)
    ref, vec = ReferenceBackend(), VectorizedBackend()
    d = _block(rng, w)
    umat = np.triu(d)
    lmat = np.tril(d, -1) + np.eye(w)
    b0 = rng.standard_normal((m, w))
    br = ref.trsm_upper(d, b0.copy())
    bv = vec.trsm_upper(d, b0.copy())
    assert _within_4eps(br, bv, w * np.abs(br) @ np.abs(umat))
    r0 = rng.standard_normal((w, m))
    rr = ref.trsm_lower_unit(d, r0.copy())
    rv = vec.trsm_lower_unit(d, r0.copy())
    assert _within_4eps(rr, rv, w * np.abs(lmat) @ np.abs(rr))
    x0 = rng.standard_normal((w, m))
    xr = ref.diag_solve_upper(d, x0.copy())
    xv = vec.diag_solve_upper(d, x0.copy())
    assert _within_4eps(xr, xv, w * np.abs(umat) @ np.abs(xr))


def test_vectorized_scatter_bit_identical():
    """The flat-index scatter performs the exact same subtractions, so it
    is bit-identical, not just close."""
    rng = np.random.default_rng(5)
    ref, vec = ReferenceBackend(), VectorizedBackend()
    tgt0 = rng.standard_normal((40, 25))
    src = rng.standard_normal((31, 40))
    rows = np.sort(rng.choice(40, size=14, replace=False))
    cols = np.sort(rng.choice(25, size=11, replace=False))
    src_rows = np.sort(rng.choice(31, size=14, replace=False))
    src_cols = np.sort(rng.choice(40, size=11, replace=False))
    tr, tv = tgt0.copy(), tgt0.copy()
    ref.scatter_sub(tr, rows, cols, src, src_rows=src_rows,
                    src_cols=src_cols)
    vec.scatter_sub(tv, rows, cols, src, src_rows=src_rows,
                    src_cols=src_cols)
    assert np.array_equal(tr, tv)
    # a non-contiguous target takes the np.ix_ fallback and must also match
    tr = tgt0.copy()
    strided = np.asfortranarray(tgt0)
    ref.scatter_sub(tr, rows, cols, src, src_rows=src_rows,
                    src_cols=src_cols)
    vec.scatter_sub(strided, rows, cols, src, src_rows=src_rows,
                    src_cols=src_cols)
    assert np.array_equal(tr, np.ascontiguousarray(strided))


@pytest.mark.parametrize("name", ["cfd03", "cfd05"])
def test_vectorized_factorization_close_on_testbed(name):
    from repro.factor.supernodal import supernodal_factor
    from repro.matrices import matrix_by_name

    a = matrix_by_name(name).build()
    f_ref = supernodal_factor(a, kernel="reference")
    f_vec = supernodal_factor(a, kernel="vectorized")
    assert f_vec.kernel_backend == "vectorized"
    b = a @ np.ones(a.ncols)
    xr, xv = f_ref.solve(b), f_vec.solve(b)
    assert np.allclose(xr, xv, rtol=1e-10, atol=1e-14)


# --------------------------------------------------------------------- #
# 3. hypothesis: random supernode shapes, w ∈ 1..24, |S| ∈ 0..64
# --------------------------------------------------------------------- #

@given(w=st.integers(1, 24), s_size=st.integers(0, 64),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_update_pipeline_property(w, s_size, seed):
    """One Figure-8 step-3 update — GEMM then masked scatter — agrees
    between golden, reference, and vectorized for every supernode width
    and update-set size (scatter exactly; solves to 4 ulps)."""
    rng = np.random.default_rng(seed)
    n = s_size + w + 1
    l = rng.standard_normal((s_size, w))
    u = rng.standard_normal((w, s_size)) if s_size else np.zeros((w, 0))
    tgt0 = rng.standard_normal((n, max(s_size, 1)))
    rows = rng.choice(n, size=s_size, replace=False)
    cols = rng.choice(tgt0.shape[1], size=min(s_size, tgt0.shape[1]),
                      replace=False)
    gold, ref, vec = GoldenBackend(), ReferenceBackend(), VectorizedBackend()
    upd_g = gold.gemm_update(l, u[:, :cols.size])
    upd_r = ref.gemm_update(l, u[:, :cols.size])
    upd_v = vec.gemm_update(l, u[:, :cols.size])
    assert np.array_equal(upd_g, upd_r) and np.array_equal(upd_g, upd_v)
    tg, tr, tv = tgt0.copy(), tgt0.copy(), tgt0.copy()
    gold.scatter_sub(tg, rows, cols, upd_g)
    ref.scatter_sub(tr, rows, cols, upd_r)
    vec.scatter_sub(tv, rows, cols, upd_v)
    assert np.array_equal(tg, tr) and np.array_equal(tg, tv)
    # the panel solve that produced u: within 4 ulps across backends
    d = _block(rng, w)
    b0 = rng.standard_normal((s_size, w))
    br = ref.trsm_upper(d, b0.copy())
    bg = gold.trsm_upper(d, b0.copy())
    bv = vec.trsm_upper(d, b0.copy())
    assert np.array_equal(br, bg)
    assert _within_4eps(br, bv, w * np.abs(br) @ np.abs(np.triu(d)))


# --------------------------------------------------------------------- #
# 4. registry + selection + accounting
# --------------------------------------------------------------------- #

def test_unknown_backend_error_lists_registry():
    with pytest.raises(UnknownBackendError) as exc:
        get_backend("turbo")
    assert exc.value.name == "turbo"
    assert "reference" in exc.value.registered
    assert "vectorized" in exc.value.registered
    assert "reference" in str(exc.value) and "vectorized" in str(exc.value)
    assert isinstance(exc.value, ValueError)  # backward-compatible type


def test_resolution_order(monkeypatch):
    inst = GoldenBackend()
    assert resolve_backend(inst) is inst  # instance passthrough
    assert resolve_backend("vectorized").name == "vectorized"
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "vectorized")
    assert resolve_backend_name(None) == "vectorized"
    monkeypatch.delenv("REPRO_KERNEL_BACKEND")
    assert resolve_backend_name(None) == "reference"
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "bogus")
    with pytest.raises(UnknownBackendError):
        resolve_backend(None)


def test_options_validate_rejects_unknown_backend():
    from repro.driver import GESPOptions

    with pytest.raises(ValueError, match="registered backends"):
        GESPOptions(kernel_backend="bogus").validate()
    GESPOptions(kernel_backend="vectorized").validate()


def test_flop_formulas_and_stats():
    assert lu_flops(6) == 2 * 6 ** 3 // 3
    assert trsm_flops(4, 10) == 10 * 16
    assert gemm_flops(3, 4, 5) == 120
    ref = ReferenceBackend()
    snap = ref.stats.snapshot()
    rng = np.random.default_rng(0)
    d = _block(rng, 6)
    ref.lu_nopivot(d.copy(), 0.0)
    ref.trsm_upper(d, rng.standard_normal((10, 6)))
    ref.gemm_update(rng.standard_normal((3, 4)), rng.standard_normal((4, 5)))
    assert ref.stats.flops_since(snap) == \
        lu_flops(6) + trsm_flops(6, 10) + gemm_flops(3, 4, 5)
    delta = ref.stats.counter_delta(snap)
    assert delta == {"kernel.lu_calls": 1, "kernel.trsm_calls": 1,
                     "kernel.gemm_calls": 1,
                     "kernel.gemm_flops": gemm_flops(3, 4, 5)}


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
    """Backends are registered singletons shared by every service worker
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


def test_backend_threads_through_plan_cache_key():
    from repro.driver import GESPOptions
    from repro.driver.factcache import serial_plan_key

    k_ref = serial_plan_key("fp", GESPOptions())
    k_vec = serial_plan_key("fp", GESPOptions(kernel_backend="vectorized"))
    assert k_ref != k_vec
    assert k_ref[-1] == "reference" and k_vec[-1] == "vectorized"


def test_available_backends_contains_builtins():
    names = available_backends()
    assert "reference" in names and "vectorized" in names


def test_env_blank_or_whitespace_falls_back_to_default(monkeypatch):
    """An empty or whitespace-only REPRO_KERNEL_BACKEND means "default",
    never a literal backend name (mirrors REPRO_SERVICE_WORKERS)."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "")
    assert resolve_backend_name(None) == "reference"
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "   ")
    assert resolve_backend_name(None) == "reference"
    # surrounding whitespace around a real name is stripped, not fatal
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "  vectorized  ")
    assert resolve_backend_name(None) == "vectorized"


def test_factor_dtype_threads_through_plan_cache_key():
    from repro.driver import GESPOptions
    from repro.driver.factcache import serial_plan_key

    k64 = serial_plan_key("fp", GESPOptions())
    k32 = serial_plan_key("fp", GESPOptions(factor_dtype="float32"))
    assert k64 != k32
    assert k64[-1] == "reference" == k32[-1]   # backend name stays last
    assert k64[-2] == "float64" and k32[-2] == "float32"


def test_options_validate_rejects_unknown_factor_dtype():
    from repro.driver import GESPOptions

    with pytest.raises(ValueError, match="factor_dtype"):
        GESPOptions(factor_dtype="float16").validate()
    GESPOptions(factor_dtype="float32").validate()


# --------------------------------------------------------------------- #
# 5. dtype preservation: every op, every registered backend
# --------------------------------------------------------------------- #

DTYPES = [np.float32, np.float64, np.complex128]


def _typed(rng, shape, dtype):
    a = rng.standard_normal(shape)
    if np.issubdtype(dtype, np.complexfloating):
        a = a + 1j * rng.standard_normal(shape)
    return np.ascontiguousarray(a.astype(dtype))


def _typed_block(rng, w, dtype):
    d = _typed(rng, (w, w), dtype)
    d[np.arange(w), np.arange(w)] += w     # diagonally dominant
    return d


@pytest.mark.parametrize("backend_name", sorted(available_backends()))
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_every_op_preserves_dtype_and_matches_reference(backend_name, dtype):
    """All 10 kernel ops keep their input dtype on every registered
    backend (the fp32-factor path depends on never silently upcasting)
    and agree with the reference backend to a few hundred ulps of the
    *working* dtype."""
    rng = np.random.default_rng(20260808)
    be, ref = get_backend(backend_name), ReferenceBackend()
    w, m = 8, 5
    tol = 500 * float(np.finfo(np.dtype(dtype)).eps)

    def check(out, ref_out):
        out, ref_out = np.asarray(out), np.asarray(ref_out)
        assert out.dtype == np.dtype(dtype)
        ref_c = ref_out.astype(np.complex128)
        scale = np.maximum(np.abs(ref_c), 1.0)
        assert np.all(np.abs(out.astype(np.complex128) - ref_c)
                      <= tol * scale)

    d0 = _typed_block(rng, w, dtype)

    db, dr = d0.copy(), d0.copy()                        # lu_nopivot
    assert be.lu_nopivot(db, 1e-10) == ref.lu_nopivot(dr, 1e-10)
    check(db, dr)

    db, dr = d0.copy(), d0.copy()                        # lu_partial
    pb, rb = be.lu_partial(db, 1e-10, pivot_threshold=0.5)
    pr, rr = ref.lu_partial(dr, 1e-10, pivot_threshold=0.5)
    assert np.array_equal(pb, pr) and rb == rr
    check(db, dr)

    b0 = _typed(rng, (m, w), dtype)                      # trsm_upper
    check(be.trsm_upper(d0.copy(), b0.copy()),
          ref.trsm_upper(d0.copy(), b0.copy()))

    r0 = _typed(rng, (w, m), dtype)                      # trsm_lower_unit
    check(be.trsm_lower_unit(d0.copy(), r0.copy()),
          ref.trsm_lower_unit(d0.copy(), r0.copy()))

    l = _typed(rng, (m, w), dtype)                       # gemm_update
    u = _typed(rng, (w, m), dtype)
    check(be.gemm_update(l, u), ref.gemm_update(l, u))

    tgt0 = _typed(rng, (3 * w, 2 * m), dtype)            # scatter_sub
    src = _typed(rng, (w, m), dtype)
    rows = rng.choice(3 * w, size=w, replace=False)
    cols = rng.choice(2 * m, size=m, replace=False)
    tb, tr_ = tgt0.copy(), tgt0.copy()
    be.scatter_sub(tb, rows, cols, src)
    ref.scatter_sub(tr_, rows, cols, src)
    check(tb, tr_)

    spa0 = _typed(rng, (4 * w,), dtype)                  # spa_axpy
    srows = rng.choice(4 * w, size=w, replace=False)
    vals = _typed(rng, (w,), dtype)
    sb, sr = spa0.copy(), spa0.copy()
    be.spa_axpy(sb, srows, vals, 1.5)
    ref.spa_axpy(sr, srows, vals, 1.5)
    check(sb, sr)

    check(be.col_scale(vals, 3.7), ref.col_scale(vals, 3.7))

    x1 = _typed(rng, (w,), dtype)                        # diag solves, 1-D
    check(be.diag_solve_lower_unit(d0, x1.copy()),
          ref.diag_solve_lower_unit(d0, x1.copy()))
    x2 = _typed(rng, (w, m), dtype)                      # diag solves, 2-D
    check(be.diag_solve_upper(d0, x2.copy()),
          ref.diag_solve_upper(d0, x2.copy()))

    # the CSC sweeps left the protocol: they take a block as they take
    # a vector, in the wider of the factor dtype and float64
    assert len(KernelBackend.__abstractmethods__) == 10
    wide = np.result_type(dtype, np.float64)
    for solve, tri in ((solve_lower_csc, np.tril), (solve_upper_csc, np.triu)):
        mat = CSCMatrix.from_dense(tri(_typed_block(rng, w, dtype)))
        xb = solve(mat, x2)
        assert xb.dtype == wide and xb.shape == x2.shape
        for t in range(m):
            assert np.array_equal(xb[:, t], solve(mat, x2[:, t]))


def test_scipy_linalg_loads_on_the_first_lapack_call_only():
    """``import repro`` and a default solve leave ``scipy.linalg`` (28 MiB
    resident) unloaded; the first ``vectorized`` panel solve imports it.
    A fresh interpreter: this process has long since loaded scipy."""
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
import numpy as np
import repro
from repro.kernels import HAVE_SCIPY, get_backend

d = np.diag(np.arange(2.0, 12.0)) + 0.1
a = repro.CSCMatrix.from_dense(d)
assert repro.GESPSolver(a, cache=False).solve(d @ np.ones(10)).converged
assert "scipy.linalg" not in sys.modules, "loaded by the default path"
assert HAVE_SCIPY
get_backend("vectorized").trsm_upper(d, np.ones((3, 10)))
assert "scipy.linalg" in sys.modules, "the LAPACK path never ran"
"""
    pytest.importorskip("scipy")
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", code], text=True,
                          capture_output=True, timeout=120,
                          env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr


def test_tiny_pivot_replacement_is_dtype_and_phase_preserving():
    """The ±thresh safeguard stays in the block's dtype, and for complex
    pivots keeps the phase (``p/|p|·thresh``) instead of comparing with
    ``>=`` (which raises on complex)."""
    ref = ReferenceBackend()

    d = np.eye(3, dtype=np.float32)
    d[1, 1] = np.float32(-1e-12)
    assert ref.lu_nopivot(d, 1e-6) == [1]
    assert d.dtype == np.float32
    assert d[1, 1] == np.float32(-1e-6)    # sign kept, dtype kept

    z = np.eye(3, dtype=np.complex128)
    z[2, 2] = 1e-12 * np.exp(0.7j)
    assert ref.lu_nopivot(z, 1e-6) == [2]
    assert z.dtype == np.complex128
    assert abs(z[2, 2]) == pytest.approx(1e-6)
    assert np.angle(z[2, 2]) == pytest.approx(0.7)

    z0 = np.eye(2, dtype=np.complex128)    # zero pivot: no phase to keep
    z0[0, 0] = 0.0
    assert ref.lu_nopivot(z0, 1e-6) == [0]
    assert z0[0, 0] == 1e-6
