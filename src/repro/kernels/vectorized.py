"""The ``vectorized`` backend: LAPACK panels + flat-index scatter.

Profiling the serial supernodal factorization (see docs/KERNELS.md)
shows the hot spots are (a) the per-column Python sweeps in the panel
triangular solves and (b) the double-``np.ix_`` scatter-subtract of the
rank-b update.  This backend replaces both:

- whole-panel triangular solves through ``scipy.linalg.solve_triangular``
  (one LAPACK ``trtrs`` call instead of w Python iterations) when scipy
  is importable and the block is wide enough to amortize the call;
  otherwise the reference column sweep — scipy is an *optional*
  dependency (the ``[perf]`` extra), never a hard one;
- the masked scatter-subtract as a single flat raveled-index
  gather/subtract on the target block (one 1-D fancy-index op instead of
  two ``np.ix_`` products);
- ``diag_solve_*`` for the supernodal solve path through the same LAPACK
  route.

Everything else (LU of the diagonal block, GEMM, the SPA column ops)
inherits the reference implementation — numpy already dispatches those
to BLAS or they are memory-bound scatter loops.

Numerics: LAPACK reorders the same floating-point sums the reference
sweep performs, so results agree to a few ulps, not bit-for-bit;
``tests/test_kernels.py`` enforces a ≤ 4·eps componentwise envelope.
"""

from __future__ import annotations

from importlib.util import find_spec

import numpy as np

from repro.kernels.base import _as_submatrix, trsm_flops
from repro.kernels.reference import ReferenceBackend

__all__ = ["VectorizedBackend", "HAVE_SCIPY"]

# optional [perf] extra — never a hard dependency, and loaded by the first
# LAPACK call only: scipy.linalg is 28 MiB resident in every worker process
HAVE_SCIPY = find_spec("scipy") is not None


def _solve_triangular(*args, **kwargs):
    from scipy.linalg import solve_triangular

    return solve_triangular(*args, check_finite=False, **kwargs)


# Below these block widths the Python sweep beats the LAPACK call
# overhead (measured on the cfd testbed).
_TRSM_CUTOFF = 3
_DIAG_SOLVE_CUTOFF = 8


class VectorizedBackend(ReferenceBackend):
    """LAPACK/BLAS-backed panels with a numpy-only fallback."""

    name = "vectorized"

    def trsm_upper(self, d, b):
        w = d.shape[0]
        if not HAVE_SCIPY or w < _TRSM_CUTOFF or not b.size:
            return super().trsm_upper(d, b)
        # X · U = B  ⇔  Uᵀ Xᵀ = Bᵀ; trans="T" references only d's upper
        # triangle, so the packed L half is ignored exactly as the sweep
        # ignores it
        b[...] = _solve_triangular(d, b.T, lower=False, trans="T").T
        st = self.stats
        st.trsm_calls += 1
        st.trsm_flops += trsm_flops(w, b.shape[0])
        return b

    def trsm_lower_unit(self, d, r):
        w = d.shape[0]
        if not HAVE_SCIPY or w < _TRSM_CUTOFF or not r.size:
            return super().trsm_lower_unit(d, r)
        r[...] = _solve_triangular(d, r, lower=True, unit_diagonal=True)
        st = self.stats
        st.trsm_calls += 1
        st.trsm_flops += trsm_flops(w, r.shape[1])
        return r

    def scatter_sub(self, tgt, rows, cols, src, src_rows=None,
                    src_cols=None):
        self.stats.scatter_calls += 1
        sub = _as_submatrix(src, src_rows, src_cols)
        if not tgt.flags.c_contiguous:
            tgt[np.ix_(rows, cols)] -= sub
            return
        # one fancy index on the raveled target instead of np.ix_'s two
        # outer-product index arrays — the measured hot spot.  The 2-D
        # flat-index array keeps sub's shape, so no ravel/copy of sub.
        # Single-row/-column scatters (most calls on the cfd testbed:
        # width-1 supernodes) take a 1-D flat index, which skips the
        # broadcasted outer sum entirely.
        w = tgt.shape[1]
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        out = tgt.reshape(-1)
        if rows.size == 1:
            out[rows[0] * w + cols] -= sub[0]
        elif cols.size == 1:
            out[rows * w + cols[0]] -= sub[:, 0]
        else:
            out[rows[:, None] * w + cols] -= sub

    def diag_solve_lower_unit(self, d, x):
        w = d.shape[0]
        if not HAVE_SCIPY or w < _DIAG_SOLVE_CUTOFF:
            return super().diag_solve_lower_unit(d, x)
        x[...] = _solve_triangular(d, x, lower=True, unit_diagonal=True)
        nrhs = 1 if x.ndim == 1 else x.shape[1]
        self.stats.solve_flops += w * w * nrhs
        return x

    def diag_solve_upper(self, d, x):
        w = d.shape[0]
        if not HAVE_SCIPY or w < _DIAG_SOLVE_CUTOFF:
            return super().diag_solve_upper(d, x)
        x[...] = _solve_triangular(d, x, lower=False)
        nrhs = 1 if x.ndim == 1 else x.shape[1]
        self.stats.solve_flops += w * w * nrhs
        return x
