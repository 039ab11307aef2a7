"""GESP numeric factorization: LU with static pivoting (paper step (3)).

The pivot sequence is the diagonal, fixed before any numerics — that is
the whole point of GESP.  The factorization therefore runs on the *static*
fill pattern from :mod:`repro.symbolic.fill`, with no structure discovery
and no row exchanges; the only numeric safeguard is the tiny-pivot
replacement::

    if |u_kk| < sqrt(eps) * ||A||:   u_kk = ±sqrt(eps) * ||A||

which perturbs A by at most a half-precision amount and keeps the
elimination from dividing by (near-)zero.  Iterative refinement (step (4))
corrects for the perturbation.

The kernel is the left-looking column algorithm with a dense scatter
vector (SPA), the same organization as SuperLU's — each column gathers the
updates of all earlier columns whose U entry in this column is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import kernels
from repro.obs import add, annotate, trace
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import norm1
from repro.symbolic.fill import SymbolicLU, symbolic_lu

__all__ = ["GESPFactors", "gesp_factor", "tiny_pivot_threshold",
           "spa_axpy", "col_scale"]

_EPS = float(np.finfo(np.float64).eps)


@dataclass
class GESPFactors:
    """L and U from a static-pivoting factorization.

    ``l`` is unit lower triangular (unit diagonal stored explicitly),
    ``u`` upper triangular with the (possibly perturbed) pivots on its
    diagonal; both CSC with the static pattern.  ``A ≈ L @ U`` exactly up
    to the recorded tiny-pivot perturbations.
    """

    l: CSCMatrix
    u: CSCMatrix
    n_tiny_pivots: int
    tiny_pivot_threshold: float
    perturbed_columns: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    # delta_j = replaced_pivot - original_pivot for each perturbed column,
    # in *factored* coordinates: L U = A_factored + sum_j delta_j e_j e_j^T,
    # which is what Sherman-Morrison-Woodbury recovery consumes
    pivot_deltas: np.ndarray = field(default_factory=lambda: np.empty(0, np.float64))
    # flop count actually executed (static pattern, incl. stored zeros)
    flops: int = 0
    # the block engine's level-set solve schedule bound to these values
    # (repro.factor.solveplan); None for the column kernel's factors
    sweeps: Callable | None = None
    gather: Callable | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):    # the block engine's (l, u): read when asked
        if self.gather:
            del self.l, self.u

    def __getattr__(self, name):    # what the instance does not hold
        if name in ("l", "u") and "gather" in vars(self):
            self.l, self.u = self.gather()
        return object.__getattribute__(self, name)

    def solve(self, b):
        """x with L U x = b for b of shape (n,) or (n, nrhs) (no
        permutations — the driver handles those): the static schedule
        where the block engine left one, else column sweeps on l and u."""
        if self.sweeps is not None:
            return self.sweeps(b)
        from repro.solve.triangular import solve_lower_csc, solve_upper_csc

        y = solve_lower_csc(self.l, np.asarray(b), unit_diagonal=True)
        return solve_upper_csc(self.u, y)

    def pivot_growth(self, a: CSCMatrix):
        """max_j ||U(:,j)||_inf / ||A(:,j)||_inf — the reciprocal of
        SuperLU's rpg; large values signal instability."""
        amax = _colmax(a.colptr, a.nzval, a.ncols)
        umax = _colmax(self.u.colptr, self.u.nzval, self.u.ncols)
        mask = amax > 0
        if not np.any(mask):
            return 0.0
        return float(np.max(umax[mask] / amax[mask]))


def tiny_pivot_threshold(a, scale=None):
    """Step (3)'s replacement threshold ``scale·‖A‖₁`` (``scale`` alone
    for a zero matrix); ``scale`` defaults to ``sqrt(eps)``."""
    if scale is None:
        scale = np.sqrt(_EPS)
    return scale * (norm1(a) or 1.0)


def _colmax(colptr, nzval, ncols):
    """Per-column max magnitude of a CSC matrix, one ``reduceat`` sweep.

    Empty columns get 0; the reduceat segments of non-empty columns span
    any interleaved empty columns harmlessly (zero-length slices).
    """
    out = np.zeros(ncols)
    nonempty = np.flatnonzero(np.diff(colptr) > 0)
    if nonempty.size:
        out[nonempty] = np.maximum.reduceat(np.abs(nzval), colptr[nonempty])
    return out


def spa_axpy(spa, rows, vals, xk):
    """``spa[rows] -= xk * vals`` — one left-looking column update (also
    :mod:`repro.factor.gepp`'s); 2 flops per entry."""
    spa[rows] -= xk * vals
    kernels.stats().axpy_flops += 2 * len(rows)


def col_scale(vals, pivot):
    """``vals / pivot`` elementwise, a new array in ``vals``' dtype (the
    L-column gather scale); 1 flop per entry."""
    kernels.stats().axpy_flops += len(vals)
    # cast the pivot down first so a wider scalar (e.g. a float64
    # pivot against a float32 column) cannot upcast the result
    return vals / vals.dtype.type(pivot)


def gesp_factor(a: CSCMatrix, sym: SymbolicLU | None = None,
                replace_tiny_pivots: bool = True,
                tiny_pivot_scale: float | None = None,
                symbolic_method: str = "unsymmetric",
                pivot_policy: str = "sqrt_eps") -> GESPFactors:
    """Factor ``A = L U`` with diagonal pivots on the static pattern.

    Parameters
    ----------
    a:
        Square matrix, already transformed by the driver (scaled, row-
        permuted for a large diagonal, symmetrically ordered for fill).
    sym:
        Precomputed symbolic factorization; computed here when omitted
        (in the distributed setting it is computed once and reused).
    replace_tiny_pivots:
        The paper's step (3) safeguard.  With it off, a zero pivot raises
        ``ZeroDivisionError`` — the "no pivoting at all" failure mode that
        27 of the paper's 53 matrices hit.
    tiny_pivot_scale:
        Threshold is ``tiny_pivot_scale * ||A||_1``; default ``sqrt(eps)``.
    pivot_policy:
        What replaces a tiny pivot: ``"sqrt_eps"`` sets it to
        ``±threshold`` (paper step (3)); ``"column_max"`` sets it to the
        largest magnitude in the current column (the §5 "aggressive"
        strategy, meant to be paired with Sherman-Morrison-Woodbury
        recovery via the recorded ``pivot_deltas``).

    Raises
    ------
    ZeroDivisionError
        On an exactly zero pivot when ``replace_tiny_pivots`` is off.
    """
    with trace("factor/gesp", pivot_policy=pivot_policy), \
            kernels.kernel_counters():
        factors = _gesp_factor(a, sym, replace_tiny_pivots,
                               tiny_pivot_scale, symbolic_method,
                               pivot_policy)
        add("factor.flops", factors.flops)
        add("factor.tiny_pivots", factors.n_tiny_pivots)
        annotate(tiny_pivot_threshold=factors.tiny_pivot_threshold)
        return factors


def _gesp_factor(a, sym, replace_tiny_pivots, tiny_pivot_scale,
                 symbolic_method, pivot_policy) -> GESPFactors:
    if a.nrows != a.ncols:
        raise ValueError("gesp_factor requires a square matrix")
    n = a.ncols
    if sym is None:
        sym = symbolic_lu(a, method=symbolic_method)
    elif sym.pattern_fingerprint is not None:
        # a reused symbolic factorization must describe this matrix's
        # structure — scattering a mismatched pattern through the SPA
        # would silently produce garbage factors
        from repro.sparse.ops import PatternMismatchError, pattern_fingerprint

        got = pattern_fingerprint(a)
        if got != sym.pattern_fingerprint:
            raise PatternMismatchError(
                expected=sym.pattern_fingerprint, got=got,
                where="gesp_factor (reused SymbolicLU)",
                n=a.ncols, nnz=a.nnz)
    thresh = tiny_pivot_threshold(a, tiny_pivot_scale)

    # U pattern by column (CSC view of the CSR pattern)
    u_colptr, u_rowind = transpose_pattern(sym.u_rowptr, sym.u_colind, n)

    dtype = a.nzval.dtype
    l_colptr = sym.l_colptr
    l_rowind = sym.l_rowind
    lval = np.zeros(l_rowind.size, dtype=dtype)
    uval = np.zeros(u_rowind.size, dtype=dtype)

    if pivot_policy not in ("sqrt_eps", "column_max"):
        raise ValueError(f"unknown pivot_policy {pivot_policy!r}")

    spa = np.zeros(n, dtype=dtype)
    stats = kernels.stats()
    snap = stats.snapshot()
    n_tiny = 0
    perturbed = []
    deltas = []

    for j in range(n):
        # scatter A(:,j) into the SPA
        alo, ahi = a.colptr[j], a.colptr[j + 1]
        arows = a.rowind[alo:ahi]
        spa[arows] = a.nzval[alo:ahi]

        ulo, uhi = u_colptr[j], u_colptr[j + 1]
        uks = u_rowind[ulo:uhi]  # ascending rows k <= j of U(:,j)
        # left-looking updates: for k < j in U(:,j)'s pattern, in order
        for k in uks[:-1] if (uks.size and uks[-1] == j) else uks:
            xk = spa[k]
            if xk != 0.0:
                llo, lhi = l_colptr[k], l_colptr[k + 1]
                # skip the unit diagonal at position llo
                rows = l_rowind[llo + 1:lhi]
                spa_axpy(spa, rows, lval[llo + 1:lhi], xk)
        # pivot
        pivot = spa[j]
        if replace_tiny_pivots:
            if abs(pivot) < thresh:
                old = pivot
                if pivot_policy == "column_max":
                    llo_, lhi_ = l_colptr[j], l_colptr[j + 1]
                    colmag = float(np.abs(spa[l_rowind[llo_:lhi_]]).max(initial=0.0))
                    repl = colmag if colmag > thresh else thresh
                else:
                    repl = thresh
                # keep the (complex) direction of the original pivot; a
                # zero pivot is replaced by +repl
                if pivot == 0.0:
                    pivot = dtype.type(repl)
                else:
                    pivot = pivot / abs(pivot) * repl
                spa[j] = pivot
                n_tiny += 1
                perturbed.append(j)
                deltas.append(pivot - old)
        elif pivot == 0.0:
            raise ZeroDivisionError(
                f"zero pivot at column {j} with static pivoting disabled")

        # gather U(:,j) — rows k <= j
        uval[ulo:uhi] = spa[u_rowind[ulo:uhi]]
        # gather L(:,j) — rows >= j, unit diagonal first
        llo, lhi = l_colptr[j], l_colptr[j + 1]
        lrows = l_rowind[llo:lhi]
        vals = spa[lrows]
        vals[0] = 1.0                      # unit diagonal of L
        vals[1:] = col_scale(vals[1:], pivot)  # L(i,j) = x_i / u_jj
        lval[llo:lhi] = vals

        # clear the SPA entries we touched (original + fill)
        spa[lrows] = 0.0
        spa[u_rowind[ulo:uhi]] = 0.0
        spa[arows] = 0.0

    l = CSCMatrix(n, n, l_colptr.copy(), l_rowind.copy(), lval, check=False)
    u = CSCMatrix(n, n, u_colptr, u_rowind, uval, check=False)
    return GESPFactors(l=l, u=u, n_tiny_pivots=n_tiny,
                       tiny_pivot_threshold=thresh,
                       perturbed_columns=np.array(perturbed, dtype=np.int64),
                       pivot_deltas=np.array(deltas, dtype=dtype),
                       flops=int(stats.flops_since(snap)))


def transpose_pattern(rowptr, colind, n):
    """CSR pattern -> CSC pattern (colptr, rowind), sorted rows."""
    colptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(colptr, colind + 1, 1)
    np.cumsum(colptr, out=colptr)
    rows_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(rowptr))
    order = np.argsort(colind, kind="stable")
    rowind = rows_of[order]
    return colptr, rowind

