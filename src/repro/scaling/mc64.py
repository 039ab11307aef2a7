"""MC64: permute large entries to the diagonal (Duff & Koster).

GESP step (1) chooses a row permutation ``Pr`` and diagonal scalings
``Dr``, ``Dc`` so that every diagonal entry of ``Pr Dr A Dc`` is ±1, every
off-diagonal entry is at most 1 in magnitude, and the product of the
diagonal magnitudes is maximized — the variant of [Duff & Koster,
RAL-TR-97-059] the paper reports results for (MC64 job 5 with scaling).

Maximizing ``prod |a_{p(j), j}|`` equals minimizing ``sum c_ij`` over
perfect matchings with ``c_ij = log(m_j) - log|a_ij|`` where ``m_j`` is
column ``j``'s largest magnitude.  The optimal duals ``(u, v)`` of that
assignment problem give the scaling directly::

    Dr[i] = exp(u[i]),      Dc[j] = exp(v[j]) / m_j

because ``|(Dr A Dc)_{ij}| = exp(u_i + v_j - c_ij) <= 1`` with equality on
matched entries (complementary slackness).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import add, annotate, trace
from repro.sparse.csc import CSCMatrix
from repro.scaling.matching import (
    StructurallySingularError,
    bottleneck_matching,
    max_transversal,
    sparse_assignment,
)

__all__ = ["mc64", "MC64Result"]


@dataclass
class MC64Result:
    """Output of :func:`mc64`.

    Attributes
    ----------
    perm_r:
        Row permutation in SuperLU ``perm_r`` convention: row ``i`` of A
        moves to row ``perm_r[i]``, which places the matched entries on the
        diagonal of ``permute_rows(A, perm_r)``.
    rowof:
        The matching itself: ``rowof[j]`` is the row matched to column ``j``
        (``perm_r[rowof[j]] == j``).
    dr, dc:
        Row/column scale vectors (all ones unless job="product" asked for
        scaling) — apply as ``diag(dr) @ A @ diag(dc)`` *before* permuting.
    objective:
        For job="product": ``sum(log |matched|)`` of the *scaled-by-colmax*
        problem (0 is perfect); for job="bottleneck": the bottleneck value;
        for job="cardinality": the matching size.
    """

    perm_r: np.ndarray
    rowof: np.ndarray
    dr: np.ndarray
    dc: np.ndarray
    objective: float

    def apply(self, a: CSCMatrix) -> CSCMatrix:
        """Return ``Pr · Dr · A · Dc`` — the GESP step-(1) transformed matrix."""
        from repro.sparse.ops import permute_rows, scale_cols, scale_rows

        return permute_rows(scale_cols(scale_rows(a, self.dr), self.dc), self.perm_r)


def mc64(a: CSCMatrix, job: str = "product", scale: bool = True) -> MC64Result:
    """Find a permutation putting large entries on the diagonal.

    Parameters
    ----------
    a:
        Square sparse matrix.  Explicitly stored zeros never enter a
        matching (they would become zero pivots).
    job:
        - ``"cardinality"`` — zero-free diagonal only (Duff's MC21);
        - ``"bottleneck"`` — maximize the smallest diagonal magnitude;
        - ``"product"`` — maximize the product of diagonal magnitudes
          (the paper's choice; MC64 job 5).
    scale:
        For ``"product"`` only: also return the Duff-Koster dual scalings
        that make the diagonal exactly ±1 and off-diagonals at most 1.

    Raises
    ------
    StructurallySingularError
        If the matrix has no zero-free diagonal under any permutation.
    """
    if a.nrows != a.ncols:
        raise ValueError("mc64 requires a square matrix")
    with trace("scaling/mc64", job=job):
        res = _mc64(a, job, scale)
        add("scaling.mc64.matched", int(np.count_nonzero(res.rowof >= 0)))
        annotate(objective=res.objective)
        return res


def _mc64(a: CSCMatrix, job: str, scale: bool) -> MC64Result:
    n = a.ncols
    nz = a.prune_zeros()  # explicit zeros are not candidate pivots

    ones = np.ones(n)
    if job == "cardinality":
        rowof = max_transversal(nz, require_perfect=True)
        return MC64Result(_perm_from_matching(rowof, n), rowof, ones, ones,
                          float(n))
    if job == "bottleneck":
        rowof, val = bottleneck_matching(nz)
        return MC64Result(_perm_from_matching(rowof, n), rowof, ones, ones, val)
    if job != "product":
        raise ValueError(f"unknown job {job!r}")

    if n == 0:
        return MC64Result(np.empty(0, np.int64), np.empty(0, np.int64),
                          ones, ones, 0.0)
    if nz.nnz == 0:
        raise StructurallySingularError("matrix has no nonzero entries")

    mags = np.abs(nz.nzval)
    counts = np.diff(nz.colptr)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise StructurallySingularError(f"column {empty[0]} has no nonzeros")
    colmax = np.maximum.reduceat(mags, nz.colptr[:-1])
    cols = np.repeat(np.arange(n, dtype=np.int64), counts)
    cost = np.log(colmax[cols]) - np.log(mags)

    rowof, u, v = sparse_assignment(n, nz.colptr, nz.rowind, cost)
    objective = -float(cost[_matched_edges(nz, rowof)].sum())

    if scale:
        dr = np.exp(u)
        dc = np.exp(v) / colmax
    else:
        dr = ones
        dc = ones.copy()
    return MC64Result(_perm_from_matching(rowof, n), rowof, dr, dc, objective)


def _perm_from_matching(rowof, n):
    """perm_r with perm_r[rowof[j]] = j: matched entries land on the diagonal."""
    perm_r = np.full(n, -1, dtype=np.int64)
    matched = np.flatnonzero(rowof >= 0)
    perm_r[rowof[matched]] = matched
    if np.any(perm_r < 0):
        raise StructurallySingularError("matching is not perfect")
    return perm_r


def _matched_edges(a, rowof):
    """Indices into nzval of the matched entries (one per column): one
    search over the keys ``col * n + row``, sorted because rows are sorted
    within each column."""
    n = a.ncols
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.colptr))
    idx = np.searchsorted(cols * n + a.rowind, np.arange(n) * n + rowof)
    found = idx < a.colptr[1:]
    found[found] = a.rowind[idx[found]] == rowof[found]
    if not found.all():
        raise AssertionError("matched entry missing from structure")
    return idx
