"""Sherman-Morrison-Woodbury recovery for aggressive pivot replacement.

Paper §5: "instead of setting tiny pivots to ``sqrt(eps)·‖A‖``, we may set
it to the largest magnitude of the current column.  This incurs a
non-trivial amount of rank-1 perturbation to the original matrix.  In the
end, we use the Sherman-Morrison-Woodbury formula to recover the inverse
of the original matrix."

If the factorization actually produced ``L U = A + U_k V_kᵀ`` where the
columns of ``U_k, V_k`` record the ``k`` pivot perturbations (each a
rank-1 change ``delta_j · e_j e_jᵀ`` in the *factored* coordinates), then

    A^{-1} b = (LU - UVᵀ)^{-1} b
             = M^{-1} b + M^{-1} U (I - Vᵀ M^{-1} U)^{-1} Vᵀ M^{-1} b

with ``M = LU``.  The correction solves a dense ``k×k`` system — cheap
when few pivots were replaced, exact up to roundoff.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["ShermanMorrisonSolver"]


class ShermanMorrisonSolver:
    """Correct a pivot-perturbed factorization via Woodbury's identity.

    Parameters
    ----------
    n:
        System order.
    solve_m:
        Callable applying ``M^{-1}`` where ``M = L U`` are the perturbed
        factors (in the same coordinates as the perturbations).
    perturbed_cols:
        Indices ``j`` whose pivot was replaced.
    deltas:
        The perturbation values: ``M = A + sum_j delta_j e_j e_jᵀ``
        (i.e. ``delta_j = new_pivot - original_pivot_value``).

    Notes
    -----
    The capacitance matrix ``C = I - Vᵀ M^{-1} U`` with
    ``U = [delta_j e_j]``, ``V = [e_j]`` reduces to
    ``C[a, b] = I - delta_b (M^{-1})_{j_a, j_b}``; it is formed with one
    ``M^{-1}`` solve per perturbed column at construction.
    """

    def __init__(self, n: int, solve_m: Callable, perturbed_cols, deltas):
        self.n = int(n)
        self.solve_m = solve_m
        self.cols = np.asarray(perturbed_cols, dtype=np.int64)
        deltas = np.asarray(deltas)
        vtype = np.complex128 if np.iscomplexobj(deltas) else np.float64
        self.deltas = deltas.astype(vtype)
        k = self.cols.size
        if self.deltas.shape != (k,):
            raise ValueError("one delta per perturbed column required")
        if k:
            # columns of M^{-1} U  (U = delta_j * e_j)
            minv_u = np.empty((self.n, k), dtype=vtype)
            for t, (j, d) in enumerate(zip(self.cols, self.deltas)):
                e = np.zeros(self.n, dtype=vtype)
                e[j] = d
                minv_u[:, t] = solve_m(e)
            self._minv_u = minv_u
            # C = I - Vᵀ M^{-1} U, V = [e_j]
            self._cap = np.eye(k, dtype=vtype) - minv_u[self.cols, :]
            # LU-factor the capacitance matrix once (dense, tiny)
            self._cap_lu = _dense_lu(self._cap)
        else:
            self._minv_u = np.zeros((self.n, 0))
            self._cap_lu = None

    @property
    def rank(self):
        """Rank of the recorded perturbation."""
        return self.cols.size

    def solve(self, b):
        """x with ``A x = b`` where ``A = M - U Vᵀ`` (exact Woodbury);
        ``b`` is (n,) or, when ``solve_m`` takes blocks, (n, nrhs)."""
        b = np.asarray(b)
        y = np.asarray(self.solve_m(b))
        if self.cols.size == 0:
            return y
        vty = y[self.cols]
        t = _dense_lu_solve(self._cap_lu, vty)
        return y + self._minv_u @ t


def _dense_lu(a):
    """Tiny dense LU with partial pivoting (k is the number of replaced
    pivots — single digits in practice, so no BLAS needed)."""
    a = np.array(a, copy=True)
    k = a.shape[0]
    piv = np.arange(k)
    for c in range(k):
        p = c + int(np.argmax(np.abs(a[c:, c])))
        if a[p, c] == 0.0:
            raise ZeroDivisionError("singular capacitance matrix: the "
                                    "perturbed system is singular")
        if p != c:
            a[[c, p]] = a[[p, c]]
            piv[[c, p]] = piv[[p, c]]
        a[c + 1:, c] /= a[c, c]
        a[c + 1:, c + 1:] -= np.outer(a[c + 1:, c], a[c, c + 1:])
    return a, piv


def _dense_lu_solve(lu_piv, b):
    a, piv = lu_piv
    k = a.shape[0]
    x = np.asarray(b)[piv].copy()
    for c in range(k):
        x[c + 1:] -= np.multiply.outer(a[c + 1:, c], x[c])
    for c in range(k - 1, -1, -1):
        x[c] /= a[c, c]
        x[:c] -= np.multiply.outer(a[:c, c], x[c])
    return x
