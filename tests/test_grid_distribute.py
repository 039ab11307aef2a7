"""Unit tests for the 2-D process grid and block-cyclic distribution."""

import numpy as np
import pytest

from repro.dmem import ProcessGrid, best_grid, distribute_matrix
from repro.sparse import CSCMatrix
from repro.symbolic import block_partition, symbolic_lu_symmetrized

from conftest import laplace2d_dense, random_nonsingular_dense


def test_best_grid_paper_shapes():
    shapes = {4: (2, 2), 8: (2, 4), 16: (4, 4), 32: (4, 8),
              64: (8, 8), 128: (8, 16), 256: (16, 16), 512: (16, 32)}
    for p, (r, c) in shapes.items():
        g = best_grid(p)
        assert (g.nprow, g.npcol) == (r, c)


def test_best_grid_non_power_of_two():
    g = best_grid(12)
    assert g.size == 12 and g.nprow <= g.npcol
    assert (g.nprow, g.npcol) == (3, 4)
    g = best_grid(7)
    assert (g.nprow, g.npcol) == (1, 7)


def test_best_grid_rejects_nonpositive():
    with pytest.raises(ValueError):
        best_grid(0)


def test_grid_coords_rank_inverse():
    g = ProcessGrid(3, 5)
    for r in range(g.size):
        pr, pc = g.coords(r)
        assert g.rank(pr, pc) == r


def test_grid_owner_cyclic():
    g = ProcessGrid(2, 3)
    assert g.owner(0, 0) == 0
    assert g.owner(2, 3) == g.owner(0, 0)
    assert g.owner(5, 7) == g.rank(1, 1)


def test_coords_out_of_range():
    with pytest.raises(ValueError):
        ProcessGrid(2, 2).coords(4)


def test_grid_rejects_bad_dims():
    with pytest.raises(ValueError):
        ProcessGrid(0, 3)


# ---------------------------- distribution ---------------------------- #

def make_dist(rng, n=30, p=6, max_block=4):
    d = random_nonsingular_dense(rng, n, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, max_size=max_block)
    grid = best_grid(p)
    return d, a, sym, part, distribute_matrix(a, sym, part, grid)


def test_distribution_reassembles_matrix(rng):
    d, a, sym, part, dist = make_dist(rng)
    sf = dist.gather_to_supernodal()
    n = a.ncols
    recon = np.zeros((n, n))
    xsup = part.xsup
    for k in range(part.nsuper):
        lo, hi = int(xsup[k]), int(xsup[k + 1])
        recon[lo:hi, lo:hi] += sf.diag[k]
        s = sf.s_rows[k]
        if s.size:
            recon[np.ix_(s, np.arange(lo, hi))] += sf.below[k]
            recon[np.ix_(np.arange(lo, hi), s)] += sf.right[k]
    assert np.allclose(recon, d)


def test_every_block_owned_exactly_once(rng):
    _, a, sym, part, dist = make_dist(rng)
    seen = set()
    for r in range(dist.grid.size):
        for k in dist.diag[r]:
            key = ("d", k)
            assert key not in seen
            seen.add(key)
        for key in dist.lblk[r]:
            assert ("l",) + key not in seen
            seen.add(("l",) + key)
        for key in dist.ublk[r]:
            assert ("u",) + key not in seen
            seen.add(("u",) + key)
    assert sum(1 for s in seen if s[0] == "d") == part.nsuper


def test_ownership_matches_grid(rng):
    _, a, sym, part, dist = make_dist(rng)
    for r in range(dist.grid.size):
        for (i, k) in dist.lblk[r]:
            assert dist.grid.owner(i, k) == r
        for (k, j) in dist.ublk[r]:
            assert dist.grid.owner(k, j) == r


def test_local_bytes_total(rng):
    _, a, sym, part, dist = make_dist(rng)
    total = sum(dist.local_bytes(r) for r in range(dist.grid.size))
    expected = 0
    for k in range(part.nsuper):
        w = dist.widths[k]
        s = dist.s_rows[k].size
        expected += (w * w + 2 * s * w) * 8
    assert total == expected


def test_requires_symmetrized(rng):
    from repro.symbolic import symbolic_lu_unsymmetric

    d = random_nonsingular_dense(rng, 10, hidden_perm=False)
    a = CSCMatrix.from_dense(d)
    sym = symbolic_lu_unsymmetric(a)
    part = block_partition(symbolic_lu_symmetrized(a), max_size=4)
    with pytest.raises(ValueError):
        distribute_matrix(a, sym, part, best_grid(2))


def test_single_rank_distribution(rng):
    d, a, sym, part, dist = make_dist(rng, p=1)
    assert dist.grid.size == 1
    assert len(dist.diag[0]) == part.nsuper
