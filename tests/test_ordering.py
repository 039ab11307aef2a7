"""Unit tests for fill-reducing orderings (MMD, column orderings)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ordering import column_ordering, minimum_degree
from repro.sparse import CSCMatrix, permute_symmetric

from conftest import laplace2d_dense


def symbolic_fill_count(dense_pattern):
    """nnz(L) of the Cholesky factor of a symmetric pattern."""
    n = dense_pattern.shape[0]
    pat = dense_pattern.copy()
    np.fill_diagonal(pat, True)
    count = 0
    for k in range(n):
        rows = np.nonzero(pat[k + 1:, k])[0] + k + 1
        count += rows.size + 1
        for r in rows:
            pat[r, rows] = True
    return count


def fill_under(perm, a):
    p = permute_symmetric(a, perm)
    return symbolic_fill_count(p.to_dense() != 0)


@pytest.fixture
def grid_matrix():
    return CSCMatrix.from_dense(laplace2d_dense(8))


def test_mmd_is_permutation(rng):
    for _ in range(15):
        n = int(rng.integers(2, 40))
        d = rng.random((n, n)) < 0.2
        d = d | d.T
        a = CSCMatrix.from_dense(d.astype(float))
        p = minimum_degree(a)
        assert sorted(p.tolist()) == list(range(n))


def test_mmd_reduces_fill_on_grid(grid_matrix):
    n = grid_matrix.ncols
    natural = fill_under(np.arange(n), grid_matrix)
    md = fill_under(minimum_degree(grid_matrix), grid_matrix)
    assert md < natural


def test_mmd_single_vs_multiple_both_valid(grid_matrix):
    n = grid_matrix.ncols
    p1 = minimum_degree(grid_matrix, multiple=False)
    p2 = minimum_degree(grid_matrix, multiple=True)
    assert sorted(p1.tolist()) == list(range(n))
    assert sorted(p2.tolist()) == list(range(n))
    natural = fill_under(np.arange(n), grid_matrix)
    assert fill_under(p1, grid_matrix) < natural
    assert fill_under(p2, grid_matrix) < natural


def test_mmd_diagonal_matrix():
    a = CSCMatrix.identity(5)
    p = minimum_degree(a)
    assert sorted(p.tolist()) == list(range(5))


def test_mmd_rejects_rectangular():
    with pytest.raises(ValueError):
        minimum_degree(CSCMatrix.empty(2, 3))


def test_mmd_dense_matrix():
    a = CSCMatrix.from_dense(np.ones((6, 6)))
    p = minimum_degree(a)
    assert sorted(p.tolist()) == list(range(6))


# blake2b-8 of minimum_degree's permutation (int64 bytes) on the pattern
# of AᵀA and of Aᵀ+A, for every testbed matrix.  The cold_mix seven and
# kkt02 were recorded at the commit before ``weight`` / ``degree`` became
# plain lists, the other 45 on the set-based loop (``golden_minimum_degree``
# below) before the bitset quotient graph: a faster loop must not move a
# single tie-break
MMD_DIGESTS = {
    "cfd01": ("16800584c426b85f", "42bf145d751811e3"),
    "cfd02": ("d610230dbc5acffb", "437dec11d9466ad6"),
    "cfd03": ("d72115861937b37d", "1fe854916209a2f8"),
    "cfd04": ("89d94ce192d5642e", "3bbd299b2ff94958"),
    "cfd05": ("5bc7513600a1ef59", "3012d5c6e86b4392"),
    "cfd06": ("2ede1c994019a23d", "13c41b5b8a1eb918"),
    "cfd07": ("d72115861937b37d", "1fe854916209a2f8"),
    "cfd08": ("ccbd99ff60780933", "06d6d14d83124ac8"),
    "device01": ("16800584c426b85f", "42bf145d751811e3"),
    "device02": ("d610230dbc5acffb", "437dec11d9466ad6"),
    "device03": ("d72115861937b37d", "1fe854916209a2f8"),
    "device04": ("89d94ce192d5642e", "3bbd299b2ff94958"),
    "device05": ("5bc7513600a1ef59", "3012d5c6e86b4392"),
    "circuit01": ("a0fcba536532c336", "77d1e0b9ead898c5"),
    "circuit02": ("007f29f6618e00ce", "2b93cdf210558cb2"),
    "circuit03": ("3a12230c7ef5ba00", "4f517b96e8eab778"),
    "circuit04": ("b3ac359a1e8b33d0", "b9743e85002ac0f2"),
    "circuit05": ("5a62317405614ed3", "6c49c87936f02d40"),
    "circuit06": ("c134e3abe2cdc701", "f1aee41e5617ddb0"),
    "hb01": ("f78d6c2e02d32bbb", "334c30a922a824b3"),
    "hb02": ("0c25095a1f77cbce", "fb19010e45f92465"),
    "fem01": ("167a4a19103bc0a5", "9b71e77aa90be962"),
    "fem02": ("788d3e8637471ff2", "e11a6d679d09f152"),
    "fem03": ("0af740f095a11bcf", "91e486edb4cc4c74"),
    "fem04": ("b3dc9fe529e9073f", "629cd8a64a553987"),
    "fem05": ("c84a57d67e66aac8", "7585218b48ffb3cd"),
    "fem06": ("3e7904599958f82b", "e0b0bd3b9eb19499"),
    "chem01": ("f31bffd661713b6e", "22cb5b5029e8a078"),
    "chem02": ("b997d2787460f039", "729f363efb5bf116"),
    "chem03": ("ac909cfe77262db7", "956593cd8282465c"),
    "chem04": ("07a808c6597887f6", "5842aaf60432b939"),
    "chem05": ("8c6a23ed9d37e553", "fdf95bff449d3671"),
    "chem06": ("5890b50ac3ab9f98", "c8e1460123ed6d79"),
    "resv01": ("595fe16f26dcee99", "cb967a4d94929393"),
    "resv02": ("e0d44279748d47e1", "edb7853269ffef71"),
    "resv03": ("203578cb8a72aa68", "ce88e787c7cee675"),
    "resv04": ("c830650dbc049d33", "14add07edfd0b23a"),
    "kkt01": ("39104b9c922af27a", "da8f10aa46113022"),
    "kkt02": ("2a09ac94bbc55a40", "7aeac3e61bd1170b"),
    "kkt03": ("8c74ebc5c675e97b", "d8e3be5e74df75f0"),
    "kkt04": ("a9f472f2ef3c9539", "361370181b333e98"),
    "aniso01": ("7eeed9649c31b635", "c7fdb9a32d3de824"),
    "aniso02": ("7eeed9649c31b635", "c7fdb9a32d3de824"),
    "aniso03": ("7eeed9649c31b635", "c7fdb9a32d3de824"),
    "gen01": ("3b89377f427c1454", "c917b3b5afae718a"),
    "gen02": ("d65117a405c2a089", "86d742baa63e66a4"),
    "gen03": ("a1222a48365a419e", "5759b3fc06aa4b7d"),
    "gen04": ("411e58d5359866ee", "9efbf96d8aef29f0"),
    "gen05": ("14b339567b79a48c", "e60a6a624a7814f4"),
    "gen06": ("a2e9382d5cfa4480", "fe14d4482bdce103"),
    "gen07": ("0dfee64276b486a3", "3ebf294f7036fc81"),
    "gen08": ("166cfc3ea1b0bebf", "88f9bc69394a42b1"),
    "gen09": ("d66c7a99d9a91b29", "1ff02ea9c7f1a938"),
}
# ... and with single elimination (``multiple=False``)
MMD_SINGLE_DIGESTS = {
    "cfd01": ("0d1bb2f45c809b58", "1572f2de075239b7"),
    "cfd02": ("5d29d8b6639c7385", "cbde520e06e4ac01"),
    "cfd03": ("26fc0f108e05e597", "a9e82c755cd7d83e"),
    "cfd04": ("0231f5315165d8dd", "58e8d650896d0566"),
    "cfd05": ("8d276592fb3b1d84", "6aaad72a7ee59d09"),
    "cfd06": ("248438efc5532999", "f5f661c59732f180"),
    "cfd07": ("26fc0f108e05e597", "a9e82c755cd7d83e"),
    "cfd08": ("b9a0b78ac19b382d", "e1246a9a26f49f4a"),
    "device01": ("0d1bb2f45c809b58", "1572f2de075239b7"),
    "device02": ("5d29d8b6639c7385", "cbde520e06e4ac01"),
    "device03": ("26fc0f108e05e597", "a9e82c755cd7d83e"),
    "device04": ("0231f5315165d8dd", "58e8d650896d0566"),
    "device05": ("8d276592fb3b1d84", "6aaad72a7ee59d09"),
    "circuit01": ("330f396f48696214", "818a827bb5591d28"),
    "circuit02": ("45c23113215b3cf3", "79f9b2441fd9eeb5"),
    "circuit03": ("0f29c81b284a7c40", "f45b2d0f8c5c40fa"),
    "circuit04": ("416ee0466503be6c", "ae45330e4fff6108"),
    "circuit05": ("f0080d23ff482268", "cd939dbb22af27f9"),
    "circuit06": ("0af2be029adb9bc0", "6156c86d7954d34c"),
    "hb01": ("0ff74124906c4692", "ef0f3ac2736d718d"),
    "hb02": ("3c3b5a7fe2dd1f48", "0bcf67fce6481ed7"),
    "fem01": ("f1a65aaaef3a6d6a", "2303ce6fbb4d72e3"),
    "fem02": ("df34fcb3e29a0bd8", "89bb6e128c40f511"),
    "fem03": ("aa6cefd8286a1383", "07306320098e307b"),
    "fem04": ("e959a5e44ebd5dba", "7d61fc9f97a1274f"),
    "fem05": ("677753de5e56dec0", "293a556c74fef074"),
    "fem06": ("f4c183b76dcefd5f", "f0e8109b8c3d1ab5"),
    "chem01": ("4e4e0f58643b8d6c", "c7d8701dad8f94ce"),
    "chem02": ("b03a60547bac4c50", "b28cd4d6315f106c"),
    "chem03": ("967fbe83f77a4804", "bebd8fccc3fb0d16"),
    "chem04": ("9a3de4ec2770822b", "b4eab001ebaad1ae"),
    "chem05": ("73d8d9ff68ff37dc", "b940188c593ac9ae"),
    "chem06": ("b28db8c5d6d9896d", "40d6c7c6ae997f68"),
    "resv01": ("e1ddddc3671ef618", "2474968a15eba0e0"),
    "resv02": ("eaef9067642ab812", "63d961edfd84e1aa"),
    "resv03": ("0d4e4258eae52099", "dcde683c3238f827"),
    "resv04": ("984f471a00dea677", "b46f49718db1ff7a"),
    "kkt01": ("39104b9c922af27a", "da8f10aa46113022"),
    "kkt02": ("2a09ac94bbc55a40", "7aeac3e61bd1170b"),
    "kkt03": ("8c74ebc5c675e97b", "d8e3be5e74df75f0"),
    "kkt04": ("6cfdcdf4d719187b", "7a4103d5d780159c"),
    "aniso01": ("e59018215665eb02", "58f449e8c6b9b2d3"),
    "aniso02": ("e59018215665eb02", "58f449e8c6b9b2d3"),
    "aniso03": ("e59018215665eb02", "58f449e8c6b9b2d3"),
    "gen01": ("3b89377f427c1454", "427e8154f6244275"),
    "gen02": ("26db32cfa82803ff", "86d742baa63e66a4"),
    "gen03": ("a1222a48365a419e", "5759b3fc06aa4b7d"),
    "gen04": ("411e58d5359866ee", "9efbf96d8aef29f0"),
    "gen05": ("14b339567b79a48c", "e60a6a624a7814f4"),
    "gen06": ("a2e9382d5cfa4480", "b054d772bf17a78c"),
    "gen07": ("0dfee64276b486a3", "3ebf294f7036fc81"),
    "gen08": ("166cfc3ea1b0bebf", "88f9bc69394a42b1"),
    "gen09": ("d66c7a99d9a91b29", "1ff02ea9c7f1a938"),
}


def _digest(perm):
    import hashlib

    return hashlib.blake2b(perm.astype(np.int64).tobytes(),
                           digest_size=8).hexdigest()


@pytest.mark.parametrize("name", sorted(MMD_DIGESTS))
def test_mmd_permutation_is_the_recorded_one(name):
    from repro.matrices import matrix_by_name
    from repro.sparse.ops import pattern_ata, pattern_union_transpose

    a = matrix_by_name(name).build()
    graphs = (pattern_ata(a, dense_col_tol=max(16, a.ncols // 2)),
              pattern_union_transpose(a))
    assert tuple(_digest(minimum_degree(g)) for g in graphs) \
        == MMD_DIGESTS[name]
    assert tuple(_digest(minimum_degree(g, multiple=False)) for g in graphs) \
        == MMD_SINGLE_DIGESTS[name]


# ... and the same on AᵀA and Aᵀ+A of the eight large analogs
LARGE_8_MMD_DIGESTS = {
    "AF23560a": ("326c751643b7702d", "b3b7725574b3c3aa"),
    "BBMATa": ("0cf6c2bfaa689441", "c07417ada839abc6"),
    "ECL32a": ("5ab3ff80e84d672a", "4b3c6852b2381be2"),
    "EX11a": ("5d512653c4e6858d", "97eebd0306882fba"),
    "FIDAPM11a": ("96c1dc8b6b4892ab", "a2155efe5143d219"),
    "RDIST1a": ("ee3e33a4af067fbd", "f41d87e020c6a52a"),
    "TWOTONEa": ("c43a2ea5737c045e", "bf5b0737903ef1b3"),
    "WANG4a": ("3d58fc056ee60907", "37a09c7e21616969"),
}


@pytest.mark.parametrize("name", sorted(LARGE_8_MMD_DIGESTS))
def test_mmd_permutation_on_the_large_analogs_is_the_recorded_one(name):
    from repro.matrices import matrix_by_name
    from repro.sparse.ops import pattern_ata, pattern_union_transpose

    a = matrix_by_name(name).build()
    graphs = (pattern_ata(a, dense_col_tol=max(16, a.ncols // 2)),
              pattern_union_transpose(a))
    assert tuple(_digest(minimum_degree(g)) for g in graphs) \
        == LARGE_8_MMD_DIGESTS[name]


# the frozen set-based loop — copied verbatim from the historical
# ``minimum_degree`` (minus its one-valued ``tie_break``).  DO NOT "fix" or
# modernise it: it is the reference every tie-break of the bitset quotient
# graph is compared against
def golden_minimum_degree(a, multiple=True):
    n = a.ncols

    # ---- build symmetric adjacency sets (no self loops) ----
    adj = [set() for _ in range(n)]
    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(a.colptr))
    for i, j in zip(a.rowind.tolist(), cols.tolist()):
        if i != j:
            adj[i].add(j)
            adj[j].add(i)

    # quotient-graph state
    elems = [set() for _ in range(n)]   # elements adjacent to variable v
    elem_list = {}                      # element id -> set of variables
    weight = [1] * n                    # supervariable sizes
    members = {v: [v] for v in range(n)}  # supervariable members, in order
    # weighted external degree
    degree = [sum(map(weight.__getitem__, adj[v])) for v in range(n)]

    perm = np.empty(n, dtype=np.int64)
    next_pos = 0
    remaining = set(range(n))

    def reach(v):
        """Variables reachable from v through original edges and elements."""
        r = set(adj[v])
        for e in elems[v]:
            r |= elem_list[e]
        r.discard(v)
        return r

    while remaining:
        dmin = min(map(degree.__getitem__, remaining))
        cands = sorted(v for v in remaining if degree[v] == dmin)
        if not multiple:
            cands = cands[:1]
        # maximal independent subset of the candidates (greedy, index order)
        chosen = []
        blocked = set()
        for v in cands:
            if v in blocked:
                continue
            chosen.append(v)
            blocked |= reach(v)
        touched = set()
        for p in chosen:
            lp = reach(p) & remaining
            # create the new element; absorb p's old elements
            eid = p  # reuse the pivot's index as the element id
            for e in list(elems[p]):
                elem_list.pop(e, None)
            elem_list[eid] = set(lp)
            for v in lp:
                adj[v].discard(p)
                adj[v] -= lp          # edges inside the clique are implied
                dead = {e for e in elems[v] if e not in elem_list}
                elems[v] -= dead
                elems[v].add(eid)
            # number p (and its merged members)
            for m in members[p]:
                perm[m] = next_pos
                next_pos += 1
            remaining.discard(p)
            adj[p].clear()
            elems[p].clear()
            touched |= lp
        touched &= remaining
        # exact degree recomputation for touched variables
        reaches = {v: reach(v) & remaining for v in touched}
        for v in touched:
            degree[v] = sum(map(weight.__getitem__, reaches[v]))
        # supervariable (indistinguishable node) detection among touched
        sig = {}
        for v in sorted(touched):
            key = (frozenset(reaches[v] | {v}),)
            if key in sig:
                u = sig[key]  # representative
                # merge v into u: eliminate together later
                members[u].extend(members[v])
                weight[u] += weight[v]
                remaining.discard(v)
                for w in reaches[v]:
                    adj[w].discard(v)
                for e in list(elems[v]):
                    if e in elem_list:
                        elem_list[e].discard(v)
                adj[v].clear()
                elems[v].clear()
                # degrees of common neighbours shrink by nothing (weights
                # moved, not removed) except v no longer counts itself;
                # recompute u's degree
                degree[u] = sum(map(weight.__getitem__,
                                    reach(u) & remaining))
            else:
                sig[key] = v
    return perm


@st.composite
def mmd_graphs(draw):
    """Square patterns, not necessarily symmetric: random, disconnected
    (block diagonal), or random plus one dense row and column."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.random((n, n)) < draw(st.floats(0.0, 0.6))
    shape = draw(st.sampled_from(["random", "disconnected", "dense_row"]))
    if shape == "disconnected":
        blocks = rng.integers(0, draw(st.integers(2, 5)), size=n)
        d &= blocks[:, None] == blocks[None, :]
    elif shape == "dense_row":
        v = int(rng.integers(n))
        d[v, :] = d[:, v] = True
    if draw(st.booleans()):
        d |= d.T
    return CSCMatrix.from_dense(d.astype(float))


@given(mmd_graphs(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_mmd_matches_the_frozen_set_loop(a, multiple):
    assert np.array_equal(minimum_degree(a, multiple=multiple),
                          golden_minimum_degree(a, multiple=multiple))


@pytest.mark.parametrize("a", [CSCMatrix.empty(0, 0), CSCMatrix.empty(6, 6),
                               CSCMatrix.identity(7)],
                         ids=["empty", "no_entries", "diagonal_only"])
@pytest.mark.parametrize("multiple", [True, False])
def test_mmd_edge_graphs_match_the_frozen_set_loop(a, multiple):
    assert np.array_equal(minimum_degree(a, multiple=multiple),
                          golden_minimum_degree(a, multiple=multiple))


@pytest.mark.parametrize("method", ["mmd_ata", "mmd_at_plus_a", "natural"])
def test_column_ordering_valid(method, rng):
    n = 25
    d = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.2)
    np.fill_diagonal(d, 1.0)
    a = CSCMatrix.from_dense(d)
    p = column_ordering(a, method=method)
    assert sorted(p.tolist()) == list(range(n))


def test_column_ordering_natural_is_identity():
    a = CSCMatrix.identity(4)
    assert np.array_equal(column_ordering(a, "natural"), np.arange(4))


def test_column_ordering_unknown_method():
    # the four retired orderings are unknown names like any other
    for method in ("bogus", "amd_ata", "amd_at_plus_a", "colamd", "nd_ata"):
        with pytest.raises(ValueError,
                           match="mmd_ata, mmd_at_plus_a, natural"):
            column_ordering(CSCMatrix.identity(3), method=method)


def test_column_ordering_reduces_lu_fill():
    from repro.symbolic import symbolic_lu_unsymmetric
    from repro.sparse.ops import permute_symmetric as psym

    a = CSCMatrix.from_dense(laplace2d_dense(7))
    natural_fill = symbolic_lu_unsymmetric(a).nnz_lu
    p = column_ordering(a, "mmd_ata")
    fill = symbolic_lu_unsymmetric(psym(a, p)).nnz_lu
    assert fill < natural_fill
