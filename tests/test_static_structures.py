"""First contact's static structures are built by array passes, bit for
bit the per-column and per-supernode loops they replaced.

The structures: the symmetrized fill (``SymbolicLU``), the elimination
tree and its postorder, the column etree, the supernode partition
(fundamental, relaxed, split) and every field of the
:class:`~repro.factor.blockplan.BlockPlan`.  Identity is pinned two ways:

1. digests of every array (values, dtype and shape) on the 53 testbed
   matrices and the 8 large analogs, as the serial pipeline analyses
   them under minimum degree on AᵀA — recorded from the loops — plus
   the partition rule's plan under the serial default ordering (Aᵀ+A);
2. frozen copies of those loops, compared array for array on a
   hypothesis sweep that includes relaxed and dense-tail partitions,
   block-pivoting's block-closed row sets and random supersets of the
   row sets, so that some supernodes keep only part of their update
   grid (``selection`` is not ``None``).
"""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.factor.blockpivot as blockpivot
from repro.driver import GESPOptions
from repro.driver.dist_driver import DistributedGESPSolver
from repro.driver.pipeline import preprocess
from repro.factor.blockplan import build_block_plan, supernode_row_sets
from repro.matrices import matrix_by_name
from repro.ordering.etree import column_etree, etree_symmetric, postorder
from repro.sparse.ops import pattern_union_transpose
from repro.symbolic import (
    block_partition,
    find_supernodes,
    merge_dense_tail,
    relax_supernodes,
    split_supernodes,
    symbolic_lu_symmetrized,
    symbolic_lu_unsymmetric,
)

from test_block_engine import _random_system


def _digest(*objs):
    """blake2b of arrays (dtype, shape, bytes), sequences, dataclasses
    and scalars, walked in order."""
    h = hashlib.blake2b(digest_size=8)

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, (list, tuple)):
            h.update(f"[{len(x)}".encode())
            for y in x:
                feed(y)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                feed(getattr(x, f.name))
        elif isinstance(x, (int, np.integer)):
            h.update(f"i{int(x)}".encode())
        else:
            h.update(repr(x).encode())

    for obj in objs:
        feed(obj)
    return h.hexdigest()


def _plan_digest(plan):
    return _digest(plan.part.xsup, plan.bounds, plan.shapes, plan.a_pos,
                   plan.l_pos, plan.u_pos, plan.targets, plan.selection,
                   plan.runs, plan.solve)


def _rule_plan_digest(at):
    sym = symbolic_lu_symmetrized(at)
    return _plan_digest(build_block_plan(at, sym, block_partition(sym)))


def _structures(name):
    """(fill, unrelaxed partition, its plan, relax-8 partition + plan,
    trees, the partition rule's partition + plan) digests of ``name`` as
    the serial pipeline analyses it under minimum degree on AᵀA, and the
    partition rule's plan under the serial default (Aᵀ+A)."""
    a = matrix_by_name(name).build()
    at = preprocess(a, GESPOptions(col_perm="mmd_ata"))[0]
    sym = symbolic_lu_symmetrized(at)
    fundamental = find_supernodes(sym)
    part = split_supernodes(fundamental)
    return (_digest(sym.l_colptr, sym.l_rowind, sym.u_rowptr, sym.u_colind,
                    sym.etree),
            _digest(part.xsup),
            _plan_digest(build_block_plan(at, sym, part)),
            _plan_digest(build_block_plan(at, sym, split_supernodes(
                relax_supernodes(sym, fundamental, relax_size=8)))),
            _digest(postorder(sym.etree), column_etree(a), column_etree(at)),
            _rule_plan_digest(at),
            _rule_plan_digest(preprocess(a, GESPOptions())[0]))


# recorded from the per-column fill, the numpy-scalar tree walks, the
# per-column supernode test and the per-supernode target loop; the two
# plan columns were re-recorded when ``runs`` became the level-order
# steps, after checking that the digest of every other plan field held;
# the sixth column (the partition rule's plan) was recorded when both
# drivers began to share ``block_partition``.  The six were recorded
# under minimum degree on AᵀA, then the serial default; the seventh (the
# rule's plan under minimum degree on Aᵀ+A) when the serial default
# became Aᵀ+A
STRUCTURE_DIGESTS = {
    "cfd01": ("4b0b323ede4e1b9e", "0b7dd806812eb334", "743b7880f92ee21c",
              "23c12e349e119907", "53e6f67d5ac7e102", "2a06e25ce68ce0cb",
              "7bf05f8a3343f5f0"),
    "cfd02": ("1e56b989504ab1e5", "f3b0e385908f1309", "f5a3c4faf3f972c3",
              "512581e9b0a38a14", "a9b33327421388cc", "3e15f04e5de7c7a5",
              "79eacbab007d98d0"),
    "cfd03": ("28fc66a4c0fef163", "616ec28c1a103697", "2a0c44b2b218e529",
              "020ffc2daa09ae49", "e98310c3b768a3a5", "7eefe598224b3cc7",
              "431386d356d0a18a"),
    "cfd04": ("7a3b57f931ab5e31", "ac07ad4ff39539f2", "bd224afc74389db9",
              "0d54c207cb05f8bf", "4cfc6cb47695eb85", "470d1a8635cc9cf8",
              "e842b2418ef5c239"),
    "cfd05": ("be650ec6e7fb32b8", "8e56257fbb2cbc4d", "111375ff8437063d",
              "b995953105ed9463", "c526ea18e3bd958a", "53eb5591d9e09280",
              "a71c5be4c0d29205"),
    "cfd06": ("050d7307a77972f2", "05b3d326e053f00a", "a0e9920eb4b7a811",
              "6042e903d723992f", "3cd7a7347b54c626", "dcc87f89fbc7f227",
              "4604f3604315511a"),
    "cfd07": ("28fc66a4c0fef163", "616ec28c1a103697", "2a0c44b2b218e529",
              "020ffc2daa09ae49", "e98310c3b768a3a5", "7eefe598224b3cc7",
              "431386d356d0a18a"),
    "cfd08": ("154ac6f477f8479e", "64828788306ce82d", "4923b7784a09d136",
              "ba60cac232880f6c", "17be5d92d45f936e", "2d72aade273bb1e9",
              "8ee587e746250139"),
    "device01": ("4b0b323ede4e1b9e", "0b7dd806812eb334", "743b7880f92ee21c",
                 "23c12e349e119907", "53e6f67d5ac7e102", "2a06e25ce68ce0cb",
                 "7bf05f8a3343f5f0"),
    "device02": ("1e56b989504ab1e5", "f3b0e385908f1309", "f5a3c4faf3f972c3",
                 "512581e9b0a38a14", "a9b33327421388cc", "3e15f04e5de7c7a5",
                 "79eacbab007d98d0"),
    "device03": ("28fc66a4c0fef163", "616ec28c1a103697", "2a0c44b2b218e529",
                 "020ffc2daa09ae49", "e98310c3b768a3a5", "7eefe598224b3cc7",
                 "431386d356d0a18a"),
    "device04": ("7a3b57f931ab5e31", "ac07ad4ff39539f2", "bd224afc74389db9",
                 "0d54c207cb05f8bf", "4cfc6cb47695eb85", "470d1a8635cc9cf8",
                 "e842b2418ef5c239"),
    "device05": ("be650ec6e7fb32b8", "8e56257fbb2cbc4d", "111375ff8437063d",
                 "b995953105ed9463", "c526ea18e3bd958a", "53eb5591d9e09280",
                 "a71c5be4c0d29205"),
    "circuit01": ("640fbb6d28a9d844", "b2cb8592b2cf51df", "da1c612f33bafaa9",
                  "71e86f57e2701a31", "40d4b5d9ed1a4d92", "fd080ce085f6d211",
                  "5e41842f8a8f1d42"),
    "circuit02": ("ae0abe1aa11677e2", "861921573fbd71c0", "df9ff35bcd052d23",
                  "aa78dd72f426c69a", "431778e092b104e2", "fc20f80190395523",
                  "104b781d955755ed"),
    "circuit03": ("23f42d60a4281915", "8510330aa6674427", "449802fa589badf4",
                  "f660e9fe79816783", "6976d149e5ad95d1", "f65db65246323f7b",
                  "bcafbd87b04e620d"),
    "circuit04": ("bef873e4629605f2", "4d294c79f077baca", "3cc41045dd6b6768",
                  "538ea05bf08ba341", "d5322185588d135e", "2f88a8fa9bc9fcea",
                  "e3af4823f3bb1a12"),
    "circuit05": ("d4b692c2779cc2b9", "e9f4722e94c47f57", "a031ec9c8cbecc97",
                  "1ffc00e286cca38e", "6671a63684475044", "e94d44ba681d7924",
                  "b18e5a3878d1d4c1"),
    "circuit06": ("d0ce294ab2c18d9c", "9bb2ca6086896487", "fb7c9d3e4a53cfff",
                  "64237de984ff7637", "b646c61a6afd4e7c", "651b2249df66a7f8",
                  "3bf57a79983bf7f5"),
    "hb01": ("eb3fbab742fbe48b", "06480f21da0b8df6", "2856c2f937bb0074",
             "75a0bec8aca0ad79", "2d351eb9a2dfedd4", "a79624a5cc5cd3ba",
             "8db6092488721c77"),
    "hb02": ("0748304062da0b5e", "2d11774e42de181c", "80e98258ce09c2fe",
             "7cfd3ba11da4beb8", "2d22c27891ea1f84", "4386ebfe65f8f63a",
             "5b1e8aa76295ca04"),
    "fem01": ("57d630eb6d5f121d", "a485a693118a2867", "395546c179a2143c",
              "34b7cafad92567ba", "7d7e901db3b3391b", "12cf2ced5ee461c0",
              "afe49da9cccf4e55"),
    "fem02": ("35e09215a8a59eee", "697aac096292dcd5", "e36da4c9d5f52c44",
              "e79de0b10ec9326f", "9c644c3583147c71", "63126124a13096aa",
              "ecf862ab15613031"),
    "fem03": ("ebc1634ef968cf63", "3c0432a2d4a5160b", "295c9fdf9a99ddf9",
              "4ab3fe7fe86cd988", "93a46c1240425bbf", "d0d280f7d48c6864",
              "c2cf5db277f3c6fc"),
    "fem04": ("9b843a839445d871", "0f77d4c0ed01fabc", "9c8a2d3f0d554e28",
              "302af92e88a72aa5", "b171646d849a1064", "7ee6cfcc44efd8d2",
              "1b48a75455292deb"),
    "fem05": ("c7ed7a5f71a1e06b", "771180a33623d136", "561cc41b68333310",
              "a5e7485429386206", "0c14131c1168d2b0", "e21f6842f9511280",
              "62c79f03645d7e48"),
    "fem06": ("b4b3742afd9a196a", "0a42e6524b036a98", "fc71338899c32654",
              "ad70e1432a974854", "a87c0b068c79a184", "890796f683aa6cbb",
              "a4930079ddf47c63"),
    "chem01": ("f7c589c6798e4ab9", "78fedf88db1bca6b", "3078c09531ec612d",
               "5b00b0e25df63945", "00abc055aca05293", "5b1ed0f342232ffb",
               "e7f11d873fbee506"),
    "chem02": ("efe27a0fbd18c202", "454cdeb31d478fac", "4581667fab398c8c",
               "c47cca158a533622", "dbeb2d4e7afae3d9", "64ae0752113cf11f",
               "da5ef1e3f1825afb"),
    "chem03": ("58f139b603212ae7", "1e74b952fb66f8ad", "293ffed3e68ed1ec",
               "28ac5841c3f8b78b", "395fec76548826bc", "81c474310db5ee91",
               "4f6b5f7ff368f7f6"),
    "chem04": ("d4c41e4a5ac8fcc2", "476ceb05fe1b464c", "363317fd2b354729",
               "2fbfee7353877af9", "967d18652c438957", "02b34b8b1d338b8f",
               "b8c62e51940735f2"),
    "chem05": ("e135e6ab69fb2380", "4e2a96c1700eb1e7", "e9e696a78d096e52",
               "cc52946842098d0c", "2c9e94ac1f4a3067", "4eb0fed362724cdd",
               "209cb5676627862e"),
    "chem06": ("5c3bed15d54ac4ac", "3d7335303e6fefcf", "7978110e70b7d305",
               "1bcea87e718426c7", "f4dc48dbcfddcc63", "df6d260466ac0e84",
               "12bf0e566830d940"),
    "resv01": ("3c57d60c75ad856b", "8caf2ed6ee19fcb8", "ed6baf93d45174b0",
               "b21ff1ad418eac70", "292a72a19b001503", "b3cc80c38041d3c5",
               "38372031adb27d69"),
    "resv02": ("2c71589acc18fd68", "fc3097d0e82d9424", "318eb26c9a02e1a3",
               "3b40a87e66c304fd", "7883d31c555629ef", "e57c7c4f1d34a8b8",
               "60d462e0bf063084"),
    "resv03": ("83e15e41277463d1", "3044c5681363d42a", "0ce66dd0b96c3b52",
               "8828f15a946c0839", "cd0887439d8b5b9f", "16bc10019b243a07",
               "508f801befae083c"),
    "resv04": ("39a33ab67f462df4", "db29d6896bed7ddc", "257c2cdad8e28f43",
               "7646b4bf05d87278", "20bf669020442d46", "cf2e19eeafe6d3b0",
               "0f0cf48b327174e6"),
    "kkt01": ("ed766e63154a5b0d", "87f39d460c387d9c", "867e61874b9a8a1f",
              "568ca6467672c943", "2e4c725fadce2180", "952d02593fd9bbc3",
              "0096c45a64c73624"),
    "kkt02": ("d833038598b5bdba", "0faaa43477642302", "1e0230919015fc85",
              "11a4ef65714ebbf7", "6bab08cc645907d9", "128fa7cec2a0f94c",
              "8e4aa9a3987df00f"),
    "kkt03": ("0c27febdba9587d2", "604c63b46c261ece", "40c4e51bcc74c00c",
              "9ff58dc1ac879b56", "b2608aeafdd13d2f", "8dd24ba4dfcccb82",
              "11130f6022d0df5f"),
    "kkt04": ("038f947ba9aff66e", "2eb0b7a4372a7de6", "7ffdabbdcca9f57f",
              "0fdbcecc5832c0fe", "7e9d0f24e1ff7e86", "4d4be18612a08863",
              "aadc9a4c972d6d65"),
    "aniso01": ("2865760234e8e596", "0198156317517675", "4222a55e48d27eae",
                "148edd2155580a22", "1d5c2e818c42d70c", "018d2ce943cf2f78",
                "26a6f37890a8eab0"),
    "aniso02": ("2865760234e8e596", "0198156317517675", "4222a55e48d27eae",
                "148edd2155580a22", "1d5c2e818c42d70c", "018d2ce943cf2f78",
                "26a6f37890a8eab0"),
    "aniso03": ("2865760234e8e596", "0198156317517675", "4222a55e48d27eae",
                "148edd2155580a22", "1d5c2e818c42d70c", "018d2ce943cf2f78",
                "26a6f37890a8eab0"),
    "gen01": ("ce3508f31e7b707c", "4b5c214090f3a51a", "39e8fdae7b78a41b",
              "84b7e13b28b20814", "98c637ab78e0c3ac", "16f0c604a9caaa12",
              "6dc4ba5cda09ec07"),
    "gen02": ("4b8315a575e14083", "4baee73ebf591f77", "7ea7ca908ef3e974",
              "fd68d596c6399031", "87c13987f6e578af", "5d7ae1eebd59bb10",
              "b6f44bbe48c207c4"),
    "gen03": ("e7bb927f6be3a0b4", "be420e62ac070946", "92747a0f13cae88b",
              "d024a07b35e1b299", "6f4f693ebb749aa9", "578131ee3590b133",
              "070b70465127ae39"),
    "gen04": ("cca366c0bd849add", "2bcb030fc8836c32", "77e61e548fd1c3de",
              "dd41d12331edd5eb", "83efc21f381eab87", "db0cc54834c3897e",
              "9cabafc66798cd76"),
    "gen05": ("2d80903f5e6db490", "932689fede4b53f2", "a05d307fb3a810f6",
              "98638416cde5102a", "449807d7b220e54a", "d4f7b70b87634a58",
              "eb7c6bdd5b76fbbf"),
    "gen06": ("cf844b35f0243f99", "f94c9d160a1fe54c", "97290dd99fc750c9",
              "e5909c38169ede53", "62357787956151b9", "0ac4f72ddb98958d",
              "e08ee27e0fe744e7"),
    "gen07": ("d808fabd8144e18b", "a161698e4f519d85", "8b2949c8d03b7cc2",
              "b4432f61efb2709b", "1e0a6610146f2108", "4a2616b857e344e1",
              "fb8c9e4555e914e3"),
    "gen08": ("7cd8a4a03e2bbc0e", "b2d9082d55821045", "0eef77bcfaf2c4ee",
              "d0679a8b276ad99c", "aa6231a41e149913", "2f728afe349fb849",
              "0a7ad48b2f722657"),
    "gen09": ("975f8158b6dbc2ae", "20a65da25d734f11", "06dfc497d99a6ff6",
              "bf23e53cd8e8416b", "bc40b8fed84aa724", "ab5d107c6a85a3b0",
              "717c5f27e94ddba0"),
    "AF23560a": ("3c68d95ff8208cd2", "28542631e4f53336", "74f67c8465c4fdff",
                 "880c503e020e1565", "052251e6435297f8", "9b34b4ecc2975c40",
                 "3ab0505a422f4f72"),
    "BBMATa": ("dccc565370439532", "d6cf54b348ee0e68", "e18430c73fc9e85d",
               "10623cd9c16bc9a3", "3e0043a8e7f68af5", "ca1a48e9a661ccac",
               "a79d20d12821cab4"),
    "ECL32a": ("93817a7504802a8c", "151708d91549b2c5", "88c788f2c0ca2264",
               "94a10d0856069639", "d647226314708525", "26a487cf113be199",
               "de691f4557264c7e"),
    "EX11a": ("2c12bb46c548fbc3", "cd63f977505668c6", "b6c607730cd24ec9",
              "b4ec989dcc766890", "eb094fa14d96ddc6", "d69581f40c615db4",
              "d4a30b467c424243"),
    "FIDAPM11a": ("707022a172010e2c", "9ec7cf1b6c9208dd", "dfd2dff3d78575c0",
                  "e1fe3b3cd086be64", "c3d12ca3846f4645", "766750a5f859b25a",
                  "e3fcccb6ee6f0691"),
    "RDIST1a": ("1f36f0bbdcbeb6bc", "c74cdeccb23e6293", "22f8da0729066b1f",
                "7cfe7d1760e65bc9", "5f5b4fd23a5c8e62", "a0724c9f4eda6b09",
                "1482643f4fec555d"),
    "TWOTONEa": ("a8dedca59e5b1fa7", "42ede169ae394d0e", "f295c3a6741b88f9",
                 "6be7d469aeb49395", "9795317aa66eb5dc", "af07e2788c5fad6f",
                 "f55ea4e222a844b8"),
    "WANG4a": ("e10e16736109cccc", "ef426daf4f19b630", "4863e9722226fe52",
               "fe51f96867db15bc", "58d0caab8c1c50af", "c560647144d94846",
               "dd2a6db17011a841"),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_DIGESTS))
def test_static_structures_are_the_recorded_ones(name):
    assert _structures(name) == STRUCTURE_DIGESTS[name]


# --------------------------------------------------------------------- #
# the loops, frozen — copied verbatim from the historical builders.  DO
# NOT "fix" or modernise them: they are the reference
# --------------------------------------------------------------------- #

def golden_etree_symmetric(a):
    n = a.ncols
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    for k in range(n):
        lo, hi = a.colptr[k], a.colptr[k + 1]
        for i in a.rowind[lo:hi]:
            # walk from i up to the current root, compressing the path
            while i != -1 and i < k:
                inext = ancestor[i]
                ancestor[i] = k
                if inext == -1:
                    parent[i] = k
                i = inext
    return parent


def golden_column_etree(a):
    n = a.ncols
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    # prev_col[i]: the previous column seen with a nonzero in row i
    prev_col = np.full(a.nrows, -1, dtype=np.int64)
    for k in range(n):
        lo, hi = a.colptr[k], a.colptr[k + 1]
        for i in a.rowind[lo:hi]:
            # the clique edge is (prev_col[i], k)
            r = prev_col[i]
            prev_col[i] = k
            while r != -1 and r < k:
                rnext = ancestor[r]
                ancestor[r] = k
                if rnext == -1:
                    parent[r] = k
                r = rnext
    return parent


def golden_postorder(parent):
    parent = np.asarray(parent, dtype=np.int64)
    n = parent.size
    first_child = np.full(n, -1, dtype=np.int64)
    next_sibling = np.full(n, -1, dtype=np.int64)
    for v in range(n - 1, -1, -1):
        p = parent[v]
        if p >= 0:
            next_sibling[v] = first_child[p]
            first_child[p] = v
    post = np.empty(n, dtype=np.int64)
    count = 0
    for root in range(n):
        if parent[root] >= 0:
            continue
        stack = [root]
        while stack:
            v = stack[-1]
            c = first_child[v]
            if c >= 0:
                first_child[v] = -1  # mark children as queued
                while c >= 0:
                    stack.append(c)
                    c = next_sibling[c]
            else:
                stack.pop()
                post[v] = count
                count += 1
    if count != n:
        raise ValueError("parent array does not describe a forest")
    return post


def golden_symmetrized_fill(a):
    """``(l_colptr, l_rowind, etree)`` of the symmetrized analysis."""
    n = a.ncols
    sym = pattern_union_transpose(a)
    parent = golden_etree_symmetric(sym)
    children = [[] for _ in range(n)]
    for v in range(n):
        if parent[v] >= 0:
            children[parent[v]].append(v)

    col_pat = [None] * n  # sorted arrays of rows >= k
    for k in range(n):
        lo, hi = sym.colptr[k], sym.colptr[k + 1]
        rk = sym.rowind[lo:hi]
        base = rk[rk >= k]
        if base.size == 0 or base[0] != k:
            base = np.concatenate([[k], base]).astype(np.int64)
        pats = [base]
        for c in children[k]:
            pc = col_pat[c]
            pats.append(pc[pc >= k])  # drop rows < k (only c itself qualifies)
        if len(pats) > 1:
            merged = pats[0]
            for p in pats[1:]:
                merged = np.union1d(merged, p)
            col_pat[k] = merged.astype(np.int64)
        else:
            col_pat[k] = base.astype(np.int64)

    l_colptr = np.zeros(n + 1, dtype=np.int64)
    for k in range(n):
        l_colptr[k + 1] = l_colptr[k] + col_pat[k].size
    l_rowind = np.concatenate(col_pat) if n else np.empty(0, np.int64)
    return l_colptr, l_rowind, parent


def golden_unsymmetric_fill(a):
    """``(l_colptr, l_rowind, u_rowptr, u_colind)`` of the exact analysis."""
    n = a.ncols
    at = a.transpose()
    rows = []
    for i in range(n):
        lo, hi = at.colptr[i], at.colptr[i + 1]
        r = at.rowind[lo:hi]
        if not np.any(r == i):
            r = np.sort(np.append(r, i))
        rows.append(r.astype(np.int64))
    l_cols = [[] for _ in range(n)]
    col_members = [[] for _ in range(n)]
    for i in range(n):
        for k in rows[i]:
            if k < i:
                col_members[k].append(i)
    for k in range(n):
        rk = rows[k]
        tail = rk[np.searchsorted(rk, k + 1):]
        if tail.size:
            for i in col_members[k]:
                ri = rows[i]
                merged = np.union1d(ri, tail)
                if merged.size != ri.size:
                    new = np.setdiff1d(merged, ri, assume_unique=True)
                    for c in new:
                        if c < i:
                            col_members[c].append(i)
                    rows[i] = merged
        l_cols[k] = col_members[k]
    l_colptr = np.zeros(n + 1, dtype=np.int64)
    u_rowptr = np.zeros(n + 1, dtype=np.int64)
    l_rowind_parts = []
    u_colind_parts = []
    for k in range(n):
        below = np.array(sorted(set(l_cols[k])), dtype=np.int64)
        l_rowind_parts.append(np.concatenate([[k], below]))
        l_colptr[k + 1] = l_colptr[k] + below.size + 1
    for i in range(n):
        ri = rows[i]
        tail = ri[np.searchsorted(ri, i):]
        if tail.size == 0 or tail[0] != i:
            tail = np.concatenate([[i], tail])
        u_colind_parts.append(tail)
        u_rowptr[i + 1] = u_rowptr[i] + tail.size
    return (l_colptr,
            np.concatenate(l_rowind_parts) if n else np.empty(0, np.int64),
            u_rowptr,
            np.concatenate(u_colind_parts) if n else np.empty(0, np.int64))


def golden_find_supernodes(sym):
    n = sym.n
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    counts = np.diff(sym.l_colptr)
    parent = sym.etree
    starts = [0]
    for j in range(1, n):
        same = parent[j - 1] == j and counts[j] == counts[j - 1] - 1
        if not same:
            starts.append(j)
    return np.array(starts + [n], dtype=np.int64)


def golden_relax_supernodes(sym, xsup, relax_size):
    parent = sym.etree
    nsuper = xsup.size - 1
    merged = [int(xsup[0])]
    s = 0
    while s < nsuper:
        lo = xsup[s]
        hi = xsup[s + 1]
        t = s
        while (t + 1 < nsuper
               and parent[xsup[t + 1] - 1] == xsup[t + 1]
               and xsup[t + 2] - lo <= relax_size):
            t += 1
            hi = xsup[t + 1]
        merged.append(int(hi))
        s = t + 1
    return np.array(merged, dtype=np.int64)


def golden_split_supernodes(xsup, max_size):
    pieces = [0]
    for s in range(xsup.size - 1):
        lo, hi = int(xsup[s]), int(xsup[s + 1])
        width = hi - lo
        if width <= max_size:
            pieces.append(hi)
            continue
        nchunk = -(-width // max_size)  # ceil
        base = width // nchunk
        extra = width % nchunk
        pos = lo
        for c in range(nchunk):
            pos += base + (1 if c < extra else 0)
            pieces.append(pos)
    return np.array(pieces, dtype=np.int64)


def golden_targets(part, s_rows):
    """``(targets, selection)``: the per-supernode position loop."""
    n, ns, xsup = part.n, part.nsuper, part.xsup
    supno = part.supno()
    cols = np.arange(n, dtype=np.int64)
    w = np.diff(xsup)
    m = np.array([s.size for s in s_rows], dtype=np.int64)
    sptr = np.concatenate(([0], np.cumsum(m)))
    ks, s_all = np.repeat(cols[:ns], m), np.concatenate([*s_rows, cols[:0]])
    keys = np.concatenate((ks * n + s_all, [ns * n]))
    bounds = np.concatenate(
        ([0], np.cumsum(np.column_stack((w * w, m * w, w * m)).ravel())))
    index = np.int32 if bounds[-1] < 2 ** 31 else np.int64
    d_base = bounds[0:-1:3] - xsup[:-1] * w - xsup[:-1]
    b_base = bounds[1::3] - sptr[:-1] * w - xsup[:-1]
    r_base = bounds[2::3] - sptr[:-1] - xsup[:-1] * m

    def position(i, j):
        ki, kj = supno[i], supno[j]
        lower, upper = ki > kj, ki < kj
        key = np.where(lower, kj * n + i, ki * n + j)
        q = np.searchsorted(keys, key)
        pos = np.where(lower, (b_base[kj] + j) + q * w[kj],
                       np.where(upper, (r_base[ki] + i * m[ki]) + q,
                                (d_base[ki] + i * w[ki]) + j))
        return pos.astype(index), ~(lower | upper) | (keys[q] == key)

    targets, selection = [], []
    for s in s_rows:
        pos, stored = position(s[:, None], s[None, :])
        keep = None if stored.all() else np.flatnonzero(stored).astype(index)
        selection.append(keep)
        targets.append(pos.ravel() if keep is None else pos.ravel()[keep])
    return targets, selection


# --------------------------------------------------------------------- #
# the array passes against the loops
# --------------------------------------------------------------------- #

def _same(x, y):
    return (x.dtype == y.dtype and x.shape == y.shape
            and np.array_equal(x, y))


def _assert_targets_match(plan):
    targets, selection = golden_targets(plan.part, plan.s_rows)
    assert len(plan.targets) == len(targets) == plan.part.nsuper
    for got, want in zip(plan.targets, targets):
        assert _same(got, want)
    for got, want in zip(plan.selection, selection):
        assert (got is None) == (want is None)
        assert got is None or _same(got, want)


def _superset(part, s_rows, rng):
    """Each row set with up to two random rows below its supernode added."""
    n, out = part.n, []
    for k, s in enumerate(s_rows):
        below = np.arange(part.xsup[k + 1], n)
        extra = rng.choice(below, size=min(2, below.size), replace=False)
        out.append(np.union1d(s, extra).astype(np.int64))
    return out


@given(n=st.integers(1, 30), density=st.floats(0.03, 0.5),
       hole=st.sampled_from([None, "zero", "absent"]),
       max_block=st.integers(1, 8), relax=st.integers(0, 8),
       tail=st.sampled_from([None, 0.2, 0.6]), seed=st.integers(0, 2 ** 16))
@settings(max_examples=80, deadline=None)
def test_array_passes_match_the_frozen_loops_property(
        n, density, hole, max_block, relax, tail, seed):
    a, _ = _random_system(n, density, hole, seed)
    rng = np.random.default_rng(seed)
    # fill, trees
    sym = symbolic_lu_symmetrized(a)
    l_colptr, l_rowind, parent = golden_symmetrized_fill(a)
    for got, want in ((sym.l_colptr, l_colptr), (sym.l_rowind, l_rowind),
                      (sym.etree, parent), (sym.u_rowptr, l_colptr),
                      (sym.u_colind, l_rowind)):
        assert _same(got, want)
    s = pattern_union_transpose(a)
    assert _same(etree_symmetric(s), golden_etree_symmetric(s))
    assert _same(column_etree(a), golden_column_etree(a))
    assert _same(postorder(sym.etree), golden_postorder(sym.etree))
    exact = symbolic_lu_unsymmetric(a)
    for got, want in zip((exact.l_colptr, exact.l_rowind, exact.u_rowptr,
                          exact.u_colind), golden_unsymmetric_fill(a)):
        assert _same(got, want)
    # partitions
    fundamental = find_supernodes(sym)
    assert _same(fundamental.xsup, golden_find_supernodes(sym))
    relaxed = relax_supernodes(sym, fundamental, relax_size=relax)
    assert _same(relaxed.xsup,
                 golden_relax_supernodes(sym, fundamental.xsup, relax))
    part = split = split_supernodes(relaxed, max_size=max_block)
    assert _same(part.xsup, golden_split_supernodes(relaxed.xsup, max_block))
    if tail is not None:
        part = split_supernodes(merge_dense_tail(sym, fundamental, tail),
                                max_size=max_block)
    # plans: the partition's own row sets, a random superset of them ...
    _assert_targets_match(build_block_plan(a, sym, part))
    superset = _superset(part, supernode_row_sets(sym, part), rng)
    _assert_targets_match(build_block_plan(a, sym, part, s_rows=superset))
    # ... and block pivoting's block-closed row sets
    plans = []

    def spy(*args, **kwargs):
        plans.append(build_block_plan(*args, **kwargs))
        return plans[-1]

    with mock.patch.object(blockpivot, "build_block_plan", spy):
        blockpivot.supernodal_factor_block_pivoting(a, sym=sym, part=split)
    _assert_targets_match(plans[0])


def test_partial_update_grids_match_the_frozen_loop():
    """The property's partial grids exist: a dense tail merged across
    etree branches (fem04 as the distributed driver partitions it) and
    row-set supersets leave update entries with no home, and the kept
    ones match the loop's."""
    engine = DistributedGESPSolver
    a = preprocess(matrix_by_name("fem04").build(), GESPOptions(),
                   col_perm=engine._COL_PERM,
                   etree_postorder=engine._ETREE_POSTORDER)[0]
    sym = symbolic_lu_symmetrized(a)
    part = block_partition(sym, dense_tail_threshold=0.2)
    superset = _superset(part, supernode_row_sets(sym, part),
                         np.random.default_rng(0))
    for plan in (build_block_plan(a, sym, part),
                 build_block_plan(a, sym, part, s_rows=superset)):
        assert any(keep is not None for keep in plan.selection)
        _assert_targets_match(plan)
