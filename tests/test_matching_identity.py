"""MC64's matchings run on Python lists and array passes, bit for bit the
per-column numpy loops they replaced.

Covered: :func:`~repro.scaling.matching.max_transversal` (MC21),
:func:`~repro.scaling.matching.sparse_assignment` (the job-5 engine) and
:func:`~repro.scaling.mc64.mc64`'s column maxima, matched-edge lookup and
permutation.  Identity is pinned two ways:

1. digests of ``(perm_r, rowof, dr, dc, objective)`` through ``mc64()``
   at the three jobs (and job 5 unscaled) plus MC21's ``rowof`` on the 53
   testbed matrices and the 8 large analogs — recorded from the loops;
2. frozen copies of those loops, compared byte for byte on a hypothesis
   sweep with repeated costs (heap ties), zero and negative costs, tight
   edges at the cheap assignment's 1e-15 threshold, n = 0 and n = 1, and
   structurally singular patterns (same exception type and message).
"""

import heapq
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scaling.matching as matching
from repro.matrices import matrix_by_name
from repro.scaling import (
    StructurallySingularError,
    max_transversal,
    mc64,
    sparse_assignment,
)
from repro.scaling.mc64 import MC64Result
from repro.sparse import CSCMatrix

from test_static_structures import _digest


def _mc64_digests(name):
    """mc64 at cardinality / bottleneck / product / unscaled product, and
    MC21's rowof, as digests."""
    a = matrix_by_name(name).build()
    runs = [mc64(a, job=job) for job in ("cardinality", "bottleneck",
                                           "product")]
    runs.append(mc64(a, job="product", scale=False))
    return tuple([_digest(r.perm_r, r.rowof, r.dr, r.dc, r.objective)
                  for r in runs] + [_digest(max_transversal(a))])


# recorded from the per-column loops (the frozen copies below)
MC64_DIGESTS = {
    "AF23560a": ("a0d873131fc4a05c", "0496d28d4a52dd6d", "b41001588d4ade54",
                 "246a2014dc601583", "eff4e83051b5cd94"),
    "BBMATa": ("c76a06ce05063b7c", "f35ad9c78b726c6c", "45c5b4e61b11f5ee",
               "9a54717e7d743c97", "453762b6961bc103"),
    "ECL32a": ("3a27ccfc8c4bad0c", "dfffcf211a697ab0", "74ba609c7c2c54a1",
               "de33a1391c6b6c7b", "6f06f92b9fb2addb"),
    "EX11a": ("c1a8c3adf4468368", "45d8e0a92ea3af87", "c1d74a9a99749206",
              "5455086b5255ee71", "3a43abc06fc51da7"),
    "FIDAPM11a": ("39796b8a1678c8a8", "502e12c48bcee5d0", "64ef8025ba8bf264",
                  "fb47abe343dee313", "be5952e43ca1e9a4"),
    "RDIST1a": ("2aacfc1f8551e132", "19229e6e6eefeed1", "46fdab1b3997dd54",
                "febf19e350cc2a8e", "9d0b1d145052e73b"),
    "TWOTONEa": ("10017f189cc55920", "19edadf04677c112", "42c87fb036cf643a",
                 "cc689aa9af9c361a", "1ca3f88110ab9ca3"),
    "WANG4a": ("9180b7b1b7251ee8", "00386570c599b87d", "6aa1ca727322ccc1",
               "7f126cdb107dcfd1", "38905c76177b7d8a"),
    "aniso01": ("0d1ade74bcc57025", "bdb628f4b66f54e1", "72d3743686b58595",
                "77aafe8e8bbab8db", "34539540d928a39e"),
    "aniso02": ("0d1ade74bcc57025", "b537275d934aae9f", "f134c15e4ad71e47",
                "aa41b87d0f4e0aef", "34539540d928a39e"),
    "aniso03": ("0d1ade74bcc57025", "5266e2ebd683abe5", "373c1506b962e7d2",
                "645e825c87c538f6", "34539540d928a39e"),
    "cfd01": ("db0bf93239d54f37", "e6ba4a52c7b8088e", "89b24afcb612f757",
              "3c303df757914e9f", "b0deab377893ec65"),
    "cfd02": ("6bc01f436417f671", "6d03b7d06b6fa72c", "fda37266384069e9",
              "f7f493aa92c05afb", "1d5e94c3b2f02531"),
    "cfd03": ("313e45ad5bbf520e", "0aa80359d6a74d20", "bc3b9453096cac42",
              "fa8936d3ab062822", "459f80ded1c5fca1"),
    "cfd04": ("e67bbebf0e3a6bf5", "e612e76a26c4685d", "28c557249127626e",
              "11589fe44dbe07f4", "b76e53037ea6f3e5"),
    "cfd05": ("e927e2e8d15af87d", "686f7559c1bd852b", "9bf7af26805758a5",
              "5d2eee2e961798af", "e48146dc8dcb30a9"),
    "cfd06": ("b2bb0b46d1b820e7", "6733fa713cef7878", "0e40093d6eecd748",
              "f6d565d6dc05303c", "0bbc657f9a129f0f"),
    "cfd07": ("313e45ad5bbf520e", "81f9764af47e8347", "443f840a51ef968e",
              "07479952339a68b1", "459f80ded1c5fca1"),
    "cfd08": ("fe98e8bc003dbfd8", "f278ed8da45e3be3", "2b5a5ca231998d30",
              "593fe9893d4e3d0e", "ac90b77847c824a2"),
    "chem01": ("a28a1983cc58b623", "f1b806c08237b326", "cdba894303488989",
               "ae82ba7625dc6e3b", "3e137077a868a247"),
    "chem02": ("162900f9a3dc27f3", "389cb848390f2a63", "2b7bdab05c76e873",
               "8b9cb56f218f0ebd", "e0ea5e5350c2ac7c"),
    "chem03": ("2489827a7009b886", "c20eae8cce3ee44a", "f1f37d4bd818b98c",
               "f01d6509961c164a", "3ae1b08655dfa7eb"),
    "chem04": ("b0efc7b87341d599", "e5e27ab90525210d", "c96d274adf64faa0",
               "626a843f448e79d0", "f12d0e3920dd084b"),
    "chem05": ("45319c9c9fb6ec00", "22e73dfc53dc9f37", "3f0ad8de88610879",
               "104befdc27838247", "02dffc0c6f6409e8"),
    "chem06": ("cd3c851ab611e3c0", "f16e1ae1f3d17aca", "dc0f675ca82257dd",
               "072028e0f6a7de5c", "70cfe188d2b6edae"),
    "circuit01": ("d26845f0b8200f03", "411b8f3e4f152cb6", "baf44b68f9b085c0",
                  "82aee6fe062e8eec", "da526d7731323410"),
    "circuit02": ("536f0bed3b111926", "b57eef7008159375", "71880ec5b23d512b",
                  "ead57131c8a11867", "ac3a0ae892e7ef58"),
    "circuit03": ("fa0c2f1201c9bed3", "c7d33bb5c070447d", "dfc80e9a2ad5333a",
                  "25f574a1e7e4a0e8", "4274e19c6d8bf13a"),
    "circuit04": ("5aa2681f2b19405c", "d3d61e450b500eab", "2742d27265397ab5",
                  "df30569e2fb97f54", "d83aa21ecd2d8633"),
    "circuit05": ("e2afa3e9a04befa5", "68bf679f6f08bd90", "243bed148ed75bd7",
                  "fd8882c0467f9556", "46d5f303476644c5"),
    "circuit06": ("eecceb948f6092a1", "2e7115da7e44fd75", "f0d075594091b2e4",
                  "51bf5d97b16a560b", "174d1685fec84ae3"),
    "device01": ("db0bf93239d54f37", "8f289006308b394f", "2de98751c3802d5a",
                 "3c303df757914e9f", "b0deab377893ec65"),
    "device02": ("6bc01f436417f671", "59a1271771032a62", "ec7c0e6c81957e3e",
                 "f7f493aa92c05afb", "1d5e94c3b2f02531"),
    "device03": ("313e45ad5bbf520e", "55bb2af12a2aa28c", "7213d516c6ad912f",
                 "fa8936d3ab062822", "459f80ded1c5fca1"),
    "device04": ("e67bbebf0e3a6bf5", "c7e9cc90819bafd0", "0e3efc536cb30229",
                 "11589fe44dbe07f4", "b76e53037ea6f3e5"),
    "device05": ("e927e2e8d15af87d", "96985a27f943e451", "61fb6687f59cbc2b",
                 "5d2eee2e961798af", "e48146dc8dcb30a9"),
    "fem01": ("2545fe316b25b21b", "34cc63b37df6e9a8", "201e3679f29f364d",
              "18b209f76ba99bcd", "8ac12626103a94e5"),
    "fem02": ("33c1ed8c86270203", "545e7ff008638df3", "7005109eb0d38545",
              "f0f09f3d9f992604", "aec97b1e4233a42d"),
    "fem03": ("f41963051c18ca4a", "02c43d36c5f89026", "991acfd89007151d",
              "8d5b5e6958498dc8", "cf705c3395c6fcb3"),
    "fem04": ("70c7fe8a09033c74", "8026ad4c437b6112", "9c47d98758b94f2d",
              "c50d4bffb589a685", "7e1e02074606a4b1"),
    "fem05": ("b98453e0de00446a", "c44a569821965aa7", "c0bd257abb77bd2f",
              "6353abe267485c86", "50666c8f15015d72"),
    "fem06": ("51d342cfbac0e25d", "624e20524f9c2fe2", "343b64874945cefe",
              "77871f4d0594c07a", "d3c37e89e4866332"),
    "gen01": ("32677363cfb63d8f", "24a96afe98f27983", "b3d0684438883c78",
              "40e72806b01c1dc4", "ea97d85e8c6a848d"),
    "gen02": ("4bf00baddb5be54a", "c738671abfabc14d", "80d94bccf9e2e506",
              "efffe4ee278297ef", "60225a3a32105486"),
    "gen03": ("b87235daf3c2eb1c", "0b60fa17c9c83ac8", "9f5efa9c8dd32ea5",
              "ec930d68f201c84d", "df3306e5ca35c755"),
    "gen04": ("0edbe9fd5fa45cfb", "31dece124f35b83c", "45f6c19665dfc716",
              "69fac51b1b413221", "6888993db3f9660b"),
    "gen05": ("ec365e7442776932", "272fa8851efd04e6", "6152299439b67a90",
              "649425ee5a5ee0ed", "aebc7fe9e25eb4b1"),
    "gen06": ("c51c96f1be4fd07b", "a7842e0d58a45a34", "d9f01858c26ca12d",
              "ff154f59b27d4bd5", "c94e2f925ed31998"),
    "gen07": ("db0df5d4cd000be6", "5f708e1d1f5d21ed", "1233c14160c71870",
              "77093572193308a7", "1a2d46fe9651411b"),
    "gen08": ("73f0bf1b8f6e7a2a", "a27911f522102adf", "dbbdb246805f3827",
              "657f75cbccf7a4b2", "d07121b3fdfdd8b7"),
    "gen09": ("263a943dce20a810", "d12977851ae294ee", "14aa09040ef5c462",
              "f62ceea721e0561f", "7662e2bcee3e18e6"),
    "hb01": ("3a7e50c7ff713615", "e23a009c4c5d170c", "ca621359382dfbff",
             "789f4ce049e04eb2", "18c34099f21a9794"),
    "hb02": ("f2e176c1bb21c15d", "d97808f854c6a06b", "52e610f34d46b3ff",
             "49886b9769f7ee7f", "492cc8a818cacfe1"),
    "kkt01": ("d236afbf22980d2b", "75f04475b8193ce4", "f60bd83795a048f9",
              "ae608d8ffda43a5d", "9b313bcad03282e2"),
    "kkt02": ("5e9f52afed249f27", "50c8a9e38309010d", "7342ed95653ec3fa",
              "6be1d932dfe08ae5", "eed2c8a4114fb0c6"),
    "kkt03": ("86af42f0405d32b3", "dfce127b4e533a24", "58ccee0c0f4dee9b",
              "618b5731430a3e23", "aec0ac449e70fa8c"),
    "kkt04": ("0339f3c9c1ca1314", "dee5b28f6ceab79a", "0968bb1b4795a5fc",
              "75949b1d0e79fd09", "122deeb4b4a8d3ea"),
    "resv01": ("6bc01f436417f671", "09776769272d7070", "72485b7a9bd436ec",
               "f7f493aa92c05afb", "1d5e94c3b2f02531"),
    "resv02": ("5131be37679dfa8c", "2ae190428eeb9ca1", "2672dbccce2af3f3",
               "9f19e20f12cb2892", "561f34134c39eb71"),
    "resv03": ("9bef9cab323778c8", "0f9b72bc8aedbf04", "a7ecc255da411487",
               "b6b13ff7eb564656", "0afc456d69c30f1c"),
    "resv04": ("5296a76652f0e98d", "63f63d3ad9e3cca8", "34d792fd0d40a6c8",
               "29f7656834fb0b3d", "1b53a9abef456fc9"),
}


@pytest.mark.parametrize("name", sorted(MC64_DIGESTS))
def test_mc64_is_the_recorded_one(name):
    assert _mc64_digests(name) == MC64_DIGESTS[name]


# --------------------------------------------------------------------- #
# the loops, frozen — copied verbatim from the historical matchings.  DO
# NOT "fix" or modernise them: they are the reference
# --------------------------------------------------------------------- #

def golden_max_transversal(a, require_perfect=False):
    if a.nrows != a.ncols:
        raise ValueError("max_transversal requires a square matrix")
    n = a.ncols
    colptr, rowind = a.colptr, a.rowind
    rowof = np.full(n, -1, dtype=np.int64)   # row matched to column j
    colof = np.full(n, -1, dtype=np.int64)   # column matched to row i

    # cheap assignment pass: take any free row in the column
    for j in range(n):
        for k in range(colptr[j], colptr[j + 1]):
            i = rowind[k]
            if colof[i] < 0:
                colof[i] = j
                rowof[j] = i
                break

    # DFS augmentation for each unmatched column (iterative, with a
    # per-column visited stamp to stay O(nnz) per augmentation)
    visited = np.full(n, -1, dtype=np.int64)
    # cursor[j]: next edge of column j to try, so each edge is scanned once
    for j0 in range(n):
        if rowof[j0] >= 0:
            continue
        # iterative DFS over alternating paths
        stack = [j0]
        cursor = {j0: colptr[j0]}
        parent = {j0: -1}
        visited[j0] = j0
        found_row = -1
        while stack:
            j = stack[-1]
            k = cursor[j]
            advanced = False
            while k < colptr[j + 1]:
                i = rowind[k]
                k += 1
                if colof[i] < 0:
                    # free row: augment along the DFS stack
                    found_row = i
                    cursor[j] = k
                    break
                j2 = colof[i]
                if visited[j2] != j0:
                    visited[j2] = j0
                    cursor[j] = k
                    cursor[j2] = colptr[j2]
                    parent[j2] = j
                    # remember which row led to j2 for augmentation
                    parent[("row", j2)] = i
                    stack.append(j2)
                    advanced = True
                    break
            else:
                cursor[j] = k
                stack.pop()
                continue
            if found_row >= 0:
                break
            if advanced:
                continue
        if found_row >= 0:
            # augment: assign found_row to the top column, then flip
            # matched edges upward along parent pointers
            j = stack[-1]
            i = found_row
            while True:
                prev_i = rowof[j]
                rowof[j] = i
                colof[i] = j
                pj = parent[j]
                if pj < 0:
                    break
                i = parent[("row", j)]
                j = pj

    if require_perfect and np.any(rowof < 0):
        raise StructurallySingularError(
            f"pattern has maximum matching of size {int(np.sum(rowof >= 0))} < n={n}")
    return rowof


def golden_sparse_assignment(n, colptr, rowind, cost):
    colptr = np.asarray(colptr, dtype=np.int64)
    rowind = np.asarray(rowind, dtype=np.int64)
    cost = np.asarray(cost, dtype=np.float64)
    if np.any(~np.isfinite(cost)):
        raise ValueError("edge costs must be finite")

    INF = np.inf
    rowof = np.full(n, -1, dtype=np.int64)   # row matched to column j
    colof = np.full(n, -1, dtype=np.int64)   # column matched to row i
    u = np.zeros(n)                           # row duals
    v = np.zeros(n)                           # column duals

    # Column-dual initialization: v[j] = min cost in column j, guaranteeing
    # nonnegative reduced costs before the first augmentation.
    for j in range(n):
        lo, hi = colptr[j], colptr[j + 1]
        if lo == hi:
            raise StructurallySingularError(f"column {j} is empty")
        v[j] = cost[lo:hi].min()
    # Row-dual initialization: u[i] = min over edges (i,j) of cost - v[j].
    u.fill(INF)
    for j in range(n):
        lo, hi = colptr[j], colptr[j + 1]
        np.minimum.at(u, rowind[lo:hi], cost[lo:hi] - v[j])
    u[~np.isfinite(u)] = 0.0  # rows with no edges fail later with a clear error

    # Cheap assignment on tight edges (reduced cost == 0) to seed matching.
    for j in range(n):
        lo, hi = colptr[j], colptr[j + 1]
        red = cost[lo:hi] - u[rowind[lo:hi]] - v[j]
        for k in np.nonzero(red <= 1e-15)[0]:
            i = rowind[lo + k]
            if colof[i] < 0:
                colof[i] = j
                rowof[j] = i
                break

    for j0 in range(n):
        if rowof[j0] >= 0:
            continue
        # Dijkstra from free column j0 over alternating paths.  States are
        # ROWS here (paths alternate col -> row via any edge, row -> col via
        # matched edge); distances are to rows.
        dist = np.full(n, INF)
        final = np.zeros(n, dtype=bool)
        prev_col = np.full(n, -1, dtype=np.int64)  # column preceding row i
        heap = []
        lo, hi = colptr[j0], colptr[j0 + 1]
        for k in range(lo, hi):
            i = rowind[k]
            d = cost[k] - u[i] - v[j0]
            if d < dist[i]:
                dist[i] = d
                prev_col[i] = j0
                heapq.heappush(heap, (d, i))
        found_row = -1
        dfinal = INF
        while heap:
            d, i = heapq.heappop(heap)
            if final[i] or d > dist[i]:
                continue
            final[i] = True
            if colof[i] < 0:
                found_row = i
                dfinal = d
                break
            # follow the matched edge row i -> column colof[i] (reduced cost
            # zero by complementary slackness), then relax every edge of
            # that column
            j = colof[i]
            lo2, hi2 = colptr[j], colptr[j + 1]
            base = d  # matched edges have reduced cost 0 (tight)
            cand_rows = rowind[lo2:hi2]
            cand_d = base + cost[lo2:hi2] - u[cand_rows] - v[j]
            for idx in range(cand_rows.size):
                i2 = cand_rows[idx]
                nd = cand_d[idx]
                if not final[i2] and nd < dist[i2] - 1e-300:
                    dist[i2] = nd
                    prev_col[i2] = j
                    heapq.heappush(heap, (nd, i2))
        if found_row < 0:
            raise StructurallySingularError(
                "no augmenting path: matrix is structurally singular")
        # Dual updates preserving complementary slackness.
        fin = final & (dist <= dfinal)
        fin_rows = np.nonzero(fin)[0]
        u[fin_rows] += dist[fin_rows] - dfinal
        for i in fin_rows:
            j = colof[i]
            if j >= 0:
                v[j] -= dist[i] - dfinal
        v[j0] += dfinal  # the source column absorbs the full path length
        # Augment along prev_col chain from found_row back to j0.
        i = found_row
        while True:
            j = prev_col[i]
            prev_i = rowof[j]
            rowof[j] = i
            colof[i] = j
            if j == j0:
                break
            i = prev_i

    return rowof, u, v


def golden_perm_from_matching(rowof, n):
    perm_r = np.full(n, -1, dtype=np.int64)
    for j in range(n):
        i = rowof[j]
        if i >= 0:
            perm_r[i] = j
    if np.any(perm_r < 0):
        raise StructurallySingularError("matching is not perfect")
    return perm_r


def golden_matched_edges(a, rowof):
    idx = np.empty(a.ncols, dtype=np.int64)
    for j in range(a.ncols):
        lo, hi = a.colptr[j], a.colptr[j + 1]
        k = lo + np.searchsorted(a.rowind[lo:hi], rowof[j])
        if k >= hi or a.rowind[k] != rowof[j]:
            raise AssertionError("matched entry missing from structure")
        idx[j] = k
    return idx



def golden_mc64(a, job, scale):
    n = a.ncols
    nz = a.prune_zeros()
    ones = np.ones(n)
    if job == "cardinality":
        rowof = golden_max_transversal(nz, require_perfect=True)
        return MC64Result(golden_perm_from_matching(rowof, n), rowof, ones,
                          ones, float(n))
    if job == "bottleneck":
        with mock.patch.object(matching, "max_transversal",
                               golden_max_transversal):
            rowof, val = matching.bottleneck_matching(nz)
        return MC64Result(golden_perm_from_matching(rowof, n), rowof, ones,
                          ones, val)
    if n == 0:
        return MC64Result(np.empty(0, np.int64), np.empty(0, np.int64),
                          ones, ones, 0.0)
    if nz.nnz == 0:
        raise StructurallySingularError("matrix has no nonzero entries")

    mags = np.abs(nz.nzval)
    colmax = np.empty(n)
    for j in range(n):
        lo, hi = nz.colptr[j], nz.colptr[j + 1]
        if lo == hi:
            raise StructurallySingularError(f"column {j} has no nonzeros")
        colmax[j] = mags[lo:hi].max()

    cols = np.repeat(np.arange(n, dtype=np.int64), np.diff(nz.colptr))
    cost = np.log(colmax[cols]) - np.log(mags)

    rowof, u, v = golden_sparse_assignment(n, nz.colptr, nz.rowind, cost)
    objective = -float(cost[golden_matched_edges(nz, rowof)].sum())

    if scale:
        dr = np.exp(u)
        dc = np.exp(v) / colmax
    else:
        dr = ones
        dc = ones.copy()
    return MC64Result(golden_perm_from_matching(rowof, n), rowof, dr, dc,
                      objective)


# --------------------------------------------------------------------- #
# the property
# --------------------------------------------------------------------- #

def _outcome(fn, *args):
    """``fn(*args)`` as a tuple of its outputs, or (type, message) of
    what it raised."""
    try:
        out = fn(*args)
    except (StructurallySingularError, ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    if isinstance(out, MC64Result):
        out = (out.perm_r, out.rowof, out.dr, out.dc, out.objective)
    return out if isinstance(out, tuple) else (out,)


def _same(got, want):
    """Equal byte for byte: arrays by dtype, shape and bytes, floats by
    their bits (so -0.0 is not 0.0), anything else by ==."""
    if len(got) != len(want):
        return False
    for x, y in zip(got, want):
        if isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and x.dtype == y.dtype
                    and x.shape == y.shape and x.tobytes() == y.tobytes()):
                return False
        elif isinstance(y, float):
            if np.float64(x).tobytes() != np.float64(y).tobytes():
                return False
        elif x != y:
            return False
    return True


# edge costs: repeated values (heap ties), all zero, negative, near the
# cheap assignment's 1e-15 tightness threshold, and MC64's own log costs
COSTS = ("ties", "zero", "negative", "tiny", "log")


def _costs(kind, rng, nnz):
    if kind == "ties":
        return rng.integers(0, 3, nnz).astype(np.float64)
    if kind == "zero":
        return np.zeros(nnz)
    if kind == "negative":
        return rng.integers(-4, 2, nnz) * 0.75
    if kind == "tiny":
        return rng.integers(0, 4, nnz) * 5e-16
    return -np.log(rng.random(nnz) + 1e-3)


def _pattern(n, density, perfect, seed, values="ties"):
    """Random n-by-n CSC pattern; with ``perfect`` a random transversal is
    forced in, otherwise it may be structurally singular."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    if perfect and n:
        mask[rng.permutation(n), np.arange(n)] = True
    if values == "ties":
        vals = rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], size=(n, n))
    else:
        vals = rng.standard_normal((n, n))
    return CSCMatrix.from_dense(np.where(mask, vals, 0.0)), rng


@given(n=st.integers(0, 24), density=st.floats(0.0, 0.6),
       perfect=st.booleans(), kind=st.sampled_from(COSTS),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_assignment_and_transversal_match_the_frozen_loops_property(
        n, density, perfect, kind, seed):
    a, rng = _pattern(n, density, perfect, seed)
    cost = _costs(kind, rng, a.nnz)
    assert _same(_outcome(sparse_assignment, n, a.colptr, a.rowind, cost),
                 _outcome(golden_sparse_assignment, n, a.colptr, a.rowind,
                          cost))
    for perfect_only in (False, True):
        assert _same(_outcome(max_transversal, a, perfect_only),
                     _outcome(golden_max_transversal, a, perfect_only))


@given(n=st.integers(0, 24), density=st.floats(0.0, 0.6),
       perfect=st.booleans(), values=st.sampled_from(["ties", "normal"]),
       job=st.sampled_from(["cardinality", "bottleneck", "product"]),
       scale=st.booleans(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=150, deadline=None)
def test_mc64_matches_the_frozen_loops_property(
        n, density, perfect, values, job, scale, seed):
    a, _ = _pattern(n, density, perfect, seed, values)
    assert _same(_outcome(mc64, a, job, scale),
                 _outcome(golden_mc64, a, job, scale))


def test_the_property_reaches_every_branch():
    """The sweep's inputs reach the Dijkstra (augmenting paths with heap
    ties) and each raise, with the loop's messages."""
    a, rng = _pattern(24, 0.3, True, 7)
    cost = _costs("ties", rng, a.nnz)
    pushed, push = [], heapq.heappush

    def spy(heap, item):
        pushed.append(item[0])
        push(heap, item)

    with mock.patch.object(heapq, "heappush", spy):
        want = _outcome(golden_sparse_assignment, 24, a.colptr, a.rowind,
                        cost)
    assert len(pushed) > len(set(pushed)) > 1
    assert _same(_outcome(sparse_assignment, 24, a.colptr, a.rowind, cost),
                 want)
    singular = CSCMatrix.from_dense(np.array([[1.0, 2.0], [0.0, 0.0]]))
    empty = CSCMatrix.from_dense(np.array([[1.0, 0.0], [1.0, 0.0]]))
    for m in (singular, empty):
        for job in ("cardinality", "bottleneck", "product"):
            got = _outcome(mc64, m, job, True)
            assert got[0] is StructurallySingularError
            assert got == _outcome(golden_mc64, m, job, True)
    assert _outcome(sparse_assignment, 2, singular.colptr, singular.rowind,
                    singular.nzval) == (
        StructurallySingularError,
        "no augmenting path: matrix is structurally singular")
    assert _outcome(sparse_assignment, 2, empty.colptr, empty.rowind,
                    empty.nzval) == (StructurallySingularError,
                                     "column 1 is empty")
