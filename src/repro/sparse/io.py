"""Matrix file I/O: Matrix Market and Harwell-Boeing formats.

The paper's testbed comes from the Harwell-Boeing collection and Tim
Davis's (now SuiteSparse) collection, distributed in these two formats.
We implement readers and writers from the published format specifications
so that real collection files can be dropped into the benchmark harness
in place of the synthetic analogs.

Collection downloads ship gzip-compressed (``.mtx.gz``, ``.rua.gz``);
both readers and writers handle a ``.gz`` suffix transparently, so an
ingest directory of files straight off a collection mirror needs no
unpacking step (:mod:`repro.workload.catalog` relies on this).
"""

from __future__ import annotations

import gzip

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "read_harwell_boeing",
    "write_harwell_boeing",
]


def _open_text(path, mode):
    """Open ``path`` for text I/O, through gzip when it ends in .gz."""
    name = path.decode() if isinstance(path, bytes) else str(path)
    if name.endswith(".gz"):
        return gzip.open(path, mode + "t")
    return open(path, mode)


# --------------------------------------------------------------------- #
# Matrix Market
# --------------------------------------------------------------------- #

def read_matrix_market(path_or_lines):
    """Read a Matrix Market coordinate file into CSC.

    Supports ``real``/``integer``/``pattern`` fields and
    ``general``/``symmetric``/``skew-symmetric`` symmetries.  Pattern
    entries get value 1.0.  Symmetric storage is expanded to full storage.
    """
    if isinstance(path_or_lines, (str, bytes)) or hasattr(path_or_lines,
                                                          "__fspath__"):
        with _open_text(path_or_lines, "r") as fh:
            lines = fh.read().splitlines()
    else:
        lines = list(path_or_lines)
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise ValueError("missing MatrixMarket header")
    header = lines[0].split()
    if len(header) < 5 or header[1].lower() != "matrix":
        raise ValueError("unsupported MatrixMarket object")
    fmt, field, symmetry = header[2].lower(), header[3].lower(), header[4].lower()
    if fmt != "coordinate":
        raise ValueError("only coordinate format is supported")
    if field not in ("real", "integer", "pattern"):
        raise ValueError(f"unsupported field {field!r}")
    if symmetry not in ("general", "symmetric", "skew-symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry!r}")
    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    nrows, ncols, nnz = (int(t) for t in body[0].split()[:3])
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    for k, ln in enumerate(body[1:1 + nnz]):
        parts = ln.split()
        rows[k] = int(parts[0]) - 1
        cols[k] = int(parts[1]) - 1
        vals[k] = float(parts[2]) if field != "pattern" else 1.0
    if symmetry in ("symmetric", "skew-symmetric"):
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows = np.concatenate([rows, cols[off]])
        cols = np.concatenate([cols, rows[:nnz][off]])
        vals = np.concatenate([vals, sign * vals[:nnz][off]])
    return CSCMatrix.from_coo(COOMatrix(nrows, ncols, rows, cols, vals),
                              sum_duplicates=True)


def write_matrix_market(a: CSCMatrix, path, comment=None):
    """Write CSC matrix ``a`` as a general real coordinate MatrixMarket file."""
    coo = a.to_coo()
    with _open_text(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in str(comment).splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{a.nrows} {a.ncols} {a.nnz}\n")
        for i, j, v in zip(coo.row, coo.col, coo.val):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


# --------------------------------------------------------------------- #
# Harwell-Boeing (RUA — real unsymmetric assembled)
# --------------------------------------------------------------------- #

def read_harwell_boeing(path_or_lines):
    """Read an assembled real Harwell-Boeing (RUA/RSA) file into CSC.

    Implements the fixed-column format of Duff, Grimes & Lewis (RAL-92-086):
    a 4-5 line header giving card counts and Fortran format specifiers,
    followed by column pointers, row indices and values.  RSA (symmetric)
    storage is expanded to full.
    """
    if isinstance(path_or_lines, (str, bytes)) or hasattr(path_or_lines,
                                                          "__fspath__"):
        with _open_text(path_or_lines, "r") as fh:
            lines = fh.read().splitlines()
    else:
        lines = list(path_or_lines)
    # line 2: TOTCRD PTRCRD INDCRD VALCRD RHSCRD
    counts = lines[1].split()
    ptrcrd, indcrd, valcrd = int(counts[1]), int(counts[2]), int(counts[3])
    # line 3: MXTYPE N NROW NCOL NNZERO NELTVL
    l3 = lines[2].split()
    mxtype = l3[0].upper()
    nrows, ncols, nnz = int(l3[1]), int(l3[2]), int(l3[3])
    if mxtype[2] != "A":
        raise ValueError("only assembled matrices are supported")
    if mxtype[0] not in ("R", "P"):
        raise ValueError("only real or pattern matrices are supported")
    # line 4: PTRFMT INDFMT VALFMT RHSFMT — we re-tokenize free-form instead
    # of interpreting the Fortran formats, which is valid for files whose
    # tokens are blank-separated (all files this package writes, and the
    # overwhelming majority in the wild).
    data_start = 4
    # some RUA files have a 5th header line (RHS descriptor) when RHSCRD > 0
    rhscrd = int(counts[4]) if len(counts) > 4 else 0
    if rhscrd > 0:
        data_start = 5
    idx = data_start
    ptr_tokens = " ".join(lines[idx:idx + ptrcrd]).split()
    idx += ptrcrd
    ind_tokens = " ".join(lines[idx:idx + indcrd]).split()
    idx += indcrd
    colptr = np.array([int(t) for t in ptr_tokens], dtype=np.int64) - 1
    rowind = np.array([int(t) for t in ind_tokens], dtype=np.int64) - 1
    if mxtype[0] == "P" or valcrd == 0:
        nzval = np.ones(nnz, dtype=np.float64)
    else:
        val_tokens = " ".join(lines[idx:idx + valcrd]).split()
        nzval = np.array([float(t.replace("D", "E").replace("d", "e"))
                          for t in val_tokens], dtype=np.float64)
    if colptr.size != ncols + 1 or rowind.size != nnz or nzval.size != nnz:
        raise ValueError("inconsistent Harwell-Boeing counts")
    a = CSCMatrix(nrows, ncols, colptr, rowind, nzval, check=False)
    # enforce sorted row indices (the format does not require them)
    coo = a.to_coo()
    a = CSCMatrix.from_coo(coo, sum_duplicates=False)
    if mxtype[1] == "S":  # symmetric: lower triangle stored
        from repro.sparse.ops import add

        at = a.transpose()
        strict_upper = _strict_triangle(at, upper=True)
        a = add(a, strict_upper)
    return a


def _strict_triangle(a, upper):
    cols = np.repeat(np.arange(a.ncols, dtype=np.int64), np.diff(a.colptr))
    keep = (a.rowind < cols) if upper else (a.rowind > cols)
    return CSCMatrix.from_coo(
        COOMatrix(a.nrows, a.ncols, a.rowind[keep], cols[keep], a.nzval[keep]),
        sum_duplicates=False)


def write_harwell_boeing(a: CSCMatrix, path, title="repro matrix", key="REPRO"):
    """Write CSC matrix ``a`` as an RUA Harwell-Boeing file.

    Uses 8 pointers/indices per card (I8 equivalent) and 4 values per card
    (E20.12 equivalent), blank-separated so the reader above round-trips.
    """
    n, m, nnz = a.nrows, a.ncols, a.nnz
    ptr = a.colptr + 1
    ind = a.rowind + 1
    val = a.nzval

    def cards(tokens, per):
        return [" ".join(tokens[i:i + per]) for i in range(0, len(tokens), per)] or [""]

    ptr_cards = cards([f"{p:8d}" for p in ptr], 8)
    ind_cards = cards([f"{i:8d}" for i in ind], 8)
    val_cards = cards([f"{v:20.12E}" for v in val], 4)
    with _open_text(path, "w") as fh:
        fh.write(f"{title[:72]:<72}{key[:8]:<8}\n")
        tot = len(ptr_cards) + len(ind_cards) + len(val_cards)
        fh.write(f"{tot:14d}{len(ptr_cards):14d}{len(ind_cards):14d}"
                 f"{len(val_cards):14d}{0:14d}\n")
        fh.write(f"{'RUA':<14}{n:14d}{m:14d}{nnz:14d}{0:14d}\n")
        fh.write(f"{'(8I8)':<16}{'(8I8)':<16}{'(4E20.12)':<20}{'':<20}\n")
        for card in ptr_cards + ind_cards + val_cards:
            fh.write(card + "\n")
