"""Bulk matrix ingestion: collection files → a servable pattern catalog.

The paper's testbed is the Harwell-Boeing / Davis collections; this
module is the on-ramp for those files.  :func:`ingest_directory` walks
a directory of Matrix Market (``.mtx``) and Harwell-Boeing
(``.rua``/``.rsa``/``.hb``/``.rb``) files — gzip-compressed variants
included, as they ship from collection mirrors — through the
:mod:`repro.sparse.io` readers and builds an on-disk **pattern
catalog**:

    catalog_dir/
      catalog.json            # schema catalog/v1: one entry per matrix
      matrices/<name>.mtx.gz  # normalized, recompressed copies
      plans/<digest>.plan.pkl # spooled PatternPlans (spool/v8)

Each entry records the pattern fingerprint, the paper-Table-2 style
characterization (:func:`repro.matrices.stats.matrix_stats`) and — when
``plans=True`` — the cost of one cold factorization, paid *at ingest
time* so the plan lands in the warm-start spool
(:mod:`repro.service.shard.spool`) and serving starts warm:
``serve --catalog DIR`` registers every entry and a shard tier pointed
at ``catalog_dir/plans`` skips ``DOFACT`` for all of them.

Ingestion is defensive: a file that fails to parse, is not square, or
is structurally unusable is *skipped with a recorded reason*
(``catalog.skipped``), never fatal — a directory fresh off a mirror
always yields a catalog of whatever was usable.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import add

__all__ = ["CATALOG_SCHEMA", "catalog_matrices", "ingest_directory",
           "load_catalog"]

CATALOG_SCHEMA = "catalog/v1"

# suffix → reader; .gz handled by stripping before lookup (the readers
# decompress transparently)
_READERS = {
    ".mtx": "read_matrix_market",
    ".rua": "read_harwell_boeing",
    ".rsa": "read_harwell_boeing",
    ".hb": "read_harwell_boeing",
    ".rb": "read_harwell_boeing",
}


def _classify(path: Path):
    """(name, reader-fn-name) for a catalog-ingestible file, else None."""
    suffixes = [s.lower() for s in path.suffixes]
    if suffixes and suffixes[-1] == ".gz":
        suffixes = suffixes[:-1]
    if not suffixes or suffixes[-1] not in _READERS:
        return None
    name = path.name
    if name.lower().endswith(".gz"):
        name = name[:-3]
    return name[: -len(suffixes[-1])], _READERS[suffixes[-1]]


def ingest_directory(src, catalog_dir, *, plans: bool = True,
                     options=None) -> dict:
    """Walk ``src`` and build (or extend) the catalog at ``catalog_dir``.

    Returns the written ``catalog/v1`` document.  Re-ingesting is
    idempotent: entries are keyed by name and overwritten in place.
    Set ``plans=False`` to skip the per-matrix cold factorization (fast
    cataloging without the warm-start spool).
    """
    from repro.driver.factcache import FactorizationCache
    from repro.driver.gesp_driver import GESPSolver
    from repro.driver.options import GESPOptions
    from repro.matrices.stats import matrix_stats
    from repro.service.shard import spool as _spool
    from repro.sparse import io as sio
    from repro.sparse.ops import pattern_fingerprint

    src = Path(src)
    if not src.is_dir():
        raise NotADirectoryError(f"ingest source {src} is not a directory")
    catalog_dir = Path(catalog_dir)
    (catalog_dir / "matrices").mkdir(parents=True, exist_ok=True)
    doc = load_catalog(catalog_dir, missing_ok=True) or {
        "schema": CATALOG_SCHEMA, "entries": []}
    entries = {e["name"]: e for e in doc["entries"]}
    skipped = []
    opts = options if options is not None else GESPOptions()
    # effectively unbounded (ingest-local): every plan must survive to
    # the spool sync, an LRU eviction here would silently drop one
    cache = FactorizationCache(maxsize=1_000_000)

    candidates = sorted(p for p in src.rglob("*")
                        if p.is_file() and _classify(p) is not None)
    for path in candidates:
        name, reader = _classify(path)
        try:
            a = getattr(sio, reader)(str(path))
            if a.nrows != a.ncols:
                raise ValueError(f"not square ({a.nrows}x{a.ncols})")
            stats = matrix_stats(a)
            entry = {
                "name": name,
                "source": str(path.relative_to(src)),
                "fingerprint": pattern_fingerprint(a),
                "n": stats.n,
                "nnz": stats.nnz,
                "num_sym": stats.num_sym,
                "str_sym": stats.str_sym,
                "zero_diagonals": stats.zero_diagonals,
                "structurally_singular": stats.structurally_singular,
                "plan_spooled": False,
            }
            if plans and not stats.structurally_singular:
                # pay the cold analysis now: the plan lands in the
                # spool and every future serve of this pattern is warm
                GESPSolver(a, opts, cache=cache)
                entry["plan_spooled"] = True
            sio.write_matrix_market(
                a, str(catalog_dir / "matrices" / f"{name}.mtx.gz"),
                comment=f"repro catalog entry {name} (from {path.name})")
        except Exception as exc:  # noqa: BLE001 — skip, never abort a walk
            skipped.append({"source": str(path.relative_to(src)),
                            "reason": repr(exc)})
            add("catalog.skipped", 1)
            continue
        entries[name] = entry
        add("catalog.ingested", 1)
    if plans:
        _spool.save_plans(catalog_dir / "plans", cache.snapshot())

    doc["entries"] = [entries[k] for k in sorted(entries)]
    doc["skipped"] = skipped
    tmp = catalog_dir / "catalog.json.tmp"
    tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    tmp.replace(catalog_dir / "catalog.json")
    return doc


def load_catalog(catalog_dir, *, missing_ok: bool = False) -> dict | None:
    """Read and schema-check ``catalog_dir/catalog.json``."""
    path = Path(catalog_dir) / "catalog.json"
    if not path.is_file():
        if missing_ok:
            return None
        raise FileNotFoundError(f"no catalog at {path}")
    doc = json.loads(path.read_text())
    if doc.get("schema") != CATALOG_SCHEMA:
        raise ValueError(f"expected schema {CATALOG_SCHEMA!r}, "
                         f"got {doc.get('schema')!r}")
    return doc


def catalog_matrices(catalog_dir):
    """Yield ``(name, CSCMatrix)`` for every cataloged matrix — the
    shape ``register_matrix`` wants (``serve --catalog`` feeds these
    straight into the service)."""
    from repro.sparse import io as sio

    catalog_dir = Path(catalog_dir)
    doc = load_catalog(catalog_dir)
    for entry in doc["entries"]:
        yield entry["name"], sio.read_matrix_market(
            str(catalog_dir / "matrices" / f"{entry['name']}.mtx.gz"))
