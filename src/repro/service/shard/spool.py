"""Warm-start spool: PatternPlans persisted across shard restarts.

A shard's value is its warmth — the ``PatternPlan``s (orderings, value
map, symbolic analysis, block schedule) its patterns' first cold
factorizations paid for.
A respawned or restarted shard would otherwise re-run ``DOFACT`` for
every tenant; the spool makes that a disk read instead.

Format (``spool/v8``): one file per plan under the spool directory,

    <blake2b(plan.key)[:24]>.plan.pkl

containing ``pickle({"schema": "spool/v8", "key": plan.key, "plan":
plan})``.  The schema names the *shape of a plan and of its key*:
``spool/v1`` files hold plans from before the value map and block
schedule existed and ``spool/v2`` files plans whose block schedule has
no solve schedule; they would unpickle into objects missing those
attributes (and fail at the first warm refactorization, or solve through
the column sweeps).  ``spool/v3`` plans are whole but keyed with a
trailing kernel-backend name no lookup carries any more: loaded, they
would count as warm and never be found.  ``spool/v4`` plans have a block
schedule without ``runs`` and would fail inside the first request's
numeric pass.  ``spool/v5`` plans hold ``runs`` as ``(k0, k1, run)``
stretches of consecutive supernodes, which the numeric pass would
misread as ``(members, run)`` steps.  ``spool/v6`` plans are keyed
with a trailing factor dtype no lookup carries any more.  ``spool/v7``
plans hold the serial engine's unrelaxed block schedule under a key
that names no partition: found, they would refactor on a schedule a
cold run no longer computes.  All seven take the wrong-schema skip
path.  (The serial default ordering's change from AᵀA to Aᵀ+A needed no
new schema: keys carry the resolved ``col_perm``, so a v8 plan spooled
under AᵀA is found only by a solver that asks for AᵀA.)  The filename
is a digest of the
*plan key* (fingerprint plus every plan-shaping option), so distinct
option sets for one pattern spool side by side, exactly mirroring the
cache keying.  Writes are
atomic (tmp + rename) so a shard killed mid-write leaves either the old
file or none — never a torn pickle; unreadable or wrong-schema files
are skipped on load (a stale spool can cost a cold start, never
corrupt a solve — the plan key check makes a mismatched plan
unreachable anyway).

All shards share one spool directory: filenames are content-addressed
by plan key, so two shards spooling the same pattern (a tier restarted
with another shard count routes it elsewhere) write identical bytes and
last-write-wins is harmless.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import warnings
from pathlib import Path

from repro.obs import add

__all__ = ["SpoolSkipWarning", "load_plans", "save_plans", "spool_path"]

_SCHEMA = "spool/v8"


class SpoolSkipWarning(UserWarning):
    """A spooled plan file was skipped on load (torn, wrong schema, or
    key mismatch).  One warning summarizes each ``load_plans`` call; the
    per-call skip count is also published as ``spool.load_skipped`` so a
    wiped or incompatible warm-start spool is diagnosable instead of
    just slow."""


def spool_path(spool_dir, key: tuple) -> Path:
    """The spool file for one plan key."""
    digest = hashlib.blake2b(repr(key).encode(),
                             digest_size=12).hexdigest()
    return Path(spool_dir) / f"{digest}.plan.pkl"


def save_plans(spool_dir, plans, already_spooled: set | None = None) -> int:
    """Persist ``plans`` (skipping keys in ``already_spooled``).

    Returns how many files were written; updates ``already_spooled`` in
    place so a worker syncing after every batch pays nothing once its
    plans are on disk.
    """
    spool_dir = Path(spool_dir)
    spool_dir.mkdir(parents=True, exist_ok=True)
    seen = already_spooled if already_spooled is not None else set()
    written = 0
    for plan in plans:
        if plan.key in seen:
            continue
        target = spool_path(spool_dir, plan.key)
        fd, tmp = tempfile.mkstemp(dir=spool_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump({"schema": _SCHEMA, "key": plan.key,
                             "plan": plan}, f,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        seen.add(plan.key)
        written += 1
    return written


def load_plans(spool_dir, cache) -> int:
    """Preload every readable spooled plan into ``cache``.

    Returns the number of plans loaded.  Skips (never raises on)
    unreadable, torn, or wrong-schema files, and files whose recorded
    key does not match the plan's own — the spool may be shared with
    newer/older code.
    """
    spool_dir = Path(spool_dir)
    if not spool_dir.is_dir():
        return 0
    loaded = 0
    skipped = []                       # (filename, reason)
    for path in sorted(spool_dir.glob("*.plan.pkl")):
        try:
            with open(path, "rb") as f:
                entry = pickle.load(f)
            if entry.get("schema") != _SCHEMA:
                skipped.append((path.name,
                                f"schema {entry.get('schema')!r} != "
                                f"{_SCHEMA!r}"))
                continue
            plan = entry["plan"]
            if entry.get("key") != plan.key:
                skipped.append((path.name, "recorded key does not match "
                                "the plan's own"))
                continue
        except Exception as exc:       # noqa: BLE001 — never fail a start
            skipped.append((path.name, f"unreadable: {exc!r}"))
            continue
        cache.store(plan)
        loaded += 1
    if skipped:
        add("spool.load_skipped", len(skipped))
        detail = "; ".join(f"{name} ({why})" for name, why in skipped[:5])
        if len(skipped) > 5:
            detail += f"; ... {len(skipped) - 5} more"
        warnings.warn(
            f"warm-start spool {spool_dir}: skipped {len(skipped)} of "
            f"{len(skipped) + loaded} plan file(s): {detail}",
            SpoolSkipWarning, stacklevel=2)
    return loaded
