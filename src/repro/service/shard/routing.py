"""Pattern-affinity routing: rendezvous hashing, one shard per pattern.

The tier's routing invariant is *affinity*: every request for a given
``pattern_fingerprint`` lands on the same shard, so that shard's
:class:`~repro.driver.factcache.FactorizationCache` and per-pattern
solver state stay warm for exactly its patterns — the PR-3 warm-vs-cold
economics (~8.3x) applied across processes.  Rendezvous (highest-random
-weight) hashing gives that affinity *and* minimal disruption: when the
shard set changes, only the patterns whose top-ranked shard changed move
(~1/N of them), instead of the wholesale reshuffle a modulo hash causes.

Pure functions over (fingerprint, shard ids) — deterministic across
processes and interpreter restarts (blake2b, not ``hash()``, which is
salted per process), so tests and operators can predict placement.
The router's one rule is ``route(fingerprint, range(shards))``: each
pattern has exactly one warm anchor, on one shard, so its answers are
bit for bit those of the in-process service.
"""

from __future__ import annotations

import hashlib

__all__ = ["rendezvous_rank", "route"]


def _weight(fingerprint: str, shard_id: int) -> int:
    """The HRW weight of one (pattern, shard) pair."""
    h = hashlib.blake2b(f"{fingerprint}|{shard_id}".encode(),
                        digest_size=8)
    return int.from_bytes(h.digest(), "big")


def rendezvous_rank(fingerprint: str, shard_ids) -> list[int]:
    """Shard ids ranked by HRW weight for ``fingerprint``, best first.

    Deterministic in the *set* of ids (order of ``shard_ids`` does not
    matter); removing a shard never reorders the survivors, which is the
    minimal-movement property resharding relies on.
    """
    ids = list(shard_ids)
    if not ids:
        raise ValueError("rendezvous_rank needs at least one shard id")
    return sorted(ids, key=lambda s: (-_weight(fingerprint, s), s))


def route(fingerprint: str, shard_ids) -> int:
    """The owning shard for ``fingerprint`` (the HRW top rank)."""
    return rendezvous_rank(fingerprint, shard_ids)[0]
