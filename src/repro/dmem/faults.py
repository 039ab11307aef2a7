"""Deterministic fault injection for the distributed-memory simulator.

A :class:`FaultPlan` describes an unreliable machine: messages may be
dropped, duplicated, or delayed in transit; ranks may run slower than
the machine model says; compute times may jitter.  Every decision is a
pure function of the plan's ``seed`` and the identity of the event it
applies to (source, dest, tag, send sequence number for messages;
rank and op index for computes), so the same plan against the same
programs produces bit-identical outcomes, run after run — faults are a
*scenario*, not noise.

Two ways to target messages:

- probabilistic knobs (``drop``, ``duplicate``, ``delay``) exercise the
  whole protocol under a given fault rate — the stress-test mode;
- :class:`DropRule` entries surgically kill the first ``count`` messages
  matching a (source, dest, tag) pattern — the reproduce-this-exact-
  failure mode used by the tests and the ``--fault-plan`` CLI.

Plans serialize to JSON (``to_json``/``from_json``/``load``/``dump``)
so a failing scenario can be attached to a bug report and replayed; the
schema is documented in docs/ROBUSTNESS.md.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = ["DropRule", "FaultPlan", "MessageFate"]

# domain-separation constants for the per-event RNG streams
_MSG_STREAM = 7919
_COMPUTE_STREAM = 104729


@dataclass(frozen=True)
class DropRule:
    """Drop the first ``count`` messages matching the pattern.

    ``None`` fields match anything; ``tag`` matches the message tag
    exactly (see the protocol tag encodings in repro.pdgstrf / pdgstrs).
    """

    source: int | None = None
    dest: int | None = None
    tag: int | None = None
    count: int = 1

    def matches(self, source, dest, tag):
        return ((self.source is None or self.source == source)
                and (self.dest is None or self.dest == dest)
                and (self.tag is None or self.tag == tag))


@dataclass(frozen=True)
class MessageFate:
    """What the plan decided for one logical send."""

    copies: int            # 0 = dropped, 1 = delivered, 2 = duplicated
    delay_factor: float    # extra transfer-time multiplier (0 = on time)


@dataclass
class FaultPlan:
    """A seeded, deterministic description of an unreliable machine.

    Attributes
    ----------
    seed:
        Root of every pseudo-random decision (non-negative).
    drop, duplicate, delay:
        Per-message probabilities in [0, 1] of the transit faults.
        They are evaluated in that order on independent coins, so a
        message is first (maybe) dropped, else (maybe) duplicated,
        and independently (maybe) delayed.
    delay_factor:
        A delayed message's network transfer time is multiplied by
        ``1 + delay_factor * u`` with ``u`` uniform in (0, 1].
    rank_slowdown:
        Map of rank -> compute-time multiplier (>= 1 models a slow or
        contended PE; the paper's load-imbalance discussion in reverse).
    compute_jitter:
        Multiplicative jitter amplitude in [0, 1): each Compute op's
        duration is scaled by ``1 + compute_jitter * (2u - 1)``.
    drop_rules:
        Surgical :class:`DropRule` list, applied before the
        probabilistic drop coin.  Rule countdowns are tracked by each
        executor per run (see :meth:`send_fate`), so a plan object stays
        immutable state.
    """

    seed: int = 0
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    delay_factor: float = 10.0
    rank_slowdown: dict = field(default_factory=dict)
    compute_jitter: float = 0.0
    drop_rules: tuple = ()

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.seed < 0:
            raise ValueError("FaultPlan.seed must be non-negative")
        for name in ("drop", "duplicate", "delay"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"FaultPlan.{name} must be in [0, 1]")
        if self.delay_factor < 0:
            raise ValueError("FaultPlan.delay_factor must be >= 0")
        if not (0.0 <= self.compute_jitter < 1.0):
            raise ValueError("FaultPlan.compute_jitter must be in [0, 1)")
        for r, s in self.rank_slowdown.items():
            if int(r) < 0 or float(s) <= 0:
                raise ValueError("rank_slowdown entries must map "
                                 "rank >= 0 to factor > 0")
        self.drop_rules = tuple(
            r if isinstance(r, DropRule) else DropRule(**r)
            for r in self.drop_rules)
        return self

    # ----------------------------------------------------------------- #
    # deterministic per-event decisions
    # ----------------------------------------------------------------- #

    def _rng(self, stream, *key):
        # Non-negative integer keys only (SeedSequence requirement); tags
        # and sources are >= 0 at the send site.
        return np.random.default_rng((self.seed, stream, *map(int, key)))

    def send_fate(self, countdowns, source, dest, tag, seq) -> MessageFate:
        """Fate of logical send ``seq``: the first drop rule that matches
        with count left in ``countdowns`` (the run's list, initialised
        from each rule's ``count``) drops it and spends one, otherwise
        :meth:`message_fate` decides.  Each executor numbers ``seq``
        its own way: the simulator counts globally, the process executor
        per sender."""
        for i, rule in enumerate(self.drop_rules):
            if countdowns[i] > 0 and rule.matches(source, dest, tag):
                countdowns[i] -= 1
                return MessageFate(copies=0, delay_factor=0.0)
        return self.message_fate(source, dest, tag, seq)

    def message_fate(self, source, dest, tag, seq) -> MessageFate:
        """Transit fate of logical send ``seq`` under the probabilistic
        knobs alone (drop rules excluded: :meth:`send_fate` applies
        those first, since they carry countdowns)."""
        if not (self.drop or self.duplicate or self.delay):
            return MessageFate(copies=1, delay_factor=0.0)
        u = self._rng(_MSG_STREAM, source, dest, tag, seq).random(3)
        if u[0] < self.drop:
            return MessageFate(copies=0, delay_factor=0.0)
        copies = 2 if u[1] < self.duplicate else 1
        delay = self.delay_factor * u[2] if u[2] < self.delay else 0.0
        return MessageFate(copies=copies, delay_factor=delay)

    def compute_scale(self, rank, index) -> float:
        """Duration multiplier for the ``index``-th Compute op of
        ``rank`` (slowdown times jitter; always > 0)."""
        scale = float(self.rank_slowdown.get(rank,
                      self.rank_slowdown.get(str(rank), 1.0)))
        if self.compute_jitter:
            u = self._rng(_COMPUTE_STREAM, rank, index).random()
            scale *= 1.0 + self.compute_jitter * (2.0 * u - 1.0)
        return scale

    @property
    def active(self):
        """Whether this plan can perturb anything at all."""
        return bool(self.drop or self.duplicate or self.delay
                    or self.rank_slowdown or self.compute_jitter
                    or self.drop_rules)

    # ----------------------------------------------------------------- #
    # JSON round-trip
    # ----------------------------------------------------------------- #

    def to_dict(self):
        d = asdict(self)
        d["rank_slowdown"] = {str(k): float(v)
                              for k, v in self.rank_slowdown.items()}
        d["drop_rules"] = [asdict(r) for r in self.drop_rules]
        return d

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        d["rank_slowdown"] = {int(k): float(v)
                              for k, v in d.get("rank_slowdown", {}).items()}
        d["drop_rules"] = tuple(DropRule(**r)
                                for r in d.get("drop_rules", ()))
        return cls(**d)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_json(f.read())
