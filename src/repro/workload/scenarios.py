"""Seeded scenario generators: the paper's users as request streams.

Static pivoting's economics rest on one usage shape (paper §1): the
same sparsity pattern factored over and over with drifting values —
Newton iterations inside a transient circuit/device simulation, or
pseudo-transient continuation in CFD.  This module turns that shape
into explicit, *bit-reproducible* workloads: a
:class:`ScenarioSpec` names a testbed pattern, a drift model and an
arrival process; :func:`generate` expands it into a timestamped stream
of :class:`WorkloadItem`\\ s whose matrices share one pattern while the
values drift per step — exactly what exercises warm refactorization on a
pattern's anchor, the :class:`~repro.driver.factcache.FactorizationCache`
and the service's coalescing the way real users would.

Scenario catalog (docs/WORKLOADS.md):

- ``transient_circuit`` — time-stepping MNA: values drift between
  steps, Newton iterations *within* a step share values (step solves
  coalesce / hit ``FACTORED``; step boundaries refactor warm,
  ``SAME_PATTERN_SAME_ROWPERM``);
- ``pseudo_transient_cfd`` — pseudo-transient continuation: per-step
  drift decays geometrically as the iteration approaches steady state;
- ``newton_drift`` — a full Newton solve per request: values drift on
  *every* solve, the pure warm-refactorization stress case (at the
  default 8 % per iterate the MC64 matching of the values moves every
  few iterates; the service keeps the pattern's anchor and lets the berr
  certificate say when that stops being good enough — docs/SERVICE.md).

Determinism contract: everything derives from ``spec.seed`` through
one ``numpy`` Generator — same spec ⇒ byte-identical stream
(:func:`stream_digest` is the check the tests and benchmarks pin).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields

import numpy as np

from repro.obs import add
from repro.sparse.csc import CSCMatrix

__all__ = [
    "SCENARIOS",
    "ScenarioSpec",
    "WorkloadItem",
    "generate",
    "generate_all",
    "load_workload",
    "parse_workload",
    "stream_digest",
]

WORKLOAD_SCHEMA = "workload/v1"

# per-scenario defaults: (steps, newton_iters, drift, newton_drift, decay)
SCENARIOS = {
    # time stepping: iterations within a step share values
    "transient_circuit": dict(steps=20, newton_iters=3, drift=0.05,
                              newton_drift=0.0, decay=1.0),
    # continuation: drift decays as the run approaches steady state
    "pseudo_transient_cfd": dict(steps=24, newton_iters=2, drift=0.10,
                                 newton_drift=0.02, decay=0.85),
    # every solve is a fresh Newton iterate
    "newton_drift": dict(steps=1, newton_iters=40, drift=0.0,
                         newton_drift=0.08, decay=1.0),
}

_ARRIVALS = ("burst", "poisson", "bursty", "diurnal")


@dataclass(frozen=True)
class ScenarioSpec:
    """One seeded workload scenario.

    Attributes
    ----------
    scenario:
        A :data:`SCENARIOS` key; its entry fills every drift field left
        ``None``.
    matrix:
        Testbed matrix name (:func:`repro.matrices.matrix_by_name`) —
        the fixed pattern the whole stream factors.
    steps / newton_iters:
        Time steps, and Newton iterations (= solve requests) per step.
    drift:
        Relative per-*step* value perturbation: entering step ``s`` the
        nonzeros move by ``drift · decay**(s-1)`` (multiplicative
        lognormal-style noise, pattern untouched).
    newton_drift:
        Relative per-*iteration* perturbation within a step (0 = the
        step's iterations share values and can reuse factors as-is).
    decay:
        Geometric damping of the per-step drift (1.0 = stationary;
        < 1 models pseudo-transient convergence).
    arrival / rate:
        Arrival process of the requests: ``burst`` (all at t=0),
        ``poisson`` (exponential gaps at ``rate``/s), ``bursty``
        (whole time steps arrive as one burst, steps Poisson-spaced),
        or ``diurnal`` (Poisson thinned by a half-sine daily ramp).
    tenant:
        SLO-class name stamped on every request ("" = untenanted).
    seed:
        The single source of randomness (values *and* arrivals).
    """

    scenario: str = "transient_circuit"
    matrix: str = "circuit01"
    steps: int | None = None
    newton_iters: int | None = None
    drift: float | None = None
    newton_drift: float | None = None
    decay: float | None = None
    arrival: str = "poisson"
    rate: float = 200.0
    tenant: str = ""
    seed: int = 0

    def resolved(self) -> "ScenarioSpec":
        """A copy with every ``None`` drift field filled from the
        scenario's :data:`SCENARIOS` defaults, validated."""
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; "
                             f"pick one of {sorted(SCENARIOS)}")
        if self.arrival not in _ARRIVALS:
            raise ValueError(f"unknown arrival {self.arrival!r}; "
                             f"pick one of {_ARRIVALS}")
        defaults = SCENARIOS[self.scenario]
        filled = {k: (defaults[k] if getattr(self, k) is None
                      else getattr(self, k)) for k in defaults}
        spec = ScenarioSpec(scenario=self.scenario, matrix=self.matrix,
                            arrival=self.arrival, rate=float(self.rate),
                            tenant=self.tenant, seed=int(self.seed),
                            **filled)
        if spec.steps < 1 or spec.newton_iters < 1:
            raise ValueError("steps and newton_iters must be >= 1")
        if spec.drift < 0 or spec.newton_drift < 0 or spec.decay <= 0:
            raise ValueError("drift/newton_drift must be >= 0, decay > 0")
        if spec.rate <= 0:
            raise ValueError("rate must be > 0 requests/s")
        return spec


@dataclass
class WorkloadItem:
    """One generated request: a drifted matrix, an RHS, a timestamp."""

    t_offset: float                    # seconds from stream start
    matrix: CSCMatrix | str            # pattern fixed, values drifted
                                       # (or a registered pattern key)
    b: np.ndarray
    scenario: str = ""
    tenant: str = ""
    step: int = 0
    iteration: int = 0


def _arrival_times(spec: ScenarioSpec, rng) -> np.ndarray:
    """Per-request offsets for ``steps·newton_iters`` arrivals.

    Every process draws the same number of variates in the same order,
    so arrival shape changes never perturb the value drift stream (the
    values use an independent child generator anyway — belt and
    braces)."""
    total = spec.steps * spec.newton_iters
    if spec.arrival == "burst":
        return np.zeros(total)
    if spec.arrival == "bursty":
        # a whole time step's Newton iterations arrive together: the
        # coalescing-friendly shape of a simulator blasting one step
        step_gaps = rng.exponential(spec.newton_iters / spec.rate,
                                    size=spec.steps)
        return np.repeat(np.cumsum(step_gaps) - step_gaps[0],
                         spec.newton_iters)
    gaps = rng.exponential(1.0 / spec.rate, size=total)
    if spec.arrival == "diurnal":
        # half-sine daily ramp: quiet open, peak mid-stream, quiet
        # close — instantaneous rate in [0.25, 1.75]·rate
        f = (np.arange(total) + 0.5) / total
        gaps = gaps / (0.25 + 1.5 * np.sin(np.pi * f))
    t = np.cumsum(gaps)
    return t - t[0]


def generate(spec: ScenarioSpec) -> list[WorkloadItem]:
    """Expand one scenario into its timestamped request stream.

    Bit-reproducible: the same (resolved) spec always returns
    matrices, right-hand sides and offsets that are byte-identical
    (same seed ⇒ same :func:`stream_digest`)."""
    from repro.matrices import matrix_by_name

    spec = spec.resolved()
    base = matrix_by_name(spec.matrix).build()
    rng = np.random.default_rng(spec.seed)
    values_rng = np.random.default_rng(rng.integers(2**63))
    times = _arrival_times(spec, rng)

    items = []
    nzval = base.nzval.copy()
    k = 0
    for step in range(spec.steps):
        if step > 0 and spec.drift > 0:
            amp = spec.drift * spec.decay ** (step - 1)
            nzval = nzval * (1.0 + amp
                             * values_rng.standard_normal(nzval.size))
        step_vals = nzval
        for it in range(spec.newton_iters):
            if it > 0 and spec.newton_drift > 0:
                step_vals = step_vals * (
                    1.0 + spec.newton_drift
                    * values_rng.standard_normal(nzval.size))
            a = CSCMatrix(base.nrows, base.ncols, base.colptr,
                          base.rowind, step_vals.copy(), check=False)
            items.append(WorkloadItem(
                t_offset=float(times[k]), matrix=a,
                b=values_rng.standard_normal(base.ncols),
                scenario=spec.scenario, tenant=spec.tenant,
                step=step, iteration=it))
            k += 1
        nzval = step_vals
    add("workload.scenarios", 1)
    add("workload.steps", spec.steps)
    add("workload.requests", len(items))
    return items


def generate_all(specs: list[ScenarioSpec]) -> list[WorkloadItem]:
    """Merge several scenarios into one stream ordered by arrival time
    (ties keep spec order, so the merge is deterministic too)."""
    merged = []
    for i, spec in enumerate(specs):
        merged.extend((item.t_offset, i, j, item)
                      for j, item in enumerate(generate(spec)))
    merged.sort(key=lambda t: t[:3])
    return [t[3] for t in merged]


def stream_digest(items: list[WorkloadItem]) -> str:
    """blake2b over every item's bytes — the bit-reproducibility check
    (same spec ⇒ same digest; any drift in values, RHS or arrival
    times changes it)."""
    h = hashlib.blake2b(digest_size=16)
    for item in items:
        h.update(np.float64(item.t_offset).tobytes())
        h.update(item.matrix.nzval.tobytes())
        h.update(np.asarray(item.b, dtype=np.float64).tobytes())
        h.update(f"{item.scenario}|{item.tenant}|"
                 f"{item.step}|{item.iteration}".encode())
    return h.hexdigest()


def parse_workload(obj: dict) -> list[ScenarioSpec]:
    """Parse a ``workload/v1`` spec document into resolved scenarios.

    Shape::

        {"schema": "workload/v1",
         "scenarios": [{"scenario": "transient_circuit",
                        "matrix": "circuit02", "rate": 500, ...}, ...]}
    """
    if obj.get("schema") != WORKLOAD_SCHEMA:
        raise ValueError(f"expected schema {WORKLOAD_SCHEMA!r}, "
                         f"got {obj.get('schema')!r}")
    known = {f.name for f in fields(ScenarioSpec)}
    specs = []
    for i, entry in enumerate(obj.get("scenarios", [])):
        unknown = set(entry) - known
        if unknown:
            raise ValueError(f"scenario #{i}: unknown fields "
                             f"{sorted(unknown)}")
        specs.append(ScenarioSpec(**entry).resolved())
    if not specs:
        raise ValueError("workload spec lists no scenarios")
    return specs


def load_workload(path) -> list[ScenarioSpec]:
    """Read a ``workload/v1`` JSON file (see :func:`parse_workload`)."""
    with open(path) as fh:
        return parse_workload(json.load(fh))
