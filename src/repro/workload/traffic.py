"""Open-loop traffic runner: scenario streams → per-tenant SLO report.

:func:`run_workload` is the harness that closes the loop between the
generators (:mod:`repro.workload.scenarios`), the tenant classes
(:mod:`repro.workload.tenants`) and the service: it replays a
timestamped :class:`~repro.workload.scenarios.WorkloadItem` stream
open-loop (arrivals honor each item's ``t_offset`` regardless of
completions — the shape that builds real queues), stamping each
request with its tenant, and folds the responses into a
:class:`WorkloadReport` with the numbers an SLO conversation needs
per tenant: p50/p99 service latency, deadline hit-rate, quota sheds,
displacements, and the warm-reuse hit-rate that is the paper's whole
point (responses whose ``fact`` is in :data:`WARM_FACTS` — anything but
a cold ``DOFACT`` — over completed ones).

Works against both the in-process
:class:`~repro.service.server.SolveService` and the sharded
:class:`~repro.service.shard.router.ShardedSolveService` — the two
expose the same ``register_tenant``/``submit`` surface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.service.api import (
    DeadlineExceeded,
    QuotaExceeded,
    ServiceOverloaded,
    SolveRequest,
)

__all__ = ["TenantReport", "WorkloadReport", "run_workload"]

# responses that reused the pattern's prior analysis (anything but a
# cold DOFACT) — the reuse modes the REFACTORIZATION contract certifies
WARM_FACTS = frozenset({"SAME_PATTERN", "SAME_PATTERN_SAME_ROWPERM",
                        "FACTORED"})


@dataclass
class TenantReport:
    """Accumulated outcomes for one tenant (or the whole run)."""

    tenant: str = ""
    deadline: float | None = None      # the tier's budget, when known
    submitted: int = 0
    completed: int = 0                 # certified solves
    quota_shed: int = 0                # QuotaExceeded at admission
    overloaded: int = 0                # ServiceOverloaded (shed/displaced)
    expired: int = 0                   # DeadlineExceeded responses
    failed: int = 0                    # other errors / uncertified
    warm_hits: int = 0                 # completed with a warm fact mode
    latencies: list = field(default_factory=list)

    @property
    def admitted(self) -> int:
        return self.submitted - self.quota_shed - self.overloaded

    @property
    def warm_hit_rate(self) -> float:
        """Completed solves that reused the pattern's analysis."""
        return self.warm_hits / self.completed if self.completed else 0.0

    @property
    def deadline_hits(self) -> int:
        """Admitted requests answered certified within the tier budget
        (all certified answers count when no budget is known — the
        service already never answers past an explicit deadline)."""
        if self.deadline is None:
            return self.completed
        return sum(1 for lat in self.latencies if lat <= self.deadline)

    @property
    def deadline_hit_rate(self) -> float:
        """Deadline hits over *admitted* requests — quota sheds are the
        isolation mechanism working, not an SLO miss, so they stay out
        of the denominator (docs/WORKLOADS.md)."""
        return self.deadline_hits / self.admitted if self.admitted else 0.0

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    def row(self) -> dict:
        """One flat report row (what ``serve`` prints per tenant)."""
        return {
            "tenant": self.tenant,
            "deadline": self.deadline,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "quota_shed": self.quota_shed,
            "overloaded": self.overloaded,
            "expired": self.expired,
            "failed": self.failed,
            "warm_hit_rate": self.warm_hit_rate,
            "deadline_hit_rate": self.deadline_hit_rate,
            "p50_latency_seconds": self.percentile(50),
            "p99_latency_seconds": self.percentile(99),
        }


@dataclass
class WorkloadReport:
    """Per-tenant reports plus the all-traffic aggregate."""

    overall: TenantReport = field(default_factory=TenantReport)
    tenants: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def tenant(self, name: str) -> TenantReport:
        return self.tenants[name]

    def rows(self) -> list[dict]:
        out = [dict(self.overall.row(), tenant="<all>")]
        out.extend(self.tenants[name].row()
                   for name in sorted(self.tenants))
        return out


def run_workload(service, items, *, tenants=None, speed: float = 1.0,
                 deadline: float | None = None,
                 timeout: float = 300.0) -> WorkloadReport:
    """Replay ``items`` against ``service`` open-loop.

    Parameters
    ----------
    service:
        A started ``SolveService`` or ``ShardedSolveService``.
    items:
        The timestamped stream (:func:`repro.workload.scenarios.
        generate` / ``generate_all``), assumed sorted by ``t_offset``.
    tenants:
        :class:`~repro.workload.tenants.TenantSpec` list to register
        before driving (also seeds the report's deadline tiers).
    speed:
        Replay speed-up: item offsets are divided by this, so
        ``speed=10`` compresses a 10-second trace into one second.
    deadline:
        Explicit per-request deadline (seconds) stamped on every
        request; ``None`` leaves it to the tenant's deadline tier.
    timeout:
        Per-future collection timeout (seconds).
    """
    if speed <= 0:
        raise ValueError("speed must be > 0")
    report = WorkloadReport()
    tiers: dict[str, float | None] = {}
    if tenants:
        for spec in tenants:
            service.register_tenant(spec)
            tiers[spec.name] = getattr(spec, "deadline", None)

    def bucket(name: str) -> TenantReport:
        if name not in report.tenants:
            report.tenants[name] = TenantReport(tenant=name,
                                                deadline=tiers.get(name))
        return report.tenants[name]

    pending = []                       # (item, future)
    t_start = time.perf_counter()
    for item in items:
        delay = t_start + item.t_offset / speed - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        trs = [report.overall] + ([bucket(item.tenant)]
                                  if item.tenant else [])
        for tr in trs:
            tr.submitted += 1
        try:
            p = service.submit(SolveRequest(matrix=item.matrix, b=item.b,
                                            deadline=deadline,
                                            tenant=item.tenant))
        except QuotaExceeded:
            for tr in trs:
                tr.quota_shed += 1
            continue
        except ServiceOverloaded:
            for tr in trs:
                tr.overloaded += 1
            continue
        pending.append((item, p))

    for item, p in pending:
        resp = p.result(timeout)
        trs = [report.overall] + ([bucket(item.tenant)]
                                  if item.tenant else [])
        for tr in trs:
            if isinstance(resp.error, DeadlineExceeded):
                tr.expired += 1
            elif isinstance(resp.error, ServiceOverloaded):
                tr.overloaded += 1     # displaced after admission
            elif resp.ok:
                tr.completed += 1
                # service-side latency (admission → batch done): wall
                # time here would overstate early completions collected
                # late
                tr.latencies.append(resp.queued_seconds
                                    + resp.solve_seconds)
                if resp.fact in WARM_FACTS:
                    tr.warm_hits += 1
            else:
                tr.failed += 1
    report.elapsed = time.perf_counter() - t_start
    return report
