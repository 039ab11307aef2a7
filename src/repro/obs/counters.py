"""The counter catalog: every typed counter the pipeline emits.

This is the single source of truth for counter names.  Instrumentation
sites reference these names (as plain strings, to keep the disabled-path
cost at zero), the docs lint (``scripts/check_docs.py``) checks that each
name is documented in ``docs/OBSERVABILITY.md``, and the tests check that
a full pipeline run emits a subset of this catalog.

Naming convention: ``<layer>.<metric>`` with dots, all lowercase —
distinct from span names, which use slashes (``factor/gesp``).  Units
are singular (``flop``, ``byte``, ``second``); ``second`` counters in the
``dmem`` namespace are *simulated* seconds (deterministic), everything
else counts discrete deterministic quantities.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["COUNTERS", "CounterSpec", "counter_names"]


class CounterSpec(NamedTuple):
    """One catalog entry: name, unit, emitting module(s), meaning."""

    name: str
    unit: str
    where: str
    description: str


COUNTERS = (
    CounterSpec(
        "scaling.mc64.matched", "column",
        "repro/scaling/mc64.py",
        "Columns matched to rows by the MC64 matching (= n on success)."),
    CounterSpec(
        "symbolic.fill_nnz", "nonzero",
        "repro/symbolic/fill.py",
        "nnz(L+U) of the static fill pattern, diagonal counted once."),
    CounterSpec(
        "symbolic.factor_flops", "flop",
        "repro/symbolic/fill.py",
        "Flops the numeric factorization will execute on the static "
        "pattern (predicted from the symbolic structure)."),
    CounterSpec(
        "factor.flops", "flop",
        "repro/factor/gesp.py, repro/factor/supernodal.py, "
        "repro/pdgstrf/factor2d.py",
        "Flops actually executed by the numeric factorization kernel "
        "(serial kernels count locally; the distributed kernel sums the "
        "simulator's per-rank flop counters)."),
    CounterSpec(
        "factor.tiny_pivots", "pivot",
        "repro/factor/gesp.py, repro/factor/supernodal.py, "
        "repro/pdgstrf/factor2d.py",
        "Tiny pivots replaced by the static-pivoting safeguard "
        "(paper step (3))."),
    CounterSpec(
        "solve.flops", "flop",
        "repro/pdgstrs/driver.py",
        "Flops of the distributed forward+back substitution."),
    CounterSpec(
        "refine.steps", "step",
        "repro/solve/refine.py",
        "Iterative-refinement corrections applied after the initial "
        "solve (paper step (4)); a multi-RHS block adds the sum over its "
        "columns.  Note the paper's Figure 3 counts the "
        "initial solve's convergence check as one step, so its axis is "
        "this counter + 1 (RefinementResult.figure3_steps)."),
    CounterSpec(
        "factor.reuse_hits", "factorization",
        "repro/driver/pipeline.py",
        "Factorizations that reused a same-pattern plan (cached column "
        "ordering + symbolic analysis, and for "
        "SAME_PATTERN_SAME_ROWPERM also the row permutation and "
        "scalings; the distributed driver additionally reuses the "
        "partition, layout, and comm schedule)."),
    CounterSpec(
        "factor.reuse_misses", "factorization",
        "repro/driver/pipeline.py",
        "Reuse-mode factorizations that fell back to a cold analysis: "
        "nothing cached for the pattern yet, or the recomputed MC64 row "
        "permutation no longer matched the plan under SAME_PATTERN."),
    CounterSpec(
        "dmem.msgs_sent", "message",
        "repro/dmem/simulator.py",
        "Physical messages sent across all ranks of one simulation "
        "(a logical send with count=c counts as c messages, matching "
        "the index[]/nzval[] split of the paper's data structure)."),
    CounterSpec(
        "dmem.bytes_sent", "byte",
        "repro/dmem/simulator.py",
        "Payload bytes moved across all ranks of one simulation."),
    CounterSpec(
        "dmem.wait_time", "second (simulated)",
        "repro/dmem/simulator.py",
        "Total time ranks spent blocked in Recv waiting for a message "
        "(summed over ranks; per-rank values are in the dmem/simulate "
        "span's per_rank attribute)."),
    CounterSpec(
        "dmem.compute_time", "second (simulated)",
        "repro/dmem/simulator.py",
        "Total time ranks spent in Compute ops (summed over ranks)."),
    CounterSpec(
        "dmem.msgs_dropped", "message",
        "repro/dmem/simulator.py",
        "Messages destroyed in transit by an active fault plan "
        "(drop rules plus probabilistic drops; count=c sends count as "
        "c messages, like dmem.msgs_sent)."),
    CounterSpec(
        "dmem.msgs_duplicated", "message",
        "repro/dmem/simulator.py",
        "Extra message copies injected by an active fault plan "
        "(duplicates share the original's msg_id so receivers can "
        "deduplicate)."),
    CounterSpec(
        "dmem.recv_timeouts", "timeout",
        "repro/dmem/simulator.py",
        "Receive operations that gave up at their deadline instead of "
        "delivering a message (each retry of recv_with_retry counts "
        "once)."),
    CounterSpec(
        "dmem.wall_seconds", "second (wall)",
        "repro/dmem/simulator.py",
        "Real host wall-clock seconds for one executor run, distinct "
        "from the simulated clock: the simulator's event loop (or "
        "static sweep) time, or the process executor's spawn-to-join time."),
    CounterSpec(
        "kernel.lu_calls", "call",
        "repro/kernels.py",
        "Dense diagonal-block LU factorizations executed (lu_nopivot + "
        "lu_partial): a KernelStats delta, published by the "
        "kernel_counters context around each factorization."),
    CounterSpec(
        "kernel.trsm_calls", "call",
        "repro/kernels.py",
        "Dense triangular panel solves executed (trsm_upper + "
        "trsm_lower_unit)."),
    CounterSpec(
        "kernel.gemm_calls", "call",
        "repro/kernels.py",
        "Dense rank-b update products (gemm_update) executed."),
    CounterSpec(
        "kernel.gemm_flops", "flop",
        "repro/kernels.py",
        "Flops of the gemm_update products alone (2·m·k·n per call) — "
        "the Schur-complement share of factor.flops."),
    CounterSpec(
        "kernel.lu_lapack", "block", "repro/kernels.py",
        "Diagonal blocks lu_nopivot kept dgetrf's factors for: no row "
        "interchange, no pivot below the tiny-pivot threshold."),
    CounterSpec(
        "kernel.lu_fallbacks", "block", "repro/kernels.py",
        "Diagonal blocks dgetrf was tried on and rejected, so the loop "
        "factored them."),
    CounterSpec(
        "cache.hits", "lookup",
        "repro/driver/factcache.py",
        "FactorizationCache lookups that returned a stored PatternPlan "
        "(a factorization reused a cached analysis instead of paying "
        "for a cold one)."),
    CounterSpec(
        "cache.misses", "lookup",
        "repro/driver/factcache.py",
        "FactorizationCache lookups that found nothing under the plan "
        "key (the pattern had not been analyzed yet, or its plan was "
        "evicted)."),
    CounterSpec(
        "cache.evictions", "plan",
        "repro/driver/factcache.py",
        "PatternPlans dropped by the cache's LRU bound; an evicted "
        "pattern costs a fresh cold analysis on its next request."),
    CounterSpec(
        "service.requests", "request",
        "repro/service/server.py",
        "Solve requests admitted into the service queue (rejected "
        "requests are counted by service.rejected_overload and "
        "service.deadline_expired instead)."),
    CounterSpec(
        "service.batched", "batch",
        "repro/service/server.py",
        "Coalesced batches the service thread executed (each batch is "
        "one factorization — cold or same-pattern — plus one multi-RHS "
        "solve)."),
    CounterSpec(
        "service.coalesce_width", "request",
        "repro/service/server.py",
        "Summed width of executed batches; divided by service.batched "
        "it gives the mean coalescing width (1.0 = no request ever "
        "shared a factorization)."),
    CounterSpec(
        "service.rejected_overload", "request",
        "repro/service/server.py",
        "Requests shed at admission because the bounded queue was full "
        "(backpressure: the caller sees ServiceOverloaded, memory "
        "stays bounded)."),
    CounterSpec(
        "service.deadline_expired", "request",
        "repro/service/server.py",
        "Requests rejected with DeadlineExceeded because their "
        "deadline passed while queued (evicted at admission pressure "
        "or at dispatch, never solved late silently)."),
    CounterSpec(
        "service.recovered", "solve",
        "repro/service/server.py",
        "Batch members whose block solve failed or did not converge "
        "— after a re-anchor, where the anchor was stale — and that "
        "were then certified individually by the recovery ladder."),
    CounterSpec(
        "service.reanchored", "pattern",
        "repro/service/server.py",
        "Re-anchors: a batch had a column its berr certificate rejected "
        "on an anchor (perm_r, Dr, Dc, perm_c, value map) matched on "
        "other values, so the pattern was re-matched on the batch's "
        "values by one SAME_PATTERN refactorization and those columns "
        "solved again.  0 on a healthy stream; each one costs an MC64 "
        "pass, plus a cold analysis when factor.reuse_misses moved too."),
    CounterSpec(
        "service.fact_dofact", "request",
        "repro/service/server.py",
        "Answers (responses carrying a report) produced by a cold "
        "factorization: SolveResponse.fact == 'DOFACT'."),
    CounterSpec(
        "service.fact_same_rowperm", "request",
        "repro/service/server.py",
        "Answers produced by the warm path — new values refactored on "
        "the pattern's anchor, no equilibration or matching: "
        "SolveResponse.fact == 'SAME_PATTERN_SAME_ROWPERM'."),
    CounterSpec(
        "service.fact_same_pattern", "request",
        "repro/service/server.py",
        "Answers solved again after a re-anchor: SolveResponse.fact == "
        "'SAME_PATTERN' (see service.reanchored)."),
    CounterSpec(
        "service.fact_factored", "request",
        "repro/service/server.py",
        "Answers produced from resident factors of the same values, "
        "nothing refactored: SolveResponse.fact == 'FACTORED'."),
    CounterSpec(
        "service.tenant_requests", "request",
        "repro/service/server.py",
        "Requests submitted under a registered tenant (counted before "
        "quota/priority resolution; quota sheds are included here and "
        "also counted by service.tenant_quota_shed).  Emitted by "
        "the FrontDoor of whichever tier a request meets first: the "
        "in-process service, or the sharded router."),
    CounterSpec(
        "service.tenant_quota_shed", "request",
        "repro/service/server.py",
        "Requests shed at admission because the tenant's token-bucket "
        "quota was dry (the caller sees QuotaExceeded; the bucket is "
        "global per tenant, enforced at the router in the sharded "
        "tier)."),
    CounterSpec(
        "service.tenant_displaced", "request",
        "repro/service/server.py",
        "Queued requests of a registered tenant displaced from a full "
        "admission queue by a strictly higher-priority arrival (the "
        "displaced caller sees ServiceOverloaded)."),
    CounterSpec(
        "service.shard.requests", "request",
        "repro/service/shard/router.py",
        "Requests admitted and routed by the sharded tier's front-end "
        "router (rejections are counted by "
        "service.shard.rejected_overload instead)."),
    CounterSpec(
        "service.shard.completed", "request",
        "repro/service/shard/router.py",
        "Responses delivered back to callers by the response pump "
        "(success or structured error; requests failed by a shard "
        "death are not completed by the pump and show up in "
        "service.shard.deaths instead)."),
    CounterSpec(
        "service.shard.rejected_overload", "request",
        "repro/service/shard/router.py",
        "Requests shed by per-shard admission control: the routed "
        "shard's in-flight window was full (the ServiceOverloaded "
        "error names the shard; other shards keep admitting)."),
    CounterSpec(
        "service.shard.deaths", "death",
        "repro/service/shard/router.py",
        "Worker processes the liveness monitor found dead; each death "
        "fails that shard's in-flight requests with ShardDied."),
    CounterSpec(
        "service.shard.respawns", "process",
        "repro/service/shard/router.py",
        "Dead worker processes respawned by the monitor (registered "
        "matrices are replayed; the spool makes the respawn warm)."),
    CounterSpec(
        "service.shard.spool_loaded", "plan",
        "repro/service/shard/router.py",
        "PatternPlans shard workers preloaded from the warm-start "
        "spool at (re)start — factorizations that will skip DOFACT."),
    CounterSpec(
        "service.shard.spool_saved", "plan",
        "repro/service/shard/router.py",
        "PatternPlans shard workers persisted to the warm-start spool "
        "(new plans only; already-spooled keys are skipped)."),
    CounterSpec(
        "spool.load_skipped", "file",
        "repro/service/shard/spool.py",
        "Spooled plan files skipped by load_plans (unreadable/torn "
        "pickle, wrong schema, or key mismatch); each load also issues "
        "one SpoolSkipWarning naming the files, so a wiped or "
        "incompatible warm-start spool is diagnosable instead of just "
        "slow."),
    CounterSpec(
        "workload.scenarios", "scenario",
        "repro/workload/scenarios.py",
        "Scenario streams generated (one per ScenarioSpec expanded by "
        "generate / generate_all)."),
    CounterSpec(
        "workload.steps", "step",
        "repro/workload/scenarios.py",
        "Outer transient/continuation steps generated across scenarios "
        "(each step re-drifts the matrix values on the fixed pattern)."),
    CounterSpec(
        "workload.requests", "request",
        "repro/workload/scenarios.py",
        "WorkloadItems emitted by the generators (steps x Newton "
        "iterations; each becomes one SolveRequest when replayed)."),
    CounterSpec(
        "catalog.ingested", "matrix",
        "repro/workload/catalog.py",
        "Collection files ingested into the pattern catalog (entry "
        "written, normalized .mtx.gz copy stored, plan spooled unless "
        "disabled or structurally singular)."),
    CounterSpec(
        "catalog.skipped", "file",
        "repro/workload/catalog.py",
        "Candidate files skipped by ingestion with a recorded reason "
        "(parse failure, non-square, or other per-file error; the walk "
        "never aborts)."),
    CounterSpec(
        "recovery.attempts", "rung",
        "repro/recovery/ladder.py",
        "Recovery-ladder rungs attempted (the baseline GESP solve "
        "counts as the first rung)."),
    CounterSpec(
        "recovery.rescues", "solve",
        "repro/recovery/ladder.py",
        "Solves certified by a rung above the baseline — the ladder "
        "rescued a solve plain GESP could not certify."),
    CounterSpec(
        "recovery.failures", "solve",
        "repro/recovery/ladder.py",
        "Solves the ladder could not certify after exhausting every "
        "rung (the report carries the failure diagnosis)."),
)

_BY_NAME = {c.name: c for c in COUNTERS}


def counter_names():
    """All public counter names, in catalog order."""
    return [c.name for c in COUNTERS]


def spec(name):
    """Catalog entry for ``name`` (KeyError if unknown)."""
    return _BY_NAME[name]
