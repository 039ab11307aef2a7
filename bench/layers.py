"""Per-layer metrics: read the repo's stage spans from outside and fold
per-op readings into the names ``BENCHMARK.json`` lists.

A reading that is absent (a later refactor removed a span or counter, or
the layer does no work on this workload) yields ``None`` for that metric,
never an exception: end-to-end numbers must survive such changes.
"""

from __future__ import annotations

from statistics import median, quantiles

# The reference kernel's duration on this host when the baseline was
# recorded.  Calibrated seconds are seconds x REF_NOMINAL_S / (the
# reference kernel's duration measured beside the op).
REF_NOMINAL_S = 0.0016

# stage span of the serial driver -> layer metric (the repo's packages)
_STAGE = {"equil": "scaling.equil_s", "rowperm": "scaling.mc64_s",
          "colperm": "ordering.colperm_s", "symbolic": "symbolic.fill_s",
          "factor": "factor.numeric_s"}
_COUNTER = {"symbolic.fill_nnz": "symbolic.fill_nnz",
            "factor.flops": "factor.flops",
            "factor.tiny_pivots": "factor.tiny_pivots",
            "kernel.lu_calls": "kernels.lu_calls",
            "kernel.trsm_calls": "kernels.trsm_calls",
            "kernel.gemm_calls": "kernels.gemm_calls",
            "kernel.gemm_flops": "kernels.gemm_flops",
            "factor.reuse_hits": "driver.reuse_hits",
            "factor.reuse_misses": "driver.reuse_misses"}

# layers whose per-op times must add back up to the op's latency
_BUDGET = ("scaling.equil_s", "scaling.mc64_s", "ordering.colperm_s",
           "symbolic.fill_s", "sparse.permute_scale_s", "factor.numeric_s",
           "solve.solve_s", "dmem.refill_s", "pdgstrf.factor_s",
           "pdgstrs.solve_s")
_BUDGETED = ("cold_mix", "warm_newton", "dist_newton")

_SUMMED = ("symbolic.fill_nnz", "factor.flops", "factor.tiny_pivots",
           "kernels.lu_calls", "kernels.trsm_calls", "kernels.gemm_calls",
           "kernels.gemm_flops", "solve.refine_steps", "driver.reuse_hits",
           "driver.reuse_misses", "service.recovered", "dmem.msgs_sent",
           "dmem.bytes_sent")
_FACTS = {"service.share_dofact": "DOFACT",
          "service.share_same_pattern": "SAME_PATTERN",
          "service.share_factored": "FACTORED"}


def stage_layers(spans):
    """(times, counts) of one operation from the stage spans the public
    ``tracer=`` argument collected for it.  A stage marked
    ``reused=True`` only permutes and scales the new values, so its time
    belongs to ``sparse``, not to the analysis layer it is named after."""
    times, counts = {}, {}
    for top in spans:
        if top.name == "solve":
            times["solve.solve_s"] = top.duration
        elif top.name == "refactor":
            # a refactorization counts a hit or a miss; the counter it
            # did not bump reads 0, not "no reading"
            counts.update({"driver.reuse_hits": 0, "driver.reuse_misses": 0})
        for span in top.walk():
            layer = _STAGE.get(span.name)
            if layer is None:
                continue
            if span.attrs.get("reused"):
                layer = "sparse.permute_scale_s"
            times[layer] = times.get(layer, 0.0) + span.duration
        for name, value in top.all_counters().items():
            if name in _COUNTER:
                layer = _COUNTER[name]
                counts[layer] = counts.get(layer, 0) + value
    return times, counts


def flatten(op_id, start, end, spans):
    """The benchmark's own span for one op plus the repo spans beneath
    it, as ``{name, start, end, parent, op_id}`` rows (parent = index in
    the returned list, ``None`` for the op span)."""
    rows = [dict(name="op", start=start, end=end, parent=None, op_id=op_id)]

    def visit(span, parent):
        rows.append(dict(name=span.name, start=span.t_start, end=span.t_end,
                         parent=parent, op_id=op_id))
        index = len(rows) - 1
        for child in span.children:
            visit(child, index)

    for span in spans:
        visit(span, 0)
    return rows


def _median(values):
    values = [v for v in values if v is not None]
    return median(values) if values else None


def per_layer(workload, names, ops, untraced, extra, ref_s):
    """Every per-layer metric in ``names`` for one traced pass.

    ``ops`` are the traced ops as the worker reported them (dicts with
    ``pattern``/``latency``/``latency_cal``/``failed``/``converged``/
    ``times``/``counts``), ``untraced`` the same ops run without the
    tracer, ``extra`` the workload-level readings taken at close.  Layer
    times are raw seconds on this host (``host.ref_s`` says how fast it
    was); only ``obs.overhead_share`` compares calibrated latencies,
    because its two sides ran minutes apart."""
    good = [op for op in ops if not op["failed"]]
    out = dict.fromkeys(names)

    def times(layer):
        return [op["times"][layer] for op in good if layer in op["times"]]

    def total(key):
        found = [op["counts"][key] for op in good if key in op["counts"]]
        return sum(found) if found else None

    for layer in names:
        if layer in _SUMMED:
            out[layer] = total(layer)
        elif layer.startswith("caller.solve_s."):
            out[layer] = _median(op["latency"] for op in good
                                 if op["pattern"] == layer[15:])
        else:
            out[layer] = _median(times(layer))

    if workload in _BUDGETED:
        out["driver.remainder_s"] = _median(
            op["latency"] - sum(op["times"].get(k, 0.0) for k in _BUDGET)
            for op in good)
    out["driver.uncertified"] = sum(not op["converged"] for op in good)

    requests = total("requests")
    if requests:
        out["service.batch_width"] = total("batch_width") / requests
        for layer, fact in _FACTS.items():
            out[layer] = (total(fact) or 0) / requests
    out.update(extra)

    out["caller.ops"] = len(ops)
    out["caller.failed"] = len(ops) - len(good)
    out["caller.solve_raw_s"] = _median(op["latency"] for op in good)
    if len(good) >= 100:   # ten samples must lie beyond the percentile
        out["caller.solve_p90_s"] = quantiles(
            [op["latency"] for op in good], n=10)[-1]
    out["host.ref_s"] = ref_s
    with_tracer = _median(op["latency_cal"] for op in good)
    without = _median(op["latency_cal"] for op in untraced
                      if not op["failed"])
    if with_tracer and without:
        out["obs.overhead_share"] = with_tracer / without - 1.0
    return {name: out.get(name) for name in names}
