"""Unit tests for repro.obs: spans, counters, records, report."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.obs import (
    COUNTERS,
    NULL_TRACER,
    NullTracer,
    RunRecord,
    SCHEMA_VERSION,
    Tracer,
    add,
    annotate,
    counter_names,
    event,
    format_report,
    get_tracer,
    set_tracer,
    trace,
    use_tracer,
)
from repro.obs.counters import spec


# ------------------------------------------------------------------ #
# span nesting


def test_nested_spans_form_a_tree():
    t = Tracer()
    with t.span("a"):
        with t.span("b"):
            with t.span("c"):
                pass
        with t.span("d"):
            pass
    a = t.root.children[0]
    assert a.name == "a"
    assert [s.name for s in a.children] == ["b", "d"]
    assert [s.name for s in a.children[0].children] == ["c"]
    assert [s.name for s in t.root.walk()] == ["run", "a", "b", "c", "d"]


def test_current_tracks_the_stack():
    t = Tracer()
    assert t.current is t.root
    with t.span("a"):
        assert t.current.name == "a"
        with t.span("b"):
            assert t.current.name == "b"
        assert t.current.name == "a"
    assert t.current is t.root


def test_span_records_duration_and_attrs():
    clock_value = [0.0]

    def clock():
        clock_value[0] += 1.0
        return clock_value[0]

    t = Tracer(clock=clock)
    with t.span("work", stage="demo"):
        pass
    span = t.root.find("work")
    assert span.attrs["stage"] == "demo"
    assert span.duration == pytest.approx(1.0)


def test_span_pops_and_flags_on_exception():
    t = Tracer()
    with pytest.raises(ValueError):
        with t.span("bad"):
            raise ValueError("boom")
    assert t.current is t.root
    span = t.root.find("bad")
    assert span.t_end is not None
    assert span.attrs["error"] == "ValueError"


def test_find_and_find_all():
    t = Tracer()
    with t.span("x"):
        with t.span("leaf"):
            pass
    with t.span("leaf"):
        pass
    assert t.root.find("leaf") is not None
    assert len(t.root.find_all("leaf")) == 2
    assert t.root.find("missing") is None


def _assert_well_nested(span):
    """Every span of the subtree closed, and inside its parent's interval."""
    for child in span.children:
        assert child.t_end is not None
        assert span.t_start <= child.t_start <= child.t_end <= span.t_end
        _assert_well_nested(child)


def test_threads_sharing_a_traced_solver_keep_their_own_span_stacks():
    from repro.driver import GESPSolver
    from repro.matrices import matrix_by_name

    a = matrix_by_name("cfd01").build()
    b = a @ np.ones(a.ncols)
    tracer = Tracer()
    solver = GESPSolver(a, tracer=tracer, cache=False)
    builds = len(tracer.root.children)
    nthreads, rounds, errors = 4, 25, []

    def work():
        try:
            for _ in range(rounds):
                report = solver.solve(b)
                assert report.converged and np.allclose(report.x, 1.0)
        except Exception as exc:        # noqa: BLE001 — reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(nthreads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # each solve is a top-level span of its own: none opened inside
    # another thread's, every one closed and well nested
    solves = tracer.root.children[builds:]
    assert [s.name for s in solves] == ["solve"] * (nthreads * rounds)
    for span in solves:
        assert span.t_end is not None
        assert span.find_all("solve") == [span]
        _assert_well_nested(span)
    assert tracer.current is tracer.root


# ------------------------------------------------------------------ #
# counters


def test_counter_accumulation_across_nested_spans():
    t = Tracer()
    with t.span("outer"):
        t.add("factor.flops", 100)
        with t.span("inner"):
            t.add("factor.flops", 50)
            t.add("factor.tiny_pivots")
    outer = t.root.find("outer")
    assert outer.counters["factor.flops"] == 100
    assert outer.find("inner").counters["factor.flops"] == 50
    # total() aggregates over the whole subtree
    assert outer.total("factor.flops") == 150
    assert t.root.total("factor.tiny_pivots") == 1
    assert t.root.all_counters() == {"factor.flops": 150,
                                     "factor.tiny_pivots": 1}


def test_add_default_increment_is_one():
    t = Tracer()
    with t.span("s"):
        t.add("refine.steps")
        t.add("refine.steps")
    assert t.root.total("refine.steps") == 2


def test_events_are_ordered():
    t = Tracer()
    with t.span("refine"):
        for i, berr in enumerate([1e-2, 1e-9, 1e-16]):
            t.event("berr", step=i, berr=berr)
    ev = t.root.find("refine").events
    assert [e["step"] for e in ev] == [0, 1, 2]
    assert ev[-1]["berr"] == 1e-16


# ------------------------------------------------------------------ #
# ambient tracer & disabled path


def test_module_helpers_route_to_ambient_tracer():
    t = Tracer()
    with use_tracer(t):
        with trace("stage", kind="unit"):
            add("factor.flops", 7)
            annotate(extra=True)
            event("tick", i=0)
    span = t.root.find("stage")
    assert span.attrs == {"kind": "unit", "extra": True}
    assert span.counters == {"factor.flops": 7}
    (ev,) = span.events
    assert ev["name"] == "tick" and ev["i"] == 0


def test_use_tracer_restores_previous():
    t1, t2 = Tracer(), Tracer()
    with use_tracer(t1):
        assert get_tracer() is t1
        with use_tracer(t2):
            assert get_tracer() is t2
        assert get_tracer() is t1
    assert get_tracer() is NULL_TRACER


def test_disabled_tracer_is_a_no_op():
    assert get_tracer() is NULL_TRACER
    assert not NULL_TRACER.enabled
    # none of these should record (or allocate) anything
    with trace("stage"):
        add("factor.flops", 1)
        annotate(x=1)
        event("tick")
    with NULL_TRACER.span("direct"):
        NULL_TRACER.add("factor.flops", 1)
    with pytest.raises(RuntimeError):
        NULL_TRACER.record()


def test_null_tracer_span_context_is_shared():
    # the disabled path must not allocate a fresh context per span
    t = NullTracer()
    assert t.span("a") is t.span("b")


def test_set_tracer_returns_previous():
    t = Tracer()
    prev = set_tracer(t)
    try:
        assert prev is NULL_TRACER
        assert get_tracer() is t
    finally:
        set_tracer(prev)
    assert get_tracer() is NULL_TRACER


# ------------------------------------------------------------------ #
# RunRecord JSON round-trip


def _sample_record():
    t = Tracer()
    with t.span("factor", policy="gesp"):
        t.add("factor.flops", 1234)
        t.event("berr", step=0, berr=1e-8)
        with t.span("inner"):
            t.add("factor.tiny_pivots", 2)
    return t.record(matrix="demo", n=10)


def test_record_json_round_trip():
    rec = _sample_record()
    rt = RunRecord.from_json(rec.to_json())
    assert rt.to_dict() == rec.to_dict()
    assert rt.schema_version == SCHEMA_VERSION
    assert rt.meta == {"matrix": "demo", "n": 10}
    assert rt.total("factor.flops") == 1234
    assert rt.root.find("inner").counters["factor.tiny_pivots"] == 2


def test_record_dump_and_load(tmp_path):
    rec = _sample_record()
    path = tmp_path / "trace.json"
    rec.dump(path)
    loaded = RunRecord.load(path)
    assert loaded.to_dict() == rec.to_dict()
    # the file is plain JSON with the documented top-level keys
    raw = json.loads(path.read_text())
    assert set(raw) == {"schema_version", "meta", "root"}


def test_record_serializes_numpy_scalars():
    t = Tracer()
    with t.span("s", norm=np.float64(1.5), dims=np.array([2, 3])):
        t.add("factor.flops", np.int64(10))
    rec = t.record()
    raw = json.loads(rec.to_json())
    span = raw["root"]["children"][0]
    assert span["attrs"] == {"norm": 1.5, "dims": [2, 3]}
    assert span["counters"] == {"factor.flops": 10}


def test_record_span_helpers():
    rec = _sample_record()
    assert rec.span("factor").attrs["policy"] == "gesp"
    assert rec.span_seconds("factor") >= 0.0
    assert rec.counters()["factor.flops"] == 1234


# ------------------------------------------------------------------ #
# counter catalog & report


def test_counter_catalog_is_consistent():
    names = counter_names()
    assert len(names) == len(set(names)) == len(COUNTERS)
    for c in COUNTERS:
        assert spec(c.name) is c
        assert c.unit and c.where and c.description
        # dot-separated, package-prefixed names
        assert "." in c.name


def test_format_report_mentions_spans_and_counters():
    rec = _sample_record()
    text = format_report(rec)
    assert "factor" in text
    assert "inner" in text
    assert "factor.flops" in text
    assert "matrix=demo" in text
