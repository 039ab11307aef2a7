"""repro.workload: seeded generators, catalog ingestion, tenant SLOs."""

import json

import numpy as np
import pytest

from repro.matrices import matrix_by_name
from repro.service import (
    QuotaExceeded,
    ServiceConfig,
    ServiceOverloaded,
    SolveRequest,
    SolveService,
)
from repro.sparse import write_harwell_boeing, write_matrix_market
from repro.workload import (
    SCENARIOS,
    ScenarioSpec,
    TenantSpec,
    catalog_matrices,
    generate,
    generate_all,
    ingest_directory,
    load_catalog,
    parse_tenants,
    parse_workload,
    run_workload,
    stream_digest,
)

WARM = {"SAME_PATTERN", "SAME_PATTERN_SAME_ROWPERM", "FACTORED"}


# --------------------------------------------------------------------- #
# scenario generators: determinism and shape
# --------------------------------------------------------------------- #

def test_same_seed_is_bit_identical():
    spec = ScenarioSpec(scenario="pseudo_transient_cfd", steps=5,
                        arrival="diurnal", seed=42)
    one, two = generate(spec), generate(spec)
    assert stream_digest(one) == stream_digest(two)
    for a, b in zip(one, two):
        assert a.t_offset == b.t_offset
        assert (a.matrix.nzval == b.matrix.nzval).all()
        assert (a.b == b.b).all()


def test_different_seeds_differ():
    d0 = stream_digest(generate(ScenarioSpec(steps=3, seed=0)))
    d1 = stream_digest(generate(ScenarioSpec(steps=3, seed=1)))
    assert d0 != d1


def test_pattern_is_fixed_while_values_drift():
    base = matrix_by_name("circuit01").build()
    items = generate(ScenarioSpec(scenario="transient_circuit", steps=4,
                                  seed=3))
    for item in items:
        assert (item.matrix.colptr == base.colptr).all()
        assert (item.matrix.rowind == base.rowind).all()
    # transient_circuit: iterations *within* a step share values,
    # consecutive steps drift
    by_step = {}
    for item in items:
        by_step.setdefault(item.step, []).append(item.matrix.nzval)
    for vals in by_step.values():
        for v in vals[1:]:
            assert (v == vals[0]).all()
    assert not (by_step[0][0] == by_step[1][0]).all()


def test_newton_drift_changes_every_request():
    items = generate(ScenarioSpec(scenario="newton_drift", seed=5,
                                  newton_iters=4))
    assert len(items) == 4
    for a, b in zip(items, items[1:]):
        assert not (a.matrix.nzval == b.matrix.nzval).all()


def test_arrival_processes():
    burst = generate(ScenarioSpec(steps=2, arrival="burst", seed=0))
    assert all(i.t_offset == 0.0 for i in burst)
    for arrival in ("poisson", "bursty", "diurnal"):
        items = generate(ScenarioSpec(steps=4, arrival=arrival, seed=0))
        offs = [i.t_offset for i in items]
        assert offs[0] == 0.0
        assert offs == sorted(offs)
    # bursty: a whole step's iterations arrive at the same instant
    bursty = generate(ScenarioSpec(steps=4, arrival="bursty", seed=0))
    for item in bursty:
        step_offs = {i.t_offset for i in bursty if i.step == item.step}
        assert len(step_offs) == 1


def test_generate_all_merges_sorted_and_deterministic():
    specs = [ScenarioSpec(steps=3, tenant="a", seed=1),
             ScenarioSpec(scenario="newton_drift", tenant="b", seed=2)]
    merged = generate_all(specs)
    offs = [i.t_offset for i in merged]
    assert offs == sorted(offs)
    assert {i.tenant for i in merged} == {"a", "b"}
    assert stream_digest(merged) == stream_digest(generate_all(specs))


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown scenario"):
        ScenarioSpec(scenario="nope").resolved()
    with pytest.raises(ValueError, match="unknown arrival"):
        ScenarioSpec(arrival="nope").resolved()
    with pytest.raises(ValueError, match="steps"):
        ScenarioSpec(steps=0).resolved()
    with pytest.raises(ValueError, match="rate"):
        ScenarioSpec(rate=0).resolved()
    # defaults fill in from the catalog; overrides stick
    spec = ScenarioSpec(scenario="pseudo_transient_cfd", drift=0.5)
    r = spec.resolved()
    assert r.drift == 0.5
    assert r.decay == SCENARIOS["pseudo_transient_cfd"]["decay"]


def test_parse_workload_document():
    doc = {"schema": "workload/v1",
           "scenarios": [{"scenario": "newton_drift", "seed": 9}]}
    specs = parse_workload(doc)
    assert specs[0].newton_iters == 40      # defaults resolved
    with pytest.raises(ValueError, match="schema"):
        parse_workload({"schema": "workload/v2", "scenarios": []})
    with pytest.raises(ValueError, match="unknown fields"):
        parse_workload({"schema": "workload/v1",
                        "scenarios": [{"scnario": "typo"}]})
    with pytest.raises(ValueError, match="no scenarios"):
        parse_workload({"schema": "workload/v1", "scenarios": []})


def test_parse_tenants_document():
    doc = {"schema": "tenants/v1",
           "tenants": [{"name": "a", "priority": 3, "deadline": 1.0},
                       {"name": "b", "quota_rps": 10}]}
    specs = parse_tenants(doc)
    assert specs[0].priority == 3 and specs[1].quota_rps == 10
    with pytest.raises(ValueError, match="duplicate"):
        parse_tenants({"schema": "tenants/v1",
                       "tenants": [{"name": "a"}, {"name": "a"}]})
    with pytest.raises(ValueError, match="unknown fields"):
        parse_tenants({"schema": "tenants/v1",
                       "tenants": [{"name": "a", "color": "red"}]})
    with pytest.raises(ValueError, match="burst"):
        TenantSpec(name="a", quota_rps=5, quota_burst=0.5).validate()


# --------------------------------------------------------------------- #
# multi-tenant SLOs against the live service
# --------------------------------------------------------------------- #

def test_quota_sheds_with_structured_error():
    a = matrix_by_name("circuit01").build()
    b = np.ones(a.ncols)
    with SolveService() as svc:
        svc.register_tenant(TenantSpec(name="metered", quota_rps=1e-6,
                                       quota_burst=1.0))
        first = svc.submit(SolveRequest(matrix=a, b=b, tenant="metered"))
        with pytest.raises(QuotaExceeded) as exc:
            svc.submit(SolveRequest(matrix=a, b=b, tenant="metered"))
        assert exc.value.tenant == "metered"
        assert first.result(60.0).ok
        counts = svc.stats()["tenants"]["metered"]
        assert counts["requests"] == 2
        assert counts["quota_shed"] == 1


def test_flooder_does_not_starve_high_priority_tenant():
    """Fairness: a low-priority tenant flooding the queue must not push
    the high-priority tenant past its deadline tier — VIP requests
    displace queued flood, are never shed, and all certify in time."""
    flood_matrix = matrix_by_name("circuit02").build()
    vip_matrix = matrix_by_name("circuit01").build()
    cfg = ServiceConfig(queue_capacity=4, max_batch=1, batch_window=0.0)
    with SolveService(cfg) as svc:
        svc.register_tenant(TenantSpec(name="flood", priority=0))
        svc.register_tenant(TenantSpec(name="vip", priority=10,
                                       deadline=60.0))
        flood_futures = []
        flood_shed = 0
        b = np.ones(flood_matrix.ncols)
        for _ in range(30):
            try:
                flood_futures.append(svc.submit(SolveRequest(
                    matrix=flood_matrix, b=b, tenant="flood")))
            except ServiceOverloaded:
                flood_shed += 1
        assert flood_shed > 0              # the queue really was full
        vip_futures = [svc.submit(SolveRequest(
            matrix=vip_matrix, b=np.ones(vip_matrix.ncols),
            tenant="vip")) for _ in range(4)]

        vip_responses = [f.result(120.0) for f in vip_futures]
        assert all(r.ok for r in vip_responses)
        latencies = [r.queued_seconds + r.solve_seconds
                     for r in vip_responses]
        assert max(latencies) < 60.0       # inside the deadline tier

        flood_responses = [f.result(120.0) for f in flood_futures]
        displaced = [r for r in flood_responses
                     if isinstance(r.error, ServiceOverloaded)]
        assert len(displaced) == 4         # one per displacing VIP
        tstats = svc.stats()["tenants"]
        assert tstats["vip"]["displaced"] == 0
        assert tstats["vip"]["quota_shed"] == 0
        assert tstats["flood"]["displaced"] == 4


def test_run_workload_report_accounting():
    items = generate(ScenarioSpec(scenario="transient_circuit", steps=5,
                                  arrival="burst", tenant="t", seed=11))
    cfg = ServiceConfig(batch_window=0.002, max_batch=16)
    with SolveService(cfg) as svc:
        rep = run_workload(svc, items, tenants=[TenantSpec(name="t")],
                           speed=10.0)
    assert rep.overall.submitted == len(items)
    assert rep.overall.completed == len(items)
    assert rep.overall.failed == 0
    tr = rep.tenant("t")
    assert tr.completed == len(items)
    assert len(tr.latencies) == tr.completed
    row = tr.row()
    assert row["warm_hit_rate"] == tr.warm_hit_rate
    assert rep.rows()[0]["tenant"] == "<all>"
    assert rep.overall.warm_hit_rate > 0.5  # only the first batch is cold


# the two SLO floors a production story needs, on seeded streams
# (docs/WORKLOADS.md); replayed at 4x like the rows EXPERIMENTS.md quotes
SLO_SEED = 20260808


def _slo_service():
    return SolveService(ServiceConfig(batch_window=0.002, max_batch=16))


def test_bursty_transient_stream_is_answered_from_warm_state():
    """Newton iterations arriving a time step at a time: at least 90 %
    of completed solves reuse the pattern's analysis (never a repeat
    ``DOFACT``), and none fails."""
    items = generate(ScenarioSpec(
        scenario="transient_circuit", matrix="circuit01", steps=15,
        arrival="bursty", rate=150.0, tenant="sim", seed=SLO_SEED))
    with _slo_service() as svc:
        rep = run_workload(svc, items, tenants=[TenantSpec(name="sim")],
                           speed=4.0)
    assert rep.overall.completed == len(items) == 45
    assert rep.overall.failed == 0
    assert rep.overall.warm_hit_rate >= 0.90, rep.rows()


def test_interactive_tier_keeps_its_deadlines_while_batch_is_shed():
    """Tenant isolation: the priority-10, 5-second-tier tenant keeps a
    >= 99 % deadline hit-rate, unshed, while a batch tenant arriving far
    above its 50/s token bucket is shed by quota."""
    tenants = [
        TenantSpec(name="interactive", priority=10, deadline=5.0),
        TenantSpec(name="batch", priority=0, quota_rps=50.0,
                   quota_burst=5.0),
    ]
    items = generate_all([
        ScenarioSpec(scenario="transient_circuit", matrix="circuit01",
                     steps=12, arrival="poisson", rate=150.0,
                     tenant="interactive", seed=SLO_SEED),
        # the flooder: a fresh Newton iterate per request
        ScenarioSpec(scenario="newton_drift", matrix="circuit02",
                     newton_iters=60, arrival="poisson", rate=2000.0,
                     tenant="batch", seed=SLO_SEED + 1),
    ])
    with _slo_service() as svc:
        rep = run_workload(svc, items, tenants=tenants, speed=4.0)
    inter, batch = rep.tenant("interactive"), rep.tenant("batch")
    assert inter.failed == 0 and inter.quota_shed == 0, rep.rows()
    assert batch.quota_shed > 0, rep.rows()    # the quota really shed load
    assert inter.deadline_hit_rate >= 0.99, rep.rows()


def test_tenant_deadline_tier_fills_missing_deadline():
    a = matrix_by_name("circuit01").build()
    with SolveService() as svc:
        svc.register_tenant(TenantSpec(name="tier", deadline=45.0))
        resp = svc.submit(SolveRequest(matrix=a, b=np.ones(a.ncols),
                                       tenant="tier")).result(60.0)
        assert resp.ok
        # an explicit request deadline still wins over the tier default
        resp2 = svc.submit(SolveRequest(matrix=a, b=np.ones(a.ncols),
                                        tenant="tier",
                                        deadline=30.0)).result(60.0)
        assert resp2.ok


# --------------------------------------------------------------------- #
# catalog ingestion
# --------------------------------------------------------------------- #

@pytest.fixture
def collection_dir(tmp_path):
    src = tmp_path / "drop"
    src.mkdir()
    write_matrix_market(matrix_by_name("circuit01").build(),
                        src / "circuit01.mtx.gz")
    write_harwell_boeing(matrix_by_name("gen01").build(),
                        src / "gen01.rua")
    (src / "notes.txt").write_text("not a matrix")
    (src / "broken.mtx").write_text("%%MatrixMarket matrix coordinate "
                                    "real general\n2 2 1\n1 1 junk\n")
    return src


def test_ingest_directory_builds_catalog(collection_dir, tmp_path):
    cat = tmp_path / "cat"
    doc = ingest_directory(collection_dir, cat)
    assert doc["schema"] == "catalog/v1"
    names = [e["name"] for e in doc["entries"]]
    assert names == ["circuit01", "gen01"]
    for entry in doc["entries"]:
        assert entry["plan_spooled"] is True
        assert entry["n"] > 0 and entry["nnz"] > 0
        assert len(entry["fingerprint"]) > 0
    # the broken file is skipped with a reason, the txt file ignored
    assert [s["source"] for s in doc["skipped"]] == ["broken.mtx"]
    assert doc["skipped"][0]["reason"]
    # plans landed in the spool, normalized copies on disk
    assert list((cat / "plans").glob("*.pkl"))
    assert (cat / "matrices" / "circuit01.mtx.gz").is_file()
    assert load_catalog(cat)["entries"] == doc["entries"]


def test_ingest_is_idempotent(collection_dir, tmp_path):
    cat = tmp_path / "cat"
    one = ingest_directory(collection_dir, cat)
    two = ingest_directory(collection_dir, cat)
    assert [e["name"] for e in two["entries"]] == \
        [e["name"] for e in one["entries"]]


def test_ingest_without_plans(collection_dir, tmp_path):
    cat = tmp_path / "cat"
    doc = ingest_directory(collection_dir, cat, plans=False)
    assert all(e["plan_spooled"] is False for e in doc["entries"])
    assert not (cat / "plans").exists()


def test_catalog_matrices_roundtrip_bit_exact(collection_dir, tmp_path):
    cat = tmp_path / "cat"
    ingest_directory(collection_dir, cat, plans=False)
    got = dict(catalog_matrices(cat))
    orig = matrix_by_name("circuit01").build()
    assert (got["circuit01"].nzval == orig.nzval).all()
    assert (got["circuit01"].rowind == orig.rowind).all()


def test_load_catalog_schema_check(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_catalog(tmp_path)
    assert load_catalog(tmp_path, missing_ok=True) is None
    (tmp_path / "catalog.json").write_text(json.dumps({"schema": "x"}))
    with pytest.raises(ValueError, match="schema"):
        load_catalog(tmp_path)


def test_ingest_rejects_non_directory(tmp_path):
    with pytest.raises(NotADirectoryError):
        ingest_directory(tmp_path / "missing", tmp_path / "cat")


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #

def test_cli_ingest_and_workload_serve(collection_dir, tmp_path, capsys):
    from repro.__main__ import main

    cat = tmp_path / "cat"
    assert main(["ingest", str(collection_dir), "--catalog", str(cat),
                 "--no-plans"]) == 0
    out = capsys.readouterr().out
    assert "circuit01" in out and "skipped" in out

    wl = tmp_path / "wl.json"
    wl.write_text(json.dumps({
        "schema": "workload/v1",
        "scenarios": [{"scenario": "transient_circuit", "steps": 4,
                       "arrival": "burst", "tenant": "sim", "seed": 1}]}))
    tn = tmp_path / "tenants.json"
    tn.write_text(json.dumps({
        "schema": "tenants/v1",
        "tenants": [{"name": "sim", "priority": 1}]}))
    assert main(["serve", "--workload", str(wl), "--tenants", str(tn),
                 "--catalog", str(cat), "--speed", "50"]) == 0
    out = capsys.readouterr().out
    assert "sim" in out and "dl-hit" in out
