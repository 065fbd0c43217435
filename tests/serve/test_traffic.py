"""Traffic frontend tests: run determinism, the reactor loop, scheme
discrimination, the versioned report schema, and the KV service's
routing/lowering invariants."""

import hashlib
import json

import pytest

from repro.core.registry import ADR, BBB, EADR, canonical_name
from repro.serve import (TRAFFIC_SCHEMA_VERSION, KVService, TenantSpec,
                         TrafficSpec, iter_requests, render_curve,
                         run_traffic, traffic_curve,
                         validate_traffic_report)
from repro.serve.frontend import default_traffic_config

SPEC = TrafficSpec(requests=40, seed=7)
TWO_TENANTS = TrafficSpec(
    requests=40, seed=7,
    tenants=(TenantSpec("alpha", keys=128), TenantSpec("beta", keys=128)),
)
#: Small keyspaces and a write-heavy mix: long chains, update hits,
#: update misses that upsert, and fresh inserts on two tenants.
WRITE_HEAVY = TrafficSpec(
    requests=300, seed=5,
    tenants=(TenantSpec("w", keys=24, read_fraction=0.2,
                        update_fraction=0.5, insert_fraction=0.3),
             TenantSpec("v", weight=0.5, keys=12, read_fraction=0.4,
                        update_fraction=0.3, insert_fraction=0.3)),
)


# ----------------------------------------------------------------------
# run_traffic
# ----------------------------------------------------------------------

def test_run_traffic_is_deterministic():
    a = run_traffic(BBB, SPEC, entries=16)
    b = run_traffic(BBB, SPEC, entries=16)
    assert a.to_payload() == b.to_payload()
    assert a.completed == SPEC.requests
    assert a.latency["count"] == SPEC.requests
    assert a.latency["p50"] > 0
    assert a.latency["p50"] <= a.latency["p99"] <= a.latency["p999"]


def test_open_loop_latency_includes_queueing_delay():
    """Overload must show up in the tail: the same traffic at 50x the
    offered load completes sooner in wall-cycles but waits longer, in
    deeper queues."""
    relaxed = run_traffic(BBB, SPEC.with_load(0.05), entries=16)
    slammed = run_traffic(BBB, SPEC.with_load(50.0), entries=16)
    assert slammed.execution_cycles < relaxed.execution_cycles
    assert slammed.latency["p99"] > relaxed.latency["p99"]
    assert slammed.max_queue_depth > relaxed.max_queue_depth


def test_schemes_discriminate_on_latency():
    """pmem (ADR) pays flush+fence on the critical path; bbb does not."""
    bbb = run_traffic(BBB, SPEC, entries=16)
    adr = run_traffic(ADR, SPEC, entries=16)
    assert adr.scheme == canonical_name(ADR)
    # The mean is exact (the histogram only approximates quantiles), so
    # it is the robust discriminator at small request counts.
    assert adr.latency["mean_cycles"] > bbb.latency["mean_cycles"]
    assert adr.latency["p99"] > bbb.latency["p99"]


def test_per_tenant_and_per_op_breakdowns():
    point = run_traffic(BBB, TWO_TENANTS, entries=16)
    assert set(point.tenants) <= {"alpha", "beta"}
    assert sum(b["count"] for b in point.tenants.values()) == point.completed
    assert sum(b["count"] for b in point.ops.values()) == point.completed


# ----------------------------------------------------------------------
# KVService
# ----------------------------------------------------------------------

def _service(spec):
    cfg = default_traffic_config()
    return KVService(cfg.mem, spec, cfg.num_cores)


def test_routing_is_stable_and_in_range():
    service = _service(TWO_TENANTS)
    for request in iter_requests(TWO_TENANTS):
        core = service.core_of(request)
        assert 0 <= core < service.num_cores
        assert service.core_of(request) == core


def test_lowering_counts_persisting_stores():
    service = _service(SPEC)
    for request in iter_requests(SPEC):
        ops = service.ops_for(request)
        assert ops, "every request lowers to at least the parse/head ops"
    assert service.requests_lowered == SPEC.requests
    # The default mix has updates and inserts: something must persist.
    assert service.persisting_stores > 0


#: Per spec, the sha256 of every request's placement, lowered ops and
#: persisting footprint (see ``_lowering_digest``), recorded while every
#: serving op was still built per request and stores carried tags.
LOWERING_DIGESTS = {
    "spec": (
        SPEC,
        "0b5ab2eb83433f68a2a77bff63ad26967976b18869269080303b38e76fd22d38",
    ),
    "two_tenants": (
        TWO_TENANTS,
        "21c0556793ace3b7a1b0ffe4a350651947fd151cfcc487b71273eb876ef75def",
    ),
    "write_heavy": (
        WRITE_HEAVY,
        "8d80f71845998fcdfc2a137c255a02550ed3360e243562b958e4218077d80a69",
    ),
}


def _lowering_digest(spec):
    """Each request's core, then every op ``ops_for`` returns, in order,
    as ``(kind, addr, size, value, cycles)`` (tags excluded), then its
    ``persist_log`` entry."""
    service = _service(spec)
    service.enable_persist_log()
    records = []
    for request in iter_requests(spec):
        core = service.core_of(request)
        ops = [(op.kind.value, op.addr, op.size, op.value, op.cycles)
               for op in service.ops_for(request)]
        records.append([core, ops, service.persist_log[request.request_id]])
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(LOWERING_DIGESTS))
def test_lowering_matches_recorded_digest(name):
    """Pins the volatile parse-store values and the op order, which the
    timing goldens see only through cycles."""
    spec, digest = LOWERING_DIGESTS[name]
    assert _lowering_digest(spec) == digest


def test_reads_never_persist():
    spec = TrafficSpec(requests=30, seed=3, tenants=(
        TenantSpec("t", read_fraction=1.0, update_fraction=0.0,
                   insert_fraction=0.0),
    ))
    service = _service(spec)
    for request in iter_requests(spec):
        service.ops_for(request)
    assert service.persisting_stores == 0


# ----------------------------------------------------------------------
# traffic_curve + report schema
# ----------------------------------------------------------------------

def _report():
    return traffic_curve((BBB, EADR), SPEC, (1.0, 4.0), entries=16)


def test_curve_report_is_valid_and_json_round_trips():
    report = _report()
    assert report["schema"] == TRAFFIC_SCHEMA_VERSION
    assert report["schemes"] == [canonical_name(BBB), canonical_name(EADR)]
    validate_traffic_report(json.loads(json.dumps(report)))
    for name in report["schemes"]:
        loads = [e["offered_load"] for e in report["curves"][name]]
        assert loads == [1.0, 4.0]


def test_curve_accepts_aliases():
    report = traffic_curve((ADR,), SPEC, (1.0,), entries=16)
    assert report["schemes"] == [canonical_name(ADR)]


@pytest.mark.parametrize("mutate, fragment", [
    (lambda r: r.update(schema="repro.traffic/v0"), "schema"),
    (lambda r: r.pop("curves"), "curves"),
    (lambda r: r.update(points=[]), "points"),
    (lambda r: r["points"][0].pop("latency"), "latency"),
    (lambda r: r["points"][0]["latency"].pop("p999"), "p999"),
    (lambda r: r["points"][0].update(completed=10 ** 9), "completed"),
    (lambda r: r["curves"][canonical_name(BBB)][0].update(
        offered_load=123.0), "matching point"),
    (lambda r: r["points"][0].pop("max_queue_depth"), "max_queue_depth"),
])
def test_validation_names_the_broken_field(mutate, fragment):
    report = _report()
    mutate(report)
    with pytest.raises(ValueError, match=fragment):
        validate_traffic_report(report)


def test_render_curve_mentions_every_scheme():
    text = render_curve(_report())
    for name in (canonical_name(BBB), canonical_name(EADR)):
        assert f"{name}:" in text
    assert "p999" in text


def test_curve_rejects_empty_inputs():
    with pytest.raises(ValueError):
        traffic_curve((), SPEC, (1.0,))
    with pytest.raises(ValueError):
        traffic_curve((BBB,), SPEC, ())
