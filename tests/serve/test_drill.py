"""Crash-recovery drill tests: crash-point counting, per-request
durability accounting, the RPO gate on battery-domain schemes, mutant
detection, report schema validation, and determinism."""

import json

import pytest

from repro.core.recovery import (
    ACKED_DURABLE,
    ACKED_LOST,
    REQUEST_OUTCOMES,
    UNACKED_LOST,
)
from repro.core.registry import BBB, EADR, canonical_name
from repro.serve import (
    DRILL_SCHEMA,
    DrillUnit,
    TrafficSpec,
    count_crash_sites,
    execute_drill_unit,
    run_drills,
    validate_drill_report,
)

SPEC = TrafficSpec(requests=36, seed=7, offered_load=2.0)


# ----------------------------------------------------------------------
# Crash-point counting
# ----------------------------------------------------------------------

def test_count_crash_sites_is_positive_and_stable():
    a = count_crash_sites(BBB, SPEC, entries=8)
    b = count_crash_sites(BBB, SPEC, entries=8)
    assert a == b
    assert a > SPEC.requests, "every request lowers to several engine ops"


def test_crash_sites_are_scheme_independent():
    """Requests lower identically everywhere, so one count serves a
    whole scheme sweep (the shared-crash-point design assumption)."""
    assert count_crash_sites(BBB, SPEC, entries=8) == \
        count_crash_sites(EADR, SPEC, entries=8)


# ----------------------------------------------------------------------
# Single drill units
# ----------------------------------------------------------------------

def _unit(scheme=BBB, visit=None, mutant=""):
    if visit is None:
        visit = count_crash_sites(BBB, SPEC, entries=8) // 2
    name = canonical_name(scheme) if not mutant else scheme
    return execute_drill_unit(
        DrillUnit(scheme=name, spec=SPEC, crash_visit=visit, entries=8,
                  mutant=mutant)
    )


def test_bbb_unit_crashes_and_loses_nothing_acked():
    unit = _unit(BBB)
    assert unit["crashed"]
    assert unit["battery_domain"]
    assert unit["contract_consistent"]
    assert unit["outcomes"][ACKED_LOST] == 0
    assert unit["rpo"]["acked_lost_requests"] == 0
    assert unit["rpo"]["acked_lost_bytes"] == 0


def test_unit_accounts_for_every_request():
    unit = _unit(BBB)
    covered = sum(unit["outcomes"].values())
    assert covered == SPEC.requests
    assert set(unit["outcomes"]) == set(REQUEST_OUTCOMES)
    assert unit["outcomes"][ACKED_DURABLE] == \
        unit["acked"] - unit["outcomes"][ACKED_LOST]


def test_rto_legs_are_populated():
    unit = _unit(BBB)
    rto = unit["rto"]
    assert rto["repair_cycles"] > 0, "recovery always walks the chains"
    assert rto["restart_cycles"] > 0, "a mid-run crash leaves work"
    assert rto["total_cycles"] == (rto["drain_cycles"]
                                   + rto["repair_cycles"]
                                   + rto["restart_cycles"])


def test_restart_serves_every_unresolved_request():
    unit = _unit(EADR)
    rec = unit["recovery"]
    assert rec["restart_requests"] == unit["outcomes"][UNACKED_LOST] + \
        unit["outcomes"]["retried-duplicate"]
    assert rec["restart_completed"] == rec["restart_requests"]


def test_drill_unit_is_deterministic():
    assert _unit(BBB) == _unit(BBB)


def test_late_crash_leaves_less_unresolved_than_early():
    total = count_crash_sites(BBB, SPEC, entries=8)
    early = _unit(BBB, visit=total // 8)
    late = _unit(BBB, visit=total - 1)
    assert early["acked"] < late["acked"]
    assert early["recovery"]["restart_requests"] > \
        late["recovery"]["restart_requests"]


# ----------------------------------------------------------------------
# Mutant detection (the gate must have teeth)
# ----------------------------------------------------------------------

def test_delayed_alloc_mutant_is_caught_losing_acked_writes():
    total = count_crash_sites(BBB, SPEC, entries=8)
    hits = 0
    for visit in (total // 4, total // 2, 3 * total // 4):
        unit = _unit("bbb", visit=visit, mutant="bbb-delayed-alloc")
        assert unit["mutant"] == "bbb-delayed-alloc"
        if unit["rpo"]["acked_lost_requests"] > 0 \
                or not unit["contract_consistent"]:
            hits += 1
    assert hits > 0, "the sabotaged scheme must be caught at some point"


# ----------------------------------------------------------------------
# run_drills + report schema
# ----------------------------------------------------------------------

def _report():
    return run_drills([BBB, EADR], SPEC, (2.0,), crashes=2, seed=7,
                      entries=8, mutants=("bbb-delayed-alloc",))


def test_drill_report_is_valid_and_json_round_trips():
    report = _report()
    assert report["schema"] == DRILL_SCHEMA
    validate_drill_report(json.loads(json.dumps(report)))
    assert set(report["per_scheme"]) == {canonical_name(BBB),
                                         canonical_name(EADR)}
    assert set(report["per_mutant"]) == {"bbb-delayed-alloc"}
    # 2 schemes x 2 crashes + 1 mutant x 2 crashes.
    assert len(report["units"]) == 6


def test_battery_domain_gate_block():
    report = _report()
    domain = report["battery_domain"]
    assert domain["acked_lost"] == 0
    assert domain["mutants_caught"]["bbb-delayed-alloc"] is True


def test_crash_points_are_shared_across_schemes():
    report = _report()
    by_name = {}
    for unit in report["units"]:
        key = unit["mutant"] or unit["scheme"]
        by_name.setdefault(key, []).append(unit["crash_visit"])
    visits = set(tuple(sorted(v)) for v in by_name.values())
    assert len(visits) == 1, "every scheme must face the same crashes"


def test_run_drills_rejects_bad_inputs():
    with pytest.raises(ValueError):
        run_drills([], SPEC, (2.0,))
    with pytest.raises(ValueError):
        run_drills([BBB], SPEC, ())
    with pytest.raises(ValueError):
        run_drills([BBB], SPEC, (2.0,), crashes=0)
    with pytest.raises(ValueError, match="unknown mutant"):
        run_drills([BBB], SPEC, (2.0,), mutants=("no-such-mutant",))


@pytest.mark.parametrize("mutate, fragment", [
    (lambda r: r.update(schema="repro.drill/v0"), "schema"),
    (lambda r: r.pop("battery_domain"), "battery_domain"),
    (lambda r: r.update(units=[]), "units"),
    (lambda r: r["units"][0].pop("rpo"), "rpo"),
    (lambda r: r["units"][0]["outcomes"].pop(ACKED_LOST), ACKED_LOST),
    (lambda r: r["units"][0]["outcomes"].update({ACKED_LOST: -1}), ">= 0"),
    (lambda r: r["units"][0]["rto"].update(total_cycles=-5), "rto"),
    (lambda r: r["per_scheme"].pop(canonical_name(BBB)), "per_scheme"),
])
def test_drill_validation_names_the_broken_field(mutate, fragment):
    report = _report()
    mutate(report)
    with pytest.raises(ValueError, match=fragment):
        validate_drill_report(report)
