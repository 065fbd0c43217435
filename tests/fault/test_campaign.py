"""Fault-campaign driver: classification, report schema, determinism, and
the headline zero-silent-corruption property for the battery domain."""

import json

from repro.core.recovery import Outcome
from repro.ioutil import atomic_write_json
from repro.fault.campaign import (
    CAMPAIGN_SCHEMA,
    FaultUnit,
    canonical_plans,
    execute_fault_unit,
    idle_plans,
    run_campaign,
)
from repro.fault.plan import (
    BATTERY_DOMAIN_SITES,
    FaultPlan,
    FaultSpec,
    SITE_BATTERY,
    SITE_FORCED_DRAIN,
    random_plan,
)
from repro.workloads.base import WorkloadSpec

SPEC = WorkloadSpec(threads=2, ops=24, elements=128, seed=5)


def test_canonical_plans_cover_every_site_fault_pair():
    covered = {(f.site, f.fault) for p in canonical_plans() for f in p.faults}
    from repro.fault.plan import SITE_FAULTS

    expected = {(s, f) for s, faults in SITE_FAULTS.items() for f in faults}
    assert covered == expected


def test_unit_battery_exhaustion_on_bbb_detected_or_consistent():
    unit = FaultUnit(
        scheme="bbb", workload="hashmap", spec=SPEC, crash_at=30,
        plan=FaultPlan(faults=(
            FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                      params=(("blocks", 1),)),
        )),
    )
    res = execute_fault_unit(unit)
    assert res["baseline_consistent"]
    assert res["outcome"] in (
        Outcome.CONSISTENT.value, Outcome.DETECTED_INCONSISTENT.value
    )
    assert res["battery_domain"]


def test_unit_dropped_forced_drains_are_absorbed():
    """The design property a dropped forced-drain demonstrates: the entry
    stays battery-backed in the bbPB, so nothing is lost."""
    unit = FaultUnit(
        scheme="bbb", workload="hashmap", spec=SPEC, crash_at=40,
        plan=FaultPlan(faults=(
            FaultSpec(site=SITE_FORCED_DRAIN, fault="drop", count=0),
        )),
    )
    res = execute_fault_unit(unit)
    assert res["outcome"] == Outcome.CONSISTENT.value


def test_small_campaign_report_schema_and_no_battery_silence(tmp_path):
    plans = [
        FaultPlan(faults=(
            FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                      params=(("blocks", 2),)),
        ), label="exhaust"),
        random_plan(3, sites=BATTERY_DOMAIN_SITES),
    ]
    report = run_campaign(
        ["bbb", "eadr", "none"], ["hashmap"], plans, SPEC,
        seed=9, jobs=1,
    )
    assert report["schema"] == CAMPAIGN_SCHEMA
    assert len(report["units"]) == 3 * 1 * 2
    assert sum(report["summary"].values()) == len(report["units"])
    assert set(report["summary"]) == {o.value for o in Outcome}
    assert report["battery_domain"]["silent_corruption"] == 0
    for unit in report["units"]:
        assert {"scheme", "workload", "crash_at", "plan", "outcome",
                "injected", "detected"} <= set(unit)
    # The report is written atomically and parses back identically.
    path = atomic_write_json(str(tmp_path / "faults.json"), report)
    with open(path) as fh:
        assert json.load(fh) == report


def test_idle_plans_name_the_plans_that_injected_nothing():
    exhaust = FaultPlan(faults=(
        FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                  params=(("blocks", 0),)),
    ), label="exhaust")
    drop = FaultPlan(faults=(
        FaultSpec(site=SITE_FORCED_DRAIN, fault="drop", count=0),
    ), label="drop-all")
    report = run_campaign(["bbb", "eadr"], ["hashmap"], [exhaust, drop],
                          SPEC, seed=9, jobs=1)
    injected = {plan["label"]: 0 for plan in report["plans"]}
    for unit in report["units"]:
        injected[unit["plan"]["label"]] += unit["injected"]
    # No LLC eviction forces a drain at this size; the battery always dies.
    assert injected["exhaust"] > 0 and injected["drop-all"] == 0
    assert idle_plans(report) == ["drop-all"]


def test_campaign_deterministic_in_seed_and_jobs():
    plans = [random_plan(11, sites=BATTERY_DOMAIN_SITES)]
    kw = dict(spec=SPEC, seed=21, crashes_per_cell=2)
    serial = run_campaign(["bbb"], ["hashmap"], plans, jobs=1, **kw)
    parallel = run_campaign(["bbb"], ["hashmap"], plans, jobs=2, **kw)
    assert serial == parallel
    reseeded = run_campaign(["bbb"], ["hashmap"], plans, jobs=1,
                            spec=SPEC, seed=22, crashes_per_cell=2)
    assert [u["crash_at"] for u in reseeded["units"]] != \
        [u["crash_at"] for u in serial["units"]]
