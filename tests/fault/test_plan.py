"""Fault-plan data model: validation, firing windows, round-trips, seeded
generation."""

import pytest

from repro.fault.plan import (
    BATTERY_DOMAIN_SITES,
    FaultPlan,
    FaultSpec,
    SITE_BATTERY,
    SITE_BBPB_ENTRY,
    SITE_FAULTS,
    SITE_FORCED_DRAIN,
    SITE_NVMM_WRITE,
    SITES,
    random_plan,
)


def test_every_site_declares_faults():
    assert set(SITE_FAULTS) == set(SITES)
    assert all(SITE_FAULTS[s] for s in SITES)


def test_battery_domain_excludes_media():
    assert SITE_NVMM_WRITE not in BATTERY_DOMAIN_SITES
    assert SITE_BATTERY in BATTERY_DOMAIN_SITES
    assert SITE_FORCED_DRAIN in BATTERY_DOMAIN_SITES
    assert SITE_BBPB_ENTRY in BATTERY_DOMAIN_SITES


def test_spec_rejects_unknown_site_and_fault():
    with pytest.raises(ValueError):
        FaultSpec(site="llc.evict", fault="drop")
    with pytest.raises(ValueError):
        FaultSpec(site=SITE_BATTERY, fault="torn")
    with pytest.raises(ValueError):
        FaultSpec(site=SITE_NVMM_WRITE, fault="torn", nth=0)
    with pytest.raises(ValueError):
        FaultSpec(site=SITE_NVMM_WRITE, fault="torn", count=-1)


def test_active_window_semantics():
    spec = FaultSpec(site=SITE_NVMM_WRITE, fault="torn", nth=3, count=2)
    assert [spec.active_at(v) for v in range(1, 7)] == [
        False, False, True, True, False, False,
    ]
    forever = FaultSpec(site=SITE_FORCED_DRAIN, fault="drop", nth=2, count=0)
    assert not forever.active_at(1)
    assert all(forever.active_at(v) for v in range(2, 50))


def test_param_lookup_with_default():
    spec = FaultSpec(site=SITE_NVMM_WRITE, fault="torn",
                     params=(("keep_bytes", 8),))
    assert spec.param("keep_bytes") == 8
    assert spec.param("ecc", True) is True


def test_plan_site_queries():
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_FORCED_DRAIN, fault="drop"),
        FaultSpec(site=SITE_FORCED_DRAIN, fault="delay", nth=5),
        FaultSpec(site=SITE_BATTERY, fault="exhaustion"),
    ))
    assert len(plan.for_site(SITE_FORCED_DRAIN)) == 2
    assert len(plan.for_site(SITE_BATTERY)) == 1
    assert plan.for_site(SITE_NVMM_WRITE) == []
    assert plan.touches_battery_domain_only()
    mixed = FaultPlan(faults=(
        FaultSpec(site=SITE_NVMM_WRITE, fault="torn"),
    ))
    assert not mixed.touches_battery_domain_only()


def test_random_plan_deterministic_in_seed():
    assert random_plan(42) == random_plan(42)
    assert random_plan(42) != random_plan(43)


def test_random_plan_respects_site_restriction():
    for seed in range(30):
        plan = random_plan(seed, sites=BATTERY_DOMAIN_SITES)
        assert plan.faults
        assert plan.touches_battery_domain_only()


def test_random_plan_never_disables_detection_channels():
    """Generated plans model faults, not cheaper hardware: the detection
    channels (ecc/parity/brownout) stay at their defaults, which is what
    makes the no-silent-corruption property hold by construction."""
    for seed in range(50):
        for spec in random_plan(seed).faults:
            names = {k for k, _ in spec.params}
            assert not names & {"ecc", "parity", "brownout"}
