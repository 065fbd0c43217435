"""The closed-form analytical mode (repro.analysis.analytical): tolerance
gate on the bench smoke grid, capability-driven calibration flags, and the
``mode="analytical"`` surface of ``build_system``/``System.run``."""

import pytest

from repro.analysis.analytical import (EXACT_FIELDS, TOLERANCE,
                                       analytical_estimate,
                                       validate_against_sim)
from repro.analysis.bench import run_smoke
from repro.analysis.experiments import default_sim_config
from repro.api import RunOptions, build_system
from repro.check.schedule import CrashSchedule
from repro.core.registry import CONTRACT_EPOCH, POP_FLUSH, iter_schemes
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.workloads.base import (WorkloadSpec, build_cached,
                                  seed_media_words)

SPEC = WorkloadSpec(threads=2, ops=30, elements=512, seed=5)


def test_smoke_grid_within_tolerance():
    """The CI gate: analytical estimates inside the declared band on every
    smoke-grid cell."""
    report = run_smoke()
    assert report["ok"], report
    for cell in report["cells"]:
        assert cell["analytical_ok"], cell


def test_tolerance_band_is_declared():
    assert set(TOLERANCE) == {"execution_cycles", "nvmm_writes"}
    assert all(0 < v < 1 for v in TOLERANCE.values())
    assert set(EXACT_FIELDS) == {
        "total_loads", "total_stores", "total_persisting_stores",
    }


def test_calibration_follows_capability_flags():
    """``calibrated`` comes from registry capability flags, never from
    scheme names: flush-ordered schemes are estimated uncalibrated."""
    cfg = default_sim_config()
    trace, _ = build_cached("hashmap", cfg.mem, SPEC)
    for info in iter_schemes():
        if not info.builtin:
            continue
        est = analytical_estimate(trace, info.name, cfg, entries=8)
        assert est.calibrated == (info.pop != POP_FLUSH), info.name


def test_validate_reports_relative_errors():
    cfg = default_sim_config()
    trace, initial_words = build_cached("hashmap", cfg.mem, SPEC)
    scheme = next(i for i in iter_schemes() if i.has_persist_buffer)
    system = build_system(scheme.name, config=cfg, entries=8)
    seed_media_words(system.nvmm_media, initial_words)
    sim = system.run(trace, finalize=False)
    est = analytical_estimate(trace, scheme.name, cfg, entries=8)
    report = validate_against_sim(est, sim.stats)
    assert report["exact_ok"]
    assert set(report["errors"]) == set(TOLERANCE)
    assert report["ok"]


def test_analytical_mode_rejects_crash_runs():
    """An estimate has no crash point and no fault site: an enabled crash
    schedule or fault injector must be refused, not silently dropped."""
    scheme = next(i for i in iter_schemes() if i.builtin)
    for wiring in ({"crash_schedule": CrashSchedule(stop_at=5)},
                   {"fault_injector": FaultInjector(FaultPlan())}):
        options = RunOptions(mode="analytical", **wiring)
        with pytest.raises(ValueError, match="analytical mode cannot crash"):
            build_system(scheme.name, config=default_sim_config(),
                         options=options)


def test_unknown_mode_rejected():
    scheme = next(i for i in iter_schemes() if i.builtin)
    with pytest.raises(ValueError, match="mode"):
        build_system(scheme.name, options=RunOptions(mode="clairvoyant"))


@pytest.mark.parametrize(
    "info",
    [i for i in iter_schemes() if i.builtin and i.contract != CONTRACT_EPOCH],
    ids=lambda i: i.name,
)
def test_analytical_exact_counts(info):
    """Analytical mode reproduces the op counts exactly for every
    non-epoch scheme (cycle/write errors are gated by the tolerance test
    above)."""
    cfg = default_sim_config()
    spec = WorkloadSpec(threads=2, ops=25, elements=512, seed=13)
    trace, initial_words = build_cached("hashmap", cfg.mem, spec)
    kwargs = {"entries": 8} if info.has_persist_buffer else {}
    runs = {}
    for mode in ("sim", "analytical"):
        system = build_system(info.name, config=cfg,
                              options=RunOptions(mode=mode), **kwargs)
        seed_media_words(system.nvmm_media, initial_words)
        runs[mode] = system.run(trace, finalize=False).stats
    sim, est = runs["sim"], runs["analytical"]
    assert est.total_loads == sim.total_loads
    assert est.total_stores == sim.total_stores
    assert est.total_persisting_stores == sim.total_persisting_stores
