"""The closed-form analytical model (repro.analysis.analytical): tolerance
gate on the bench smoke grid, capability-driven calibration flags, and
exact op counts against the discrete run."""

import pytest

from repro.analysis.analytical import (EXACT_FIELDS, TOLERANCE,
                                       analytical_estimate,
                                       validate_against_sim)
from repro.analysis.bench import run_smoke
from repro.analysis.experiments import default_sim_config
from repro.api import build_system
from repro.cli import build_parser
from repro.core.registry import CONTRACT_EPOCH, POP_FLUSH, iter_schemes
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


def test_unknown_mode_rejected():
    """``repro run --mode`` offers the discrete run and the estimate only."""
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--mode", "clairvoyant"])
    args = build_parser().parse_args(["run", "--mode", "analytical"])
    assert args.mode == "analytical"


@pytest.mark.parametrize(
    "info",
    [i for i in iter_schemes() if i.builtin and i.contract != CONTRACT_EPOCH],
    ids=lambda i: i.name,
)
def test_analytical_exact_counts(info):
    """The estimate reproduces the simulated run's op counts exactly for
    every non-epoch scheme (cycle/write errors are gated by the tolerance
    test above)."""
    cfg = default_sim_config()
    spec = WorkloadSpec(threads=2, ops=25, elements=512, seed=13)
    trace, initial_words = build_cached("hashmap", cfg.mem, spec)
    system = build_system(info.name, config=cfg, entries=8)
    seed_media_words(system.nvmm_media, initial_words)
    sim = system.run(trace, finalize=False).stats
    est = analytical_estimate(trace, info.name, cfg, entries=8).stats
    assert est.total_loads == sim.total_loads
    assert est.total_stores == sim.total_stores
    assert est.total_persisting_stores == sim.total_persisting_stores
