"""A finished system is freed by reference counting alone.

Schemes refer back to their hierarchy weakly, and persist-buffer drain
sinks close over the hierarchy's parts rather than the scheme, so no part
of a system's object graph is a reference cycle: dropping the last
reference frees it at once, without waiting for the cyclic garbage
collector.  Every test here runs with the collector disabled.  The plain run and stream tests cover each store
commit the engine picks with no schedule installed: the direct one under
TSO and the buffered one under relaxed consistency; the crashed run covers
the schedule-aware one.
"""

import contextlib
import dataclasses
import gc
import weakref

import pytest

from repro.analysis.experiments import default_sim_config
from repro.api import RunOptions, build_system
from repro.check.schedule import CrashSchedule
from repro.core.registry import BBB, CONTRACT_EPOCH, iter_schemes
from repro.obs.bus import EventBus
from repro.sim.config import ConsistencyModel
from repro.sim.trace import with_epochs
from repro.workloads.base import WorkloadSpec, build_cached

SPEC = WorkloadSpec(threads=2, ops=10, elements=128, seed=3)
SCHEMES = [info for info in iter_schemes() if info.builtin]
#: Every builtin scheme on the default TSO machine (ids as the scheme
#: name) and under relaxed consistency (ids ``relaxed-<scheme>``).
MODES = (
    [pytest.param(info, ConsistencyModel.TSO, id=info.name)
     for info in SCHEMES]
    + [pytest.param(info, ConsistencyModel.RELAXED, id=f"relaxed-{info.name}")
       for info in SCHEMES]
)


@contextlib.contextmanager
def _collector_off():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _system(info, options=None, consistency=ConsistencyModel.TSO):
    kwargs = {"entries": 8} if info.has_persist_buffer else {}
    config = dataclasses.replace(default_sim_config(), consistency=consistency)
    return build_system(info.name, config=config,
                        options=options or RunOptions(), **kwargs)


def _trace(info):
    trace, _ = build_cached("hashmap", default_sim_config().mem, SPEC)
    if info.contract == CONTRACT_EPOCH:
        trace = with_epochs(trace, every_n_stores=4)
    return trace


@pytest.mark.parametrize("info,consistency", MODES)
def test_run_frees_the_system(info, consistency):
    trace = _trace(info)
    with _collector_off():
        system = _system(info, consistency=consistency)
        result = system.run(trace)
        freed = weakref.ref(system.hierarchy)
        del system
        assert freed() is None
        assert result.stats.total_stores > 0  # results outlive the system


@pytest.mark.parametrize("info,consistency", MODES)
def test_stream_frees_the_system(info, consistency):
    trace = _trace(info)
    with _collector_off():
        system = _system(info, consistency=consistency)
        session = system.stream()
        for core, thread in enumerate(trace.threads):
            session.feed(core, thread.ops)
        session.finish()
        freed = weakref.ref(system.hierarchy)
        del system, session
        assert freed() is None


def test_crashed_run_with_bus_and_schedule_frees_the_system():
    info = next(i for i in SCHEMES if i.name == BBB)
    trace = _trace(info)
    with _collector_off():
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        system = _system(info, RunOptions(bus=bus,
                                          crash_schedule=CrashSchedule(1000)))
        result = system.run(trace)
        assert result.crashed and events
        freed = weakref.ref(system.hierarchy)
        del system
        assert freed() is None


@pytest.mark.parametrize("stop_early", [False, True])
def test_sweep_frees_the_system(stop_early):
    """The sweep's visit hook lives on the system's own schedule; it must
    come off again, even when the observer closes over the system and
    ends the pass early."""
    from repro.check.explore import sweep

    info = next(i for i in SCHEMES if i.name == BBB)
    trace = _trace(info)
    with _collector_off():
        system = _system(info, RunOptions(crash_schedule=CrashSchedule()))
        seen = []

        def observe(visit):
            seen.append((visit.point, system.scheme.name))
            return stop_early and visit.point == 5

        assert sweep(system, trace, observe) is not stop_early
        freed = weakref.ref(system.hierarchy)
        del system, observe
        assert freed() is None
        assert seen
        assert gc.collect() == 0


def test_run_check_unit_frees_every_system(monkeypatch):
    from repro.check import checker
    from repro.check.checker import CheckUnit, run_check_unit

    built = []
    build = checker._UnitContext.build_system

    def tracked(ctx, schedule):
        system = build(ctx, schedule)
        built.append(weakref.ref(system.hierarchy))
        return system

    monkeypatch.setattr(checker._UnitContext, "build_system", tracked)
    unit = CheckUnit(scheme=BBB, spec=WorkloadSpec(threads=2, ops=2,
                                                   elements=64, seed=3))
    with _collector_off():
        report, verdicts = run_check_unit(unit, jobs=1)
        assert built and all(ref() is None for ref in built)
        assert gc.collect() == 0
    assert report["checked_points"] == len(verdicts) > 0


def test_scheme_refers_to_its_hierarchy_weakly():
    info = next(i for i in SCHEMES if i.name == BBB)
    system = _system(info)
    scheme = system.scheme
    assert scheme.hierarchy is system.hierarchy
    with _collector_off():
        del system
        assert scheme.hierarchy is None
