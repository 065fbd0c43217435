"""Unit tests for system assembly and the construction API
(repro.sim.system + repro.api)."""

import warnings

import pytest

from repro.api import SCHEMES, RunOptions, Scheme, build_system
from repro.core.bsp import BSP
from repro.core.persistency import BBBScheme, BEP, EADR, NoPersistency, StrictPMEM
from repro.obs.bus import NULL_BUS, EventBus
from repro.sim.system import System
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import paddr, single_thread_trace


class TestBuildSystem:
    def test_default_system_uses_bbb(self):
        assert isinstance(System().scheme, BBBScheme)

    def test_eadr(self, small_config):
        assert isinstance(build_system("eadr", config=small_config).scheme, EADR)

    def test_bbb_entries_and_threshold(self, small_config):
        system = build_system(
            "bbb", entries=8, config=small_config, drain_threshold=0.5
        )
        assert system.scheme.bbb_config.entries == 8
        assert system.scheme.bbb_config.drain_threshold == 0.5

    def test_processor_side(self, small_config):
        system = build_system("bbb-proc", entries=8, config=small_config)
        assert isinstance(system.scheme, BBBScheme)
        assert not system.scheme.bbb_config.memory_side

    def test_pmem(self, small_config):
        scheme = build_system("pmem", config=small_config).scheme
        assert isinstance(scheme, StrictPMEM)

    def test_bep(self, small_config):
        system = build_system("bep", entries=16, config=small_config)
        assert isinstance(system.scheme, BEP)
        assert system.scheme.entries == 16

    def test_bsp(self, small_config):
        system = build_system("bsp", entries=16, config=small_config)
        assert isinstance(system.scheme, BSP)

    def test_no_persistency(self, small_config):
        scheme = build_system("none", config=small_config).scheme
        assert isinstance(scheme, NoPersistency)

    def test_scheme_enum_accepted(self, small_config):
        system = build_system(Scheme.BBB, config=small_config)
        assert isinstance(system.scheme, BBBScheme)

    def test_schemes_tuple_matches_enum(self):
        assert set(SCHEMES) == {s.value for s in Scheme}
        assert set(SCHEMES) == {
            "bbb", "bbb-proc", "eadr", "pmem", "bsp", "bep", "none",
        }

    def test_unknown_scheme_rejected(self, small_config):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_system("bogus", config=small_config)

    def test_unknown_kwarg_rejected(self, small_config):
        with pytest.raises(TypeError, match="unexpected keyword"):
            build_system("eadr", config=small_config, bogus=1)

    def test_bus_reaches_the_system(self, small_config):
        bus = EventBus()
        system = build_system("bbb", config=small_config,
                              options=RunOptions(bus=bus))
        assert system.bus is bus
        assert system.hierarchy.bus is bus

    def test_default_bus_is_null(self, small_config):
        system = build_system("bbb", config=small_config)
        assert system.bus is NULL_BUS
        assert not system.bus.enabled


#: The per-scheme factory functions that ``repro.sim.system`` (and the
#: package root) used to export, by the scheme each one built.
OLD_FACTORIES = {
    "bbb": "bbb",
    "bbb-proc": "bbb_processor_side",
    "eadr": "eadr",
    "pmem": "pmem_strict",
    "bsp": "bsp",
    "bep": "bep",
    "none": "no_persistency",
}


class TestRemovedFactories:
    """The old per-scheme factories are gone: schemes are built by name
    through ``build_system`` only."""

    @pytest.mark.parametrize("name", sorted(OLD_FACTORIES))
    def test_old_factory_is_gone(self, name):
        import repro
        import repro.sim.system as system_module

        old = OLD_FACTORIES[name]
        assert not hasattr(system_module, old)
        assert not hasattr(repro, old)
        assert old not in repro.__all__

    def test_factory_table_is_gone(self):
        import repro.sim.system as system_module

        assert not hasattr(system_module, "SCHEME_FACTORIES")


class TestAssembly:
    def test_scheme_attached_to_hierarchy(self, small_config):
        system = build_system("bbb", config=small_config)
        assert system.scheme.hierarchy is system.hierarchy
        assert len(system.scheme.buffers) == small_config.num_cores

    def test_stats_shared(self, small_config):
        system = build_system("bbb", config=small_config)
        assert system.stats is system.hierarchy.stats
        assert system.stats.num_cores == small_config.num_cores

    def test_nvmm_media_accessor(self, small_config):
        system = build_system("bbb", config=small_config)
        assert system.nvmm_media is system.hierarchy.nvmm.media

    def test_end_to_end_run(self, small_config):
        system = build_system("bbb", config=small_config)
        trace = single_thread_trace(
            TraceOp.store(paddr(small_config, 0), 0xAB),
            TraceOp.load(paddr(small_config, 0)),
        )
        result = system.run(trace)
        assert result.stats.total_stores == 1
        assert system.nvmm_media.read_word(paddr(small_config, 0), 8) == 0xAB

    def test_run_rejects_more_threads_than_cores(self, small_config):
        system = build_system("bbb", config=small_config)
        trace = ProgramTrace([ThreadTrace([TraceOp.compute(1)])
                              for _ in range(small_config.num_cores + 1)])
        with pytest.raises(ValueError, match="threads but the system has"):
            system.run(trace)
        assert system.stats.execution_cycles == 0

    def test_battery_backed_sb_only_for_bbb_and_eadr(self, small_config):
        def sb0(name):
            return build_system(
                name, config=small_config
            ).hierarchy.store_buffers[0]

        assert sb0("bbb").battery_backed
        assert sb0("eadr").battery_backed
        assert not sb0("pmem").battery_backed
        assert not sb0("none").battery_backed

    def test_internal_construction_does_not_warn(self, small_config):
        """Building any scheme by name emits no DeprecationWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in SCHEMES:
                build_system(name, config=small_config)
