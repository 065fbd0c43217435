"""Tests for the draining-cost model (repro.energy.model) against the
paper's published values (Tables V, VI, VII, VIII)."""

import pytest

from repro.analysis.experiments import table7, table8
from repro.energy import model
from repro.energy.platforms import MOBILE, MOBILE_CORE_AREA_MM2, PLATFORMS, SERVER

KB = 1024
MB = 1024 * 1024


def _ratios(rows):
    """platform name -> eADR/BBB ratio, from a Table VII/VIII row list."""
    return {platform: ratio for platform, _, _, ratio in rows}


class TestTable5Platforms:
    def test_mobile_spec(self):
        assert MOBILE.num_cores == 6
        assert MOBILE.l1_bytes_per_core == 128 * KB
        assert MOBILE.l2_bytes_total == 8 * MB
        assert MOBILE.l3_bytes_total == 0
        assert MOBILE.memory_channels == 2

    def test_server_spec(self):
        assert SERVER.num_cores == 32
        assert SERVER.l1_bytes_per_core == 32 * KB
        assert SERVER.l2_bytes_total == 32 * MB
        assert SERVER.l3_bytes_total == int(2 * 35.75 * MB)
        assert SERVER.memory_channels == 12

    def test_total_cache_sizes_match_paper(self):
        # "the total cache size for the system is 107MB and 8.75MB"
        assert MOBILE.total_cache_bytes == pytest.approx(8.75 * MB)
        assert SERVER.total_cache_bytes == pytest.approx(104.5 * MB, rel=0.03)

    def test_registry(self):
        assert PLATFORMS["mobile"] is MOBILE
        assert PLATFORMS["server"] is SERVER

    def test_core_area_constant(self):
        assert MOBILE_CORE_AREA_MM2 == 2.61


class TestTable6Constants:
    def test_sram_access_cost(self):
        assert model.SRAM_ACCESS_J_PER_BYTE == 1e-12

    def test_l1_and_bbpb_move_cost(self):
        assert model.L1_TO_NVMM_J_PER_BYTE == pytest.approx(11.839e-9)

    def test_l2_l3_move_cost(self):
        assert model.L2_TO_NVMM_J_PER_BYTE == pytest.approx(11.228e-9)
        assert model.LEVEL_ENERGY_J_PER_BYTE["L2"] == model.LEVEL_ENERGY_J_PER_BYTE["L3"]

    def test_dirty_fraction_matches_section5a(self):
        assert model.DEFAULT_DIRTY_FRACTION == 0.449


class TestTable7DrainEnergy:
    def test_mobile_eadr_energy(self):
        # Paper: 46.5 mJ
        assert model.eadr_drain_energy(MOBILE) == pytest.approx(46.5e-3, rel=0.02)

    def test_server_eadr_energy(self):
        # Paper: 550 mJ
        assert model.eadr_drain_energy(SERVER) == pytest.approx(550e-3, rel=0.02)

    def test_mobile_bbb_energy(self):
        # Paper: 145 uJ
        assert model.bbb_drain_energy(MOBILE) == pytest.approx(145e-6, rel=0.02)

    def test_server_bbb_energy(self):
        # Paper: 775 uJ
        assert model.bbb_drain_energy(SERVER) == pytest.approx(775e-6, rel=0.02)

    def test_mobile_ratio_320x(self):
        assert _ratios(table7())[MOBILE.name] == pytest.approx(320, rel=0.03)

    def test_server_ratio_709x(self):
        assert _ratios(table7())[SERVER.name] == pytest.approx(709, rel=0.03)

    def test_bbb_worst_case_independent_of_dirty_fraction(self):
        """BBB assumes its buffers are full (its own worst case)."""
        assert model.bbb_drain_energy(MOBILE, 32) == model.bbb_drain_energy(MOBILE, 32)
        assert model.bbb_drain_bytes(MOBILE, 32) == 6 * 32 * 64


class TestTable8DrainTime:
    def test_mobile_eadr_time(self):
        # Paper: 0.8 ms (rounded); bandwidth-model gives ~0.9 ms.
        t = model.eadr_cost(MOBILE).time_seconds
        assert 0.7e-3 <= t <= 1.0e-3

    def test_server_eadr_time(self):
        # Paper: 1.8 ms
        t = model.eadr_cost(SERVER).time_seconds
        assert t == pytest.approx(1.8e-3, rel=0.05)

    def test_mobile_bbb_time(self):
        # Paper: 2.6 us
        t = model.bbb_cost(MOBILE).time_seconds
        assert t == pytest.approx(2.6e-6, rel=0.05)

    def test_server_bbb_time(self):
        # Paper: 2.4 us
        t = model.bbb_cost(SERVER).time_seconds
        assert t == pytest.approx(2.4e-6, rel=0.05)

    def test_time_ratios_are_two_to_three_orders(self):
        # Paper: 307x mobile, 750x server.
        ratios = _ratios(table8())
        assert 250 <= ratios[MOBILE.name] <= 400
        assert 600 <= ratios[SERVER.name] <= 850


class TestDrainCostHelpers:
    def test_eadr_bytes_scale_with_dirty_fraction(self):
        full = sum(model.eadr_drain_bytes(MOBILE, 1.0).values())
        half = sum(model.eadr_drain_bytes(MOBILE, 0.5).values())
        assert half == pytest.approx(full / 2)
        assert full == MOBILE.total_cache_bytes

    def test_bbb_bytes_scale_with_entries(self):
        assert model.bbb_drain_bytes(MOBILE, 64) == 2 * model.bbb_drain_bytes(MOBILE, 32)

    def test_drain_time_scales_inverse_with_channels(self):
        t_mobile = model.drain_time_seconds(1e6, MOBILE)
        t_server = model.drain_time_seconds(1e6, SERVER)
        assert t_mobile / t_server == pytest.approx(
            SERVER.memory_channels / MOBILE.memory_channels
        )
