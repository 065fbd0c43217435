"""Tests for the write-endurance model (repro.energy.endurance)."""

import math

import pytest

from repro.energy import endurance
from repro.mem.nvmm import NVMMedia
from repro.mem.block import BlockData


class TestConstants:
    def test_paper_endurance_ordering(self):
        """Section II-B: SRAM >> STT-RAM > ReRAM > PCM."""
        e = endurance.WRITE_ENDURANCE
        assert e["SRAM"] > e["STT-RAM"] > e["ReRAM"] > e["PCM"]

    def test_paper_values(self):
        assert endurance.WRITE_ENDURANCE["SRAM"] == 1e15
        assert endurance.WRITE_ENDURANCE["STT-RAM"] == 4e12
        assert endurance.WRITE_ENDURANCE["ReRAM"] == 1e11
        assert endurance.WRITE_ENDURANCE["PCM"] == 1e8


class TestLifetime:
    def test_basic_lifetime(self):
        # 100 writes/second against 1e8 endurance -> 1e6 seconds.
        est = endurance.lifetime(100, 1.0, "PCM")
        assert est.lifetime_seconds == pytest.approx(1e6)

    def test_lifetime_years(self):
        est = endurance.lifetime(1, 1.0, "PCM")  # 1 write/s
        assert est.lifetime_years == pytest.approx(1e8 / endurance.SECONDS_PER_YEAR)

    def test_zero_writes_is_infinite(self):
        assert math.isinf(endurance.lifetime(0, 1.0, "PCM").lifetime_seconds)

    def test_unknown_technology(self):
        with pytest.raises(KeyError):
            endurance.lifetime(1, 1.0, "DRAM")

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            endurance.lifetime(1, 0.0, "PCM")

    def test_higher_endurance_lives_longer(self):
        pcm = endurance.lifetime(100, 1.0, "PCM")
        stt = endurance.lifetime(100, 1.0, "STT-RAM")
        assert stt.lifetime_seconds > pcm.lifetime_seconds


class TestMediaLifetime:
    def test_from_media_counters(self):
        media = NVMMedia(base=0, size=1 << 20)
        for _ in range(10):
            media.write_block(0, BlockData({0: 1}))
        # 10 writes over 2e9 cycles @ 2 GHz = 1 second.
        est = endurance.media_lifetime(media, window_cycles=2_000_000_000)
        assert est.writes_per_second == pytest.approx(10.0)


class TestNVCacheArgument:
    def test_l1_level_pcm_wears_out_fast(self):
        """The paper's argument against PCM NVCaches: at L1 store rates a
        PCM cache line lasts well under a day."""
        years = endurance.nvcache_lifetime_years(
            stores_per_cycle=0.2, technology="PCM"
        )
        assert years < 1 / 365  # under a day

    def test_sram_is_fine_at_the_same_rate(self):
        years = endurance.nvcache_lifetime_years(
            stores_per_cycle=0.2, technology="SRAM"
        )
        assert years > 1.0

    def test_stt_ram_beats_pcm(self):
        pcm = endurance.nvcache_lifetime_years(0.2, "PCM")
        stt = endurance.nvcache_lifetime_years(0.2, "STT-RAM")
        assert stt / pcm == pytest.approx(4e12 / 1e8)
