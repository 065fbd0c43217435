"""Write-endurance model for NVM technologies (Section II-B).

The paper motivates both why NVCaches are problematic ("limited write
endurance ... more pronounced than NVMM because caches will be written at
a much higher rate") and why BBB minimises NVMM writes (coalescing in the
bbPB, silent writeback drops).  This module provides:

* the endurance constants the paper cites: SRAM ~1e15 writes, STT-RAM
  4e12, ReRAM 1e11, PCM 1e8;
* per-structure lifetime estimation: given a measured per-block write
  rate, how long until the hottest cell wears out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.mem.nvmm import NVMMedia

#: Write-endurance (writes per cell) by technology, as cited in Sec. II-B.
WRITE_ENDURANCE: Dict[str, float] = {
    "SRAM": 1e15,
    "STT-RAM": 4e12,
    "ReRAM": 1e11,
    "PCM": 1e8,
}

SECONDS_PER_YEAR = 365.25 * 24 * 3600


@dataclass(frozen=True)
class LifetimeEstimate:
    """Wear-out estimate for the hottest block of a structure."""

    technology: str
    endurance_writes: float
    writes_per_second: float
    lifetime_seconds: float

    @property
    def lifetime_years(self) -> float:
        return self.lifetime_seconds / SECONDS_PER_YEAR


def lifetime(
    max_writes_per_block: int,
    window_seconds: float,
    technology: str = "PCM",
) -> LifetimeEstimate:
    """Lifetime of the hottest block given a measured write rate.

    ``max_writes_per_block`` writes observed over ``window_seconds`` are
    extrapolated to a steady rate; the block wears out after
    ``endurance / rate`` seconds.  A rate of zero yields infinity.
    """
    if technology not in WRITE_ENDURANCE:
        raise KeyError(
            f"unknown technology {technology!r}; choose from "
            f"{sorted(WRITE_ENDURANCE)}"
        )
    if window_seconds <= 0:
        raise ValueError("window must be positive")
    endurance = WRITE_ENDURANCE[technology]
    rate = max_writes_per_block / window_seconds
    seconds = float("inf") if rate == 0 else endurance / rate
    return LifetimeEstimate(
        technology=technology,
        endurance_writes=endurance,
        writes_per_second=rate,
        lifetime_seconds=seconds,
    )


def media_lifetime(
    media: NVMMedia,
    window_cycles: int,
    clock_ghz: float = 2.0,
    technology: str = "PCM",
) -> LifetimeEstimate:
    """Lifetime estimate straight from a simulation's media write counts."""
    window_seconds = window_cycles / (clock_ghz * 1e9)
    return lifetime(media.max_block_writes(), window_seconds, technology)


def nvcache_writes_per_second(
    stores_per_cycle: float, clock_ghz: float = 2.0
) -> float:
    """Store rate hitting an L1-level NVCache — the paper's argument that
    cache-level NVM endurance is far more stressed than memory-level."""
    return stores_per_cycle * clock_ghz * 1e9


def nvcache_lifetime_years(
    stores_per_cycle: float,
    technology: str,
    cache_blocks: int = 2048,
    clock_ghz: float = 2.0,
    hot_fraction: float = 0.01,
) -> float:
    """Rough lifetime of the hottest NVCache line: a ``hot_fraction`` of a
    ``cache_blocks``-line cache absorbs the store stream uniformly."""
    rate = nvcache_writes_per_second(stores_per_cycle, clock_ghz)
    hot_lines = max(1, int(cache_blocks * hot_fraction))
    per_line = rate / hot_lines
    if per_line == 0:
        return float("inf")
    return WRITE_ENDURANCE[technology] / per_line / SECONDS_PER_YEAR
