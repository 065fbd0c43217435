"""Draining-cost model (Section IV-C): energy and time to drain eADR caches
vs BBB's bbPBs at the moment of a crash.

Constants come from the paper:

* Table VI energy costs, derived from Pandiyan & Wu's data-movement
  measurements [65]: 1 pJ/B to access SRAM, 11.839 nJ/B to move a byte from
  L1D (or a bbPB, which sits next to the L1D) to NVMM, 11.228 nJ/B from
  L2/L3 to NVMM.
* 44.9% average dirty fraction across the evaluated workloads (matching
  Garcia et al. [31]) for the *average-cost* figures of Tables VII/VIII.
* NVMM write bandwidth of ~2.3 GB/s per channel (Izraelevitz et al. [41]),
  with all channels dedicated to draining (no other traffic at crash time).

eADR drains every dirty byte of every cache level; BBB drains at most
``cores x entries x 64 B`` — the two-to-three-orders-of-magnitude gap of
Tables VII and VIII (:func:`repro.analysis.experiments.table7` and
``table8`` divide :func:`eadr_cost` by :func:`bbb_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.energy.platforms import Platform

#: Table VI: energy to read a byte out of SRAM cells.
SRAM_ACCESS_J_PER_BYTE = 1e-12
#: Table VI: moving one byte from L1D (or bbPB) to NVMM.
L1_TO_NVMM_J_PER_BYTE = 11.839e-9
#: Table VI: moving one byte from L2 or L3 to NVMM.
L2_TO_NVMM_J_PER_BYTE = 11.228e-9

#: Average fraction of cache blocks dirty at crash (Section V-A, after [31]).
DEFAULT_DIRTY_FRACTION = 0.449

#: NVMM write bandwidth per memory channel, bytes/second (from [41]).
NVMM_WRITE_BW_PER_CHANNEL = 2.3e9

#: Cache block size used throughout the paper.
BLOCK_BYTES = 64

#: Per-byte move cost by cache level.
LEVEL_ENERGY_J_PER_BYTE: Dict[str, float] = {
    "L1": L1_TO_NVMM_J_PER_BYTE,
    "L2": L2_TO_NVMM_J_PER_BYTE,
    "L3": L2_TO_NVMM_J_PER_BYTE,
}


@dataclass(frozen=True)
class DrainCost:
    """Energy and time to drain one scheme's persistence-domain buffers."""

    scheme: str
    platform: str
    bytes_drained: int
    energy_joules: float
    time_seconds: float


def eadr_drain_bytes(
    platform: Platform, dirty_fraction: float = DEFAULT_DIRTY_FRACTION
) -> Dict[str, float]:
    """Dirty bytes per cache level that eADR must move on a crash."""
    return {
        level: size * dirty_fraction
        for level, size in platform.cache_bytes_by_level().items()
    }


def eadr_drain_energy(
    platform: Platform, dirty_fraction: float = DEFAULT_DIRTY_FRACTION
) -> float:
    """Joules for eADR's flush-on-fail (Table VII), with the paper's
    optimistic assumptions: only dirty blocks move, dirty-block
    identification is free, and no static energy is charged."""
    energy = 0.0
    for level, dirty_bytes in eadr_drain_bytes(platform, dirty_fraction).items():
        energy += dirty_bytes * (
            LEVEL_ENERGY_J_PER_BYTE[level] + SRAM_ACCESS_J_PER_BYTE
        )
    return energy


def bbb_drain_bytes(platform: Platform, bbpb_entries: int = 32) -> int:
    """Bytes BBB must move: every bbPB full (worst case for BBB)."""
    return platform.num_cores * bbpb_entries * BLOCK_BYTES


def bbb_drain_energy(platform: Platform, bbpb_entries: int = 32) -> float:
    """Joules for BBB's flush-on-fail (Table VII): bbPBs drain at the
    L1-to-NVMM cost since they sit next to the L1D."""
    nbytes = bbb_drain_bytes(platform, bbpb_entries)
    return nbytes * (L1_TO_NVMM_J_PER_BYTE + SRAM_ACCESS_J_PER_BYTE)


def drain_time_seconds(nbytes: float, platform: Platform) -> float:
    """Time to push ``nbytes`` to NVMM with every channel dedicated to
    draining (Table VIII)."""
    bandwidth = platform.memory_channels * NVMM_WRITE_BW_PER_CHANNEL
    return nbytes / bandwidth


def eadr_cost(
    platform: Platform, dirty_fraction: float = DEFAULT_DIRTY_FRACTION
) -> DrainCost:
    nbytes = sum(eadr_drain_bytes(platform, dirty_fraction).values())
    return DrainCost(
        scheme="eADR",
        platform=platform.name,
        bytes_drained=int(nbytes),
        energy_joules=eadr_drain_energy(platform, dirty_fraction),
        time_seconds=drain_time_seconds(nbytes, platform),
    )


def bbb_cost(platform: Platform, bbpb_entries: int = 32) -> DrainCost:
    nbytes = bbb_drain_bytes(platform, bbpb_entries)
    return DrainCost(
        scheme="BBB",
        platform=platform.name,
        bytes_drained=nbytes,
        energy_joules=bbb_drain_energy(platform, bbpb_entries),
        time_seconds=drain_time_seconds(nbytes, platform),
    )
