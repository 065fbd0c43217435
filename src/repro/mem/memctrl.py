"""Memory controllers: DRAM controller and NVMM controller with an ADR WPQ.

The NVMM controller's write-pending queue (WPQ) is inside the persistence
domain under ADR [37]: a write is durable once *accepted* by the WPQ, because
a capacitor guarantees the WPQ drains to media on power loss.  That is the
baseline point of persistency (PoP) the paper starts from; BBB moves the PoP
up to the bbPB.

Because acceptance == durability, the model folds the WPQ into the
controller: the media image is updated at acceptance time and the media-side
write latency stays off the critical path (exactly the property ADR buys).
Acceptance contends on per-channel write ports (``wpq_accept_cycles`` per
block; blocks interleave across ``nvmm_channels``), which is what creates
backpressure on bursts of bbPB drains — the dynamics behind Fig. 8's stall
curves — and why Table V/VIII's drain bandwidth scales with the channel
count.

Reads are modelled latency-only (no queuing): the evaluated workloads are
store-dominated, every scheme sees identical read traffic, and keeping reads
contention-free makes the scheme comparison stable.
"""

from __future__ import annotations

from typing import Tuple

from repro.check.schedule import NULL_SCHEDULE, SITE_WPQ
from repro.fault.injector import NULL_INJECTOR
from repro.mem.block import BlockData
from repro.mem.nvmm import NVMMedia
from repro.obs.bus import NULL_BUS, EventBus
from repro.obs.events import WpqDrain, WpqEnqueue
from repro.sim.config import MemConfig
from repro.sim.stats import SimStats

#: Bounded retry budget for transiently-failing WPQ write acceptances
#: (fault injection): the controller re-attempts a failed block write this
#: many times before raising a machine check and dropping the write — a
#: *detected* loss, never a silent one.
WPQ_WRITE_MAX_RETRIES = 3


class DRAMController:
    """Volatile memory controller: timing only; contents are modelled by the
    hierarchy's volatile image and never survive a crash."""

    def __init__(self, config: MemConfig, stats: SimStats) -> None:
        self.config = config
        self.stats = stats

    def read(self, now: int) -> int:
        """Service a read issued at cycle ``now``; return completion cycle."""
        self.stats.dram_reads += 1
        return now + self.config.dram_read_cycles

    def write(self, now: int) -> int:
        self.stats.dram_writes += 1
        return now + self.config.dram_write_cycles


class NVMMController:
    """NVMM controller with a battery-backed (ADR) write-pending queue.

    * :meth:`write` accepts a block at the WPQ — the durability point.  The
      media image is updated immediately (the battery guarantees the block
      reaches media even across a crash, so acceptance-time update is
      semantically exact).  Each acceptance occupies the write port for
      ``wpq_accept_cycles``; concurrent drains from many bbPBs queue up.
    * :meth:`read` returns after the NVMM read latency; the newest durable
      copy is always visible because writes land at acceptance.

    ``stats.nvmm_writes`` counts accepted blocks — the write-endurance
    figure plotted in Fig. 7(b).
    """

    def __init__(self, config: MemConfig, stats: SimStats,
                 bus: EventBus = NULL_BUS, injector=NULL_INJECTOR,
                 schedule=NULL_SCHEDULE) -> None:
        self.config = config
        self.stats = stats
        self.bus = bus
        self.injector = injector
        self.schedule = schedule
        self.media = NVMMedia(config.nvmm_base, config.nvmm_bytes)
        #: Per-channel next-free time; blocks interleave by block address.
        self._port_free = [0] * config.nvmm_channels

    def channel_of(self, block_addr: int) -> int:
        return (block_addr // 64) % self.config.nvmm_channels

    @property
    def port_free(self) -> int:
        """Latest busy-until across channels (single-channel compatible)."""
        return max(self._port_free)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def read(self, block_addr: int, now: int) -> Tuple[BlockData, int]:
        """Read one block; returns ``(data, completion_cycle)``."""
        self.stats.nvmm_reads += 1
        return self.media.read_block(block_addr), now + self.config.nvmm_read_cycles

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def write(self, block_addr: int, data: BlockData, now: int) -> int:
        """Accept one block into the WPQ at or after cycle ``now``.

        Returns the acceptance-complete cycle (when the block is durable and
        the issuing buffer entry may be freed).  Callers on background paths
        (LLC writebacks) may ignore the returned time.
        """
        channel = self.channel_of(block_addr)
        start = max(now, self._port_free[channel])
        done = start + self.config.wpq_accept_cycles
        if self.schedule.enabled:
            # Mid-WPQ flush: the block is at the controller but acceptance
            # (the ADR durability point) has not happened — raising here
            # models power failing with the transfer still in flight.
            self.schedule.reached(SITE_WPQ, now, block_addr)
        if self.injector.enabled:
            done = self._accept_with_faults(block_addr, data, start, done)
        else:
            self.media.write_block(block_addr, data)
        self._port_free[channel] = done
        self.stats.nvmm_writes += 1
        if self.bus.enabled:
            self.bus.emit(WpqEnqueue(now, block_addr, channel,
                                     accept_at=done, backlog=start - now))
            self.bus.emit(WpqDrain(done, block_addr, channel))
        return done

    def _accept_with_faults(self, block_addr: int, data: BlockData,
                            start: int, done: int) -> int:
        """Fault-injected acceptance path: consult the injector, then model
        torn writes (partial row + ECC mark) and transient write failures
        (each retry re-occupies the write port; exhausting the retry budget
        raises a machine check and drops the write — a detected loss).
        Returns the possibly-delayed acceptance-complete cycle."""
        spec = self.injector.on_nvmm_write(block_addr, start)
        if spec is None:
            self.media.write_block(block_addr, data)
            return done

        if spec.fault == "torn":
            keep = int(spec.param("keep_bytes", 32))
            self.media.write_block_torn(block_addr, data, keep)
            if spec.param("ecc", True):
                self.injector.record_detection(
                    spec.site, spec.fault, block_addr, done,
                    detail=f"media ECC: row torn at byte {keep}",
                )
            return done

        # Transient acceptance failure with bounded retry.
        failures = int(spec.param("failures", 1))
        retries = min(failures, WPQ_WRITE_MAX_RETRIES)
        done += retries * self.config.wpq_accept_cycles
        if failures > WPQ_WRITE_MAX_RETRIES:
            self.injector.record_detection(
                spec.site, spec.fault, block_addr, done,
                detail=f"machine check: {WPQ_WRITE_MAX_RETRIES} retries "
                       f"exhausted",
            )
            return done
        self.media.write_block(block_addr, data)
        return done
