"""The single-pass crash kernel (repro.check.explore) against real crashes.

Every test sweeps a trace once and replays each observed visit ``k`` on a
fresh system crashed with ``CrashSchedule(stop_at=k)`` — the scheme's real
``crash_drain`` — demanding the same durable image, persist logs, crash
op and cycle.  Each hook situation gets its own scenario, and each
scenario asserts the situation actually occurred.  The residue test
instead holds :func:`~repro.check.explore.crash_writes`, which reads only
occupied structures, to a full scan of every structure at every visit.
"""

import dataclasses

import pytest

from repro.api import RunOptions, build_system
from repro.check.explore import crash_writes, sweep
from repro.check.mutants import ForgetfulEADR, build_crash_system
from repro.check.schedule import (
    SITE_DRAIN,
    SITE_FORCED_DRAIN,
    SITE_OP,
    SITE_POV,
    SITE_WPQ,
    CrashSchedule,
)
from repro.core.persistency import EADR, BBBScheme
from repro.core.recovery import check_exact_durability
from repro.fault.injector import FaultInjector
from repro.fault.plan import FaultPlan
from repro.mem.block import BlockData
from repro.sim.config import ConsistencyModel
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import conflict_addresses, daddr, paddr


def _image(media):
    return {b: dict(media.peek_block(b).bytes) for b in media.written_blocks()}


def sweep_matches_replay(scheme, config, trace, probe=None, entries=8):
    """Sweep ``trace`` and replay every visit; returns the visits as
    ``(point, site, probe(system, visit))`` triples.  Every scheme used
    here promises exact durability, so each image must also hold every
    committed persist."""

    def build(schedule):
        return build_system(scheme, config=config, entries=entries,
                            options=RunOptions(crash_schedule=schedule))

    schedule = CrashSchedule()
    system = build(schedule)
    seen = []

    def observe(visit):
        exact = check_exact_durability(visit.nvmm_media,
                                       visit.committed_persists)
        assert exact.consistent, (visit.point, visit.site, exact.violations)
        seen.append((
            visit, _image(visit.nvmm_media),
            probe(system, visit) if probe is not None else None,
        ))

    assert sweep(system, trace, observe)
    assert len(seen) == schedule.visits > 0
    for visit, image, _ in seen:
        crashed = build(CrashSchedule(stop_at=visit.point))
        result = crashed.run(trace)
        assert result.crash_point.site == visit.site
        assert (result.crash_op, result.crash_point.cycle) == \
            (visit.crash_op, visit.cycle)
        assert result.committed_persists == visit.committed_persists
        assert result.performed_persists == visit.performed_persists
        assert _image(crashed.nvmm_media) == image, (visit.point, visit.site)
    return [(v.point, v.site, p) for v, _, p in seen]


def _stores(config, blocks, value=1):
    return [TraceOp.store(paddr(config, b), value + b) for b in blocks]


def _releasing(system, visit):
    return any(sb.releasing is not None
               for sb in system.hierarchy.store_buffers)


def _in_bbpb(system, visit):
    return any(visit.addr in dict(buf.battery_entries())
               for buf in system.scheme.buffers)


class TestHookSites:
    def test_engine_op(self, small_config):
        trace = ProgramTrace([
            ThreadTrace(_stores(small_config, range(4))),
            ThreadTrace(_stores(small_config, range(2, 6), value=50)),
        ])
        visits = sweep_matches_replay("eadr", small_config, trace)
        assert sum(site == SITE_OP for _, site, _ in visits) == 8

    def test_pov_gap_on_the_tso_fast_path(self, small_config):
        trace = ProgramTrace([ThreadTrace(_stores(small_config, range(4)))])
        visits = sweep_matches_replay("bbb", small_config, trace,
                                      probe=_releasing)
        pov = [held for _, site, held in visits if site == SITE_POV]
        assert len(pov) == 4 and all(pov)

    def test_pov_gap_on_the_release_path(self, small_config):
        relaxed = dataclasses.replace(
            small_config, consistency=ConsistencyModel.RELAXED)
        ops = _stores(relaxed, range(6)) + [TraceOp.fence()]
        trace = ProgramTrace([ThreadTrace(ops)])
        visits = sweep_matches_replay("bbb", relaxed, trace, probe=_releasing)
        # Stores left in the SB by the relaxed release are released by the
        # fence: those PoV visits sit in the release slot.
        assert any(held for _, site, held in visits if site == SITE_POV)

    def test_pov_gap_with_a_coherence_move_in_flight(self, small_config):
        """Core 1's store invalidates core 0's bbPB copy (Fig. 6a): until
        core 1 allocates, the moved block is a packet in flight."""
        x = paddr(small_config, 0)
        trace = ProgramTrace([
            ThreadTrace([TraceOp.store(x, 1), TraceOp.store(x + 8, 2)]),
            ThreadTrace([TraceOp.compute(20), TraceOp.store(x + 16, 3)]),
        ])

        def moving(system, visit):
            return bool(system.hierarchy.inflight_bbpb_moves)

        visits = sweep_matches_replay("bbb", small_config, trace,
                                      probe=moving)
        assert any(flying for _, site, flying in visits if site == SITE_POV)

    def test_bbpb_drain(self, small_config):
        trace = ProgramTrace([ThreadTrace(_stores(small_config, range(8)))])
        visits = sweep_matches_replay("bbb", small_config, trace,
                                      probe=_in_bbpb, entries=2)
        drains = [resident for _, site, resident in visits
                  if site == SITE_DRAIN]
        assert drains and all(drains)

    def test_coherence_forced_drain(self, small_config):
        addrs = conflict_addresses(small_config, paddr(small_config, 0), 6)
        trace = ProgramTrace([ThreadTrace(
            [TraceOp.store(a, i + 1) for i, a in enumerate(addrs)])])
        visits = sweep_matches_replay("bbb", small_config, trace,
                                      probe=_in_bbpb)
        forced = [resident for _, site, resident in visits
                  if site == SITE_FORCED_DRAIN]
        assert forced and all(forced)

    def test_wpq_flush_from_a_bbpb_drain(self, small_config):
        trace = ProgramTrace([ThreadTrace(_stores(small_config, range(8)))])
        visits = sweep_matches_replay("bbb", small_config, trace,
                                      probe=_in_bbpb, entries=2)
        assert any(resident for _, site, resident in visits
                   if site == SITE_WPQ)

    def test_wpq_flush_from_a_clwb(self, small_config):
        x = paddr(small_config, 0)
        trace = ProgramTrace([ThreadTrace([
            TraceOp.store(x, 7), TraceOp.flush(x), TraceOp.store(x, 8),
        ])])

        def dirty_in_cache(system, visit):
            h = system.hierarchy
            return any(blk.addr == visit.addr
                       for cache in [*h.l1s, h.llc]
                       for blk in cache.dirty_blocks())

        visits = sweep_matches_replay("eadr", small_config, trace,
                                      probe=dirty_in_cache)
        wpq = [dirty for _, site, dirty in visits if site == SITE_WPQ]
        assert wpq and all(wpq)

    def test_wpq_flush_from_an_llc_writeback(self, small_config):
        addrs = conflict_addresses(small_config, paddr(small_config, 0), 6)
        trace = ProgramTrace([ThreadTrace(
            [TraceOp.store(a, i + 1) for i, a in enumerate(addrs)])])

        def in_flight(system, visit):
            return bool(system.hierarchy.inflight_writebacks)

        visits = sweep_matches_replay("eadr", small_config, trace,
                                      probe=in_flight)
        assert any(flying for _, site, flying in visits if site == SITE_WPQ)


class TestSmokeReplayDiff:
    """The smoke gate replays sampled points through real crashes and
    fails on any verdict the sweep got differently."""

    def _unit(self):
        from repro.check.checker import CheckUnit
        from repro.workloads.base import WorkloadSpec

        return CheckUnit(scheme="bbb", spec=WorkloadSpec(
            threads=2, ops=2, elements=64, seed=11))

    def test_honest_kernel_matches(self):
        from repro.check.checker import _replay_mismatches, explore

        unit = self._unit()
        verdicts, _, _ = explore(unit)
        assert _replay_mismatches(unit, verdicts) == []

    def test_divergent_kernel_is_flagged(self, monkeypatch):
        from repro.check import explore as kernel
        from repro.check.checker import _replay_mismatches, explore

        def residue_only(system):
            return [(b.block_addr, b.data)
                    for b in system.scheme.battery_residue()]

        # A kernel that forgets the battery-backed store-buffer words.
        monkeypatch.setattr(kernel, "crash_writes", residue_only)
        unit = self._unit()
        verdicts, _, _ = explore(unit)
        assert _replay_mismatches(unit, verdicts)


class TestSweep:
    def _system(self, config, schedule, **options):
        return build_system("bbb", config=config, options=RunOptions(
            crash_schedule=schedule, **options))

    def test_points_select_visits_and_observe_can_stop(self, small_config):
        trace = ProgramTrace([ThreadTrace(_stores(small_config, range(4)))])
        seen = []
        assert sweep(self._system(small_config, CrashSchedule()), trace,
                     lambda v: seen.append(v.point), points=[2, 5])
        assert seen == [2, 5]
        seen.clear()
        assert not sweep(self._system(small_config, CrashSchedule()), trace,
                         lambda v: seen.append(v.point) or v.point == 3)
        assert seen == [1, 2, 3]

    def test_site_filter_projects_the_visits(self, small_config):
        trace = ProgramTrace([ThreadTrace(_stores(small_config, range(4)))])
        schedule = CrashSchedule(sites=(SITE_POV,))
        crash_ops = []
        sweep(self._system(small_config, schedule), trace,
              lambda v: crash_ops.append((v.site, v.crash_op)))
        # The op count still advances past filtered-out op boundaries.
        assert crash_ops == [(SITE_POV, i) for i in range(4)]

    def test_rejects_a_firing_schedule_and_fault_injection(self, small_config):
        trace = ProgramTrace([ThreadTrace(_stores(small_config, range(2)))])
        with pytest.raises(ValueError):
            sweep(self._system(small_config, CrashSchedule(stop_at=1)),
                  trace, lambda v: None)
        faulty = self._system(small_config, CrashSchedule(),
                              fault_injector=FaultInjector(FaultPlan()))
        with pytest.raises(ValueError):
            sweep(faulty, trace, lambda v: None)

    def test_scheduled_runs_keep_the_event_stream(self, small_config):
        """The crash-observable TSO store path emits exactly the events of
        the unscheduled fast path (no store-buffer events)."""
        from repro.obs.bus import EventBus

        trace = ProgramTrace([ThreadTrace(
            _stores(small_config, range(12)) + [TraceOp.fence()])])
        streams = []
        for schedule in (None, CrashSchedule()):
            bus = EventBus()
            events = []
            bus.subscribe(events.append)
            options = {"bus": bus}
            if schedule is not None:
                options["crash_schedule"] = schedule
            build_system("bbb", config=small_config, entries=2,
                         options=RunOptions(**options)).run(trace)
            streams.append(events)
        assert streams[0] == streams[1]


def full_scan_writes(system):
    """The crash writes by a scan of every structure of every core, in
    drain order: each cache array block by block (eADR: the L1s in core
    order, then the LLC, then writebacks in flight), every bbPB's battery
    entries (BBB: then coherence moves in flight), then every store
    buffer's crash-drain order.  The reference for :func:`crash_writes`,
    which reads occupied structures only."""
    h, scheme = system.hierarchy, system.scheme
    is_nvmm = h.config.mem.is_nvmm
    writes = []
    if isinstance(scheme, EADR):
        drained = {}
        l1s = () if isinstance(scheme, ForgetfulEADR) else h.l1s
        for l1 in l1s:
            for blk in l1.blocks():
                if blk.dirty and is_nvmm(blk.addr):
                    drained[blk.addr] = blk.data
        for blk in h.llc.blocks():
            if blk.dirty and is_nvmm(blk.addr) and blk.addr not in drained:
                drained[blk.addr] = blk.data
        for addr, data in h.inflight_writebacks:
            if is_nvmm(addr) and addr not in drained:
                drained[addr] = data
        writes.extend(drained.items())
    elif isinstance(scheme, BBBScheme):
        for buf in scheme.buffers:
            writes.extend(buf.battery_entries())
        resident = {baddr for baddr, _ in writes}
        writes.extend((baddr, data)
                      for baddr, data in h.inflight_bbpb_moves.items()
                      if baddr not in resident)
    block = h.config.block_size
    for sb in h.store_buffers:
        for entry in sb.drain_order_on_crash():
            if entry.persistent:
                data = BlockData()
                data.write_word(entry.addr % block, entry.value, entry.size)
                writes.append((entry.addr - entry.addr % block, data))
    return writes


class TestResidueReadsOccupiedStructuresOnly:
    """On a machine whose idle cores sit between busy ones, with bbPB
    entries, store-buffer entries and dirty L1 and LLC lines live at once,
    :func:`crash_writes` must equal the full scan at every visit: the
    same blocks, in the same order, with the same bytes."""

    @pytest.mark.parametrize("scheme,mutant", [
        ("eadr", None), ("bbb", None), ("bbb-proc", None),
        ("eadr", "eadr-skip-l1"),
    ], ids=["eadr", "bbb", "bbb-proc", "eadr-skip-l1"])
    def test_crash_writes_equal_a_full_scan(self, small_config, scheme,
                                            mutant):
        # Relaxed consistency keeps stores waiting in the store buffers.
        config = dataclasses.replace(
            small_config, consistency=ConsistencyModel.RELAXED)
        mem = config.mem
        shared = paddr(config, 0)
        nvmm_volatile = mem.nvmm_base
        assert mem.is_nvmm(nvmm_volatile)
        assert not mem.is_persistent(nvmm_volatile)
        busy0 = _stores(config, range(4)) + [
            TraceOp.store(daddr(config, 1), 5),
            TraceOp.store(nvmm_volatile, 6),
            TraceOp.compute(400),
            TraceOp.store(paddr(config, 4), 7),
        ]
        # Core 2's load downgrades core 0's dirty copy: the line is then
        # dirty in the LLC alone.
        busy2 = [TraceOp.compute(60), TraceOp.load(shared)] + \
            _stores(config, range(8, 12), value=50) + [
                TraceOp.store(a, 90 + i) for i, a in enumerate(
                    conflict_addresses(config, paddr(config, 9), 4))]
        # Core 1 runs nothing, core 3 has no thread at all.
        trace = ProgramTrace([ThreadTrace(busy0), ThreadTrace([]),
                              ThreadTrace(busy2)])
        system = build_crash_system(scheme, mutant=mutant, entries=8,
                                    config=config,
                                    crash_schedule=CrashSchedule())
        h = system.hierarchy
        seen = set()

        def dirty_nvmm(cache):
            return {b.addr for b in cache.blocks()
                    if b.dirty and mem.is_nvmm(b.addr)}

        def observe(visit):
            got = [(b, d.value, d.mask) for b, d in crash_writes(system)]
            want = [(b, d.value, d.mask) for b, d in full_scan_writes(system)]
            assert got == want, (visit.point, visit.site)
            if any(sb.fifo for sb in h.store_buffers):
                seen.add("store buffer")
            if isinstance(system.scheme, BBBScheme):
                full = [c for c, buf in enumerate(system.scheme.buffers)
                        if buf.battery_entries()]
                if full == [0, 2]:
                    seen.add("bbPBs of two cores")
            else:
                l1_dirty = [c for c, l1 in enumerate(h.l1s)
                            if dirty_nvmm(l1)]
                if l1_dirty == [0, 2]:
                    seen.add("dirty L1s of two cores")
                if dirty_nvmm(h.llc) - set().union(*map(dirty_nvmm, h.l1s)):
                    seen.add("dirty in the LLC alone")

        assert sweep(system, trace, observe)
        expected = {"store buffer"} | (
            {"bbPBs of two cores"} if scheme != "eadr" else
            {"dirty L1s of two cores", "dirty in the LLC alone"})
        assert seen == expected
