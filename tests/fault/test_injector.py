"""Per-site injector behaviour and end-to-end fault semantics on a live
system."""

from repro.api import build_system
from repro.core.recovery import (
    Outcome,
    check_exact_durability,
    classify_outcome,
)
from repro.fault.injector import NULL_INJECTOR, FaultInjector
from repro.fault.plan import (
    FaultPlan,
    FaultSpec,
    SITE_BATTERY,
    SITE_BBPB_ENTRY,
    SITE_FORCED_DRAIN,
    SITE_NVMM_WRITE,
)
from repro.mem.block import BlockData
from repro.mem.coherence import DrainMessageChannel
from repro.mem.memctrl import NVMMController, WPQ_WRITE_MAX_RETRIES
from repro.sim.config import SystemConfig
from repro.sim.stats import SimStats
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import crash_after

CFG = SystemConfig(num_cores=2).scaled_for_testing()


def _store_trace(num_blocks=12, stores_per_block=1):
    base = CFG.mem.persistent_base
    ops = [
        TraceOp.store(base + b * 64, 0x1000 + b * 8 + s)
        for b in range(num_blocks)
        for s in range(stores_per_block)
    ]
    return ProgramTrace([ThreadTrace(ops)])


def _block_data(value=0xDEADBEEF):
    data = BlockData()
    data.write_word(0, value, 4)
    return data


# ----------------------------------------------------------------------
# Site: battery.crash_drain
# ----------------------------------------------------------------------

def test_battery_budget_and_brownout_detection():
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                  params=(("blocks", 2),)),
    ))
    injector = FaultInjector(plan)
    injector.begin_crash_drain(total_units=5, now=100)
    draws = [injector.battery_allows(100) for _ in range(5)]
    assert draws == [True, True, False, False, False]
    assert injector.battery.drained == 2
    assert injector.battery.lost == 3
    # Injection recorded once (first failed draw), detected via brown-out.
    assert [r.fault for r in injector.injected] == ["exhaustion"]
    assert [r.fault for r in injector.detected] == ["exhaustion"]


def test_battery_fraction_budget():
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                  params=(("fraction", 0.5),)),
    ))
    injector = FaultInjector(plan)
    injector.begin_crash_drain(total_units=8, now=0)
    assert injector.battery.capacity_units == 4


def test_battery_without_fault_is_unlimited():
    injector = FaultInjector(FaultPlan())
    injector.begin_crash_drain(total_units=3, now=0)
    assert all(injector.battery_allows(0) for _ in range(100))
    assert not injector.injected


def test_brownout_disabled_is_undetected():
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                  params=(("blocks", 0), ("brownout", False))),
    ))
    injector = FaultInjector(plan)
    injector.begin_crash_drain(total_units=2, now=0)
    assert not injector.battery_allows(0)
    assert injector.injected_count == 1
    assert injector.detected_count == 0


# ----------------------------------------------------------------------
# Site: nvmm.write (via the controller)
# ----------------------------------------------------------------------

def _controller(plan):
    injector = FaultInjector(plan)
    ctrl = NVMMController(CFG.mem, SimStats(num_cores=1), injector=injector)
    return ctrl, injector


def test_torn_write_detected_by_ecc_and_healed_by_rewrite():
    baddr = CFG.mem.persistent_base
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_NVMM_WRITE, fault="torn",
                  params=(("keep_bytes", 2),)),
    ))
    ctrl, injector = _controller(plan)
    data = _block_data(0x11223344)
    ctrl.write(baddr, data, now=0)
    assert baddr in ctrl.media.torn_blocks
    got = ctrl.media.peek_block(baddr)
    assert got.read(0) == 0x44 and got.read(1) == 0x33  # kept prefix
    assert got.read(2) == 0 and got.read(3) == 0        # torn tail
    assert [r.fault for r in injector.detected] == ["torn"]
    # A later complete write of the row re-encodes its ECC.
    ctrl.write(baddr, data, now=100)
    assert baddr not in ctrl.media.torn_blocks
    assert ctrl.media.peek_block(baddr).read(3) == 0x11


def test_transient_failures_within_retry_budget_succeed():
    baddr = CFG.mem.persistent_base
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_NVMM_WRITE, fault="transient",
                  params=(("failures", 2),)),
    ))
    ctrl, injector = _controller(plan)
    clean_done = NVMMController(CFG.mem, SimStats(num_cores=1)).write(
        baddr, _block_data(), now=0
    )
    done = ctrl.write(baddr, _block_data(0xABCD), now=0)
    # Each retry re-occupies the write port.
    assert done == clean_done + 2 * CFG.mem.wpq_accept_cycles
    assert ctrl.media.peek_block(baddr).read(0) == 0xCD  # write landed
    assert injector.injected_count == 1
    assert injector.detected_count == 0  # absorbed, no machine check


def test_transient_exhausting_retries_drops_write_with_machine_check():
    baddr = CFG.mem.persistent_base
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_NVMM_WRITE, fault="transient",
                  params=(("failures", WPQ_WRITE_MAX_RETRIES + 2),)),
    ))
    ctrl, injector = _controller(plan)
    ctrl.write(baddr, _block_data(0xABCD), now=0)
    assert ctrl.media.peek_block(baddr).read(0) == 0  # write never landed
    assert [r.fault for r in injector.detected] == ["transient"]
    assert "machine check" in injector.detected[0].detail


def test_nth_selects_the_target_write():
    b0 = CFG.mem.persistent_base
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_NVMM_WRITE, fault="torn", nth=2,
                  params=(("keep_bytes", 1),)),
    ))
    ctrl, _ = _controller(plan)
    ctrl.write(b0, _block_data(), now=0)
    ctrl.write(b0 + 64, _block_data(), now=0)
    ctrl.write(b0 + 128, _block_data(), now=0)
    assert ctrl.media.torn_blocks == {b0 + 64}


# ----------------------------------------------------------------------
# Site: coherence.forced_drain
# ----------------------------------------------------------------------

class _FakeBuffer:
    core_id = 3

    def __init__(self):
        self.drained = []

    def force_drain(self, block_addr, now):
        self.drained.append(block_addr)
        return now + 5


def test_drain_channel_drop_keeps_entry_resident():
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_FORCED_DRAIN, fault="drop"),
    ))
    injector = FaultInjector(plan)
    channel = DrainMessageChannel(injector)
    buf = _FakeBuffer()
    delivered, _ = channel.deliver(buf, 0x1000, now=10)
    assert not delivered and buf.drained == []
    assert [(r.site, r.fault, r.addr, r.cycle) for r in injector.injected] \
        == [(SITE_FORCED_DRAIN, "drop", 0x1000, 10)]
    # The single-shot fault has passed: the next message goes through.
    delivered, done = channel.deliver(buf, 0x1040, now=20)
    assert delivered and buf.drained == [0x1040] and done == 25


def test_drain_channel_delay_postpones_delivery():
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_FORCED_DRAIN, fault="delay",
                  params=(("cycles", 30),)),
    ))
    injector = FaultInjector(plan)
    channel = DrainMessageChannel(injector)
    buf = _FakeBuffer()
    delivered, done = channel.deliver(buf, 0x1000, now=10)
    assert delivered and done == 10 + 30 + 5
    assert [(r.site, r.fault, r.addr, r.cycle) for r in injector.injected] \
        == [(SITE_FORCED_DRAIN, "delay", 0x1000, 10)]


# ----------------------------------------------------------------------
# Site: bbpb.entry
# ----------------------------------------------------------------------

def test_bbpb_corruption_caught_by_parity_drops_entry():
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_BBPB_ENTRY, fault="corrupt",
                  params=(("bit", 4),)),
    ))
    injector = FaultInjector(plan)
    out, corrupted = injector.on_bbpb_crash_entry(0, 0x2000, _block_data(), 0)
    assert corrupted and out is None  # detected loss: entry discarded
    assert [r.fault for r in injector.detected] == ["corrupt"]


def test_bbpb_corruption_without_parity_flips_one_bit():
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_BBPB_ENTRY, fault="corrupt",
                  params=(("bit", 4), ("parity", False))),
    ))
    injector = FaultInjector(plan)
    data = _block_data()
    out, corrupted = injector.on_bbpb_crash_entry(0, 0x2000, data, 0)
    assert corrupted and out is not None
    diffs = [
        off for off in data.bytes if out.read(off) != data.read(off)
    ]
    assert len(diffs) == 1
    assert bin(out.read(diffs[0]) ^ data.read(diffs[0])).count("1") == 1
    assert injector.detected_count == 0  # silent without parity


# ----------------------------------------------------------------------
# End-to-end: faults on a live system
# ----------------------------------------------------------------------

def test_battery_exhaustion_mid_drain_is_detected_inconsistent():
    trace = _store_trace(num_blocks=10)
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                  params=(("blocks", 1),)),
    ))
    injector = FaultInjector(plan)
    system = build_system("bbb", config=CFG, entries=32,
                          options=crash_after(trace.total_ops(),
                                              fault_injector=injector))
    result = system.run(trace)
    contract = check_exact_durability(
        system.nvmm_media, result.committed_persists
    )
    assert not contract.consistent  # entries beyond the budget were lost
    assert injector.detected_count >= 1
    outcome = classify_outcome(contract, injector.detected_count > 0)
    assert outcome is Outcome.DETECTED_INCONSISTENT


def test_brownout_disabled_battery_loss_is_silent():
    """The taxonomy's worst case is reachable — but only by explicitly
    disabling a detection channel, modelling cheaper hardware."""
    trace = _store_trace(num_blocks=10)
    plan = FaultPlan(faults=(
        FaultSpec(site=SITE_BATTERY, fault="exhaustion",
                  params=(("blocks", 1), ("brownout", False))),
    ))
    injector = FaultInjector(plan)
    system = build_system("bbb", config=CFG, entries=32,
                          options=crash_after(trace.total_ops(),
                                              fault_injector=injector))
    result = system.run(trace)
    contract = check_exact_durability(
        system.nvmm_media, result.committed_persists
    )
    assert not contract.consistent
    outcome = classify_outcome(contract, injector.detected_count > 0)
    assert outcome is Outcome.SILENT_CORRUPTION


def test_enabled_injector_with_empty_plan_is_bit_identical():
    """An attached injector whose plan is empty must not perturb the run:
    same stats, same durable image as the NULL_INJECTOR default."""
    trace = _store_trace(num_blocks=8, stores_per_block=2)

    def run(injector):
        system = build_system("bbb", config=CFG, entries=8,
                              options=crash_after(trace.total_ops(),
                                                  fault_injector=injector))
        result = system.run(trace)
        return result.stats.to_dict(), system.nvmm_media

    base_stats, base_media = run(NULL_INJECTOR)
    fault_stats, fault_media = run(FaultInjector(FaultPlan()))
    assert fault_stats == base_stats
    base_blocks = {a: base_media.peek_block(a).bytes
                   for a in range(CFG.mem.persistent_base,
                                  CFG.mem.persistent_base + 16 * 64, 64)}
    fault_blocks = {a: fault_media.peek_block(a).bytes
                    for a in base_blocks}
    assert fault_blocks == base_blocks
