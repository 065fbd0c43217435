#!/usr/bin/env python3
"""The paper's motivating example, end to end (Figures 2 and 3 + Sec. II-A).

A persistent linked list is appended to with the *plain* code of Figure 2
(no flushes, no fences).  We crash the machine at every point of the
program under three designs and try to recover:

* volatile caches (ADR only)  — the head pointer can persist, via cache
  replacement, before the node it points to: recovery finds a corrupt
  list ("the new node will be lost while the head pointer still points to
  it", Section II-A);
* BBB                         — the same unmodified code is crash
  consistent at every crash point;
* ADR + Figure 3's explicit writeBack/persistBarrier pairs — also safe,
  but only because the programmer inserted the barriers correctly.

Run:  python examples/linked_list_crash.py
"""

from repro import RunOptions, SystemConfig, WorkloadSpec, build_system
from repro.check import SITE_OP, CrashSchedule
from repro.check.explore import sweep
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from repro.workloads.linkedlist import LinkedListAppend


def eviction_pressure(config, target_addr, count):
    """Loads that evict ``target_addr``'s LLC set (cache-replacement-order
    persistence needs evictions to do any persisting at all)."""
    block = config.block_size
    num_sets = config.llc.num_sets
    target_set = (target_addr // block) % num_sets
    candidate = config.mem.persistent_base // block
    candidate += (target_set - candidate) % num_sets
    addrs = []
    while len(addrs) < count:
        addr = candidate * block
        if addr != (target_addr // block) * block:
            addrs.append(addr)
        candidate += num_sets
    return [TraceOp.load(a) for a in addrs]


def build_trace(config, barriers: bool):
    workload = LinkedListAppend(
        config.mem, WorkloadSpec(threads=1, ops=6), isolate_blocks=True
    )
    base = workload.build_with_barriers() if barriers else workload.build()
    ops = list(base.threads[0])
    # Pressure the head-pointer block out of the LLC mid-program.
    ops.extend(eviction_pressure(config, workload.head_slot, config.llc.assoc))
    return workload, ProgramTrace([ThreadTrace(ops)])


def crash_sweep(config, scheme, barriers: bool):
    """Crash after every op, all in one run: each visit of an op-boundary
    crash schedule carries the durable image a crash there leaves.
    Returns ``(crash points, [(op, violations)] of inconsistent ones)``."""
    workload, trace = build_trace(config, barriers)
    checker = workload.make_checker()
    total = trace.total_ops()
    inconsistent = []

    def observe(visit):
        ok, violations = checker(visit, visit)
        if not ok:
            inconsistent.append((visit.point, violations))
        return visit.point == total  # stop: no crash point is left

    schedule = CrashSchedule(sites=(SITE_OP,))
    system = build_system(scheme, config=config,
                          options=RunOptions(crash_schedule=schedule))
    workload.seed_media(system.nvmm_media)
    sweep(system, trace, observe)
    return total, inconsistent


def summary(total, inconsistent) -> str:
    bad = len(inconsistent)
    return (f"{total} crash points, {total - bad} consistent, "
            f"{bad} inconsistent")


def main() -> None:
    config = SystemConfig(num_cores=2).scaled_for_testing()

    print("Figure 2 code (no flushes/fences), volatile caches + ADR:")
    total, inconsistent = crash_sweep(config, "none", barriers=False)
    print(f"  {summary(total, inconsistent)}")
    for crash_op, violations in inconsistent[:3]:
        print(f"  crash after op {crash_op}: {violations[0]}")

    print("\nFigure 2 code (no flushes/fences), BBB:")
    print(f"  {summary(*crash_sweep(config, 'bbb', barriers=False))}")

    print("\nFigure 3 code (explicit writeBack + persistBarrier), ADR only:")
    print(f"  {summary(*crash_sweep(config, 'none', barriers=True))}")

    print(
        "\nBBB makes the *plain* code safe: the store that publishes the\n"
        "node persists the instant it becomes visible, so no crash point\n"
        "can expose the pointer without the node."
    )


if __name__ == "__main__":
    main()
