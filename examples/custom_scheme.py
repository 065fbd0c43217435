"""Register a brand-new persistency scheme without touching ``src/repro``.

The scheme registry (:mod:`repro.core.registry`) makes schemes plugins: a
:func:`~repro.core.registry.register_scheme` call from *any* module makes
the new scheme constructible through :func:`repro.api.build_system`,
checkable by the crash-consistency model checker and the litmus battery,
and runnable through a fault campaign — with zero edits to the core
package.  The registration declares the scheme's crash semantics once:
its ``persistency_model`` (the litmus battery's gate) and
``exact_durability`` (from which the crash checker derives the ``exact``
contract).

The scheme here is a write-through BBB ablation, ``bbb-nocoalesce``: every
persisting store's bbPB entry is drained as it allocates (the ``EAGER``
drain policy), so nothing ever coalesces in the buffer.  It isolates how
much of BBB's NVMM-write win over strict PMEM comes from coalescing
(versus merely removing flush/fence stalls): same battery, same PoV ==
PoP, same exact contract, but persist-buffer coalescing disabled.

Run with::

    PYTHONPATH=src python examples/custom_scheme.py
"""

from repro import WorkloadSpec
from repro.api import build_system
from repro.check.checker import CheckUnit, explore
from repro.core.persistency import BBBScheme
from repro.core.registry import (
    BBB,
    MODEL_STRICT,
    ORDERING_ALL,
    register_scheme,
    scheme_info,
)
from repro.fault.campaign import canonical_plans, run_campaign
from repro.sim.config import BBBConfig, DrainPolicy
from repro.workloads.base import make_workload

SCHEME_NAME = "bbb-nocoalesce"


class WriteThroughBBB(BBBScheme):
    """BBB with coalescing disabled: drain each store as it allocates.

    The entry still passes through the battery domain (PoV == PoP holds,
    in-flight drains are durable on crash), so the exact contract is
    unchanged — only the write traffic differs.  The factory below sets
    the drain policy; the subclass exists so its objects carry the
    registered name, not ``bbb``.
    """


# replace=True keeps re-imports (e.g. the example suite running this file
# twice in one process) idempotent.
@register_scheme(
    SCHEME_NAME,
    cls=WriteThroughBBB,
    # Draining early never weakens ordering: the ablation still persists
    # stores in visibility order, so it inherits BBB's strict model and
    # the litmus battery gates it below with zero core edits.
    persistency_model=MODEL_STRICT,
    # PoV == PoP: every committed persist survives any crash, so the
    # crash checker derives the exact contract and applies it below.
    exact_durability=True,
    has_persist_buffer=True,
    battery_domain=True,
    accepted_kwargs=("drain_threshold",),
    # The battery still covers every in-flight entry, so PoV == PoP holds
    # and the persist optimizer may elide flushes, fences, and epoch
    # boundaries alike — same full contract as stock BBB.
    ordering_contract=ORDERING_ALL,
    display="BBB (no coalescing)",
    doc="write-through BBB ablation: drain every persisting store as it "
        "allocates",
    replace=True,
)
def build_write_through_bbb(cls, entries,
                            drain_threshold=BBBConfig.drain_threshold):
    return cls(BBBConfig(entries=entries, drain_threshold=drain_threshold,
                         drain_policy=DrainPolicy.EAGER, memory_side=True))


def main() -> int:
    info = scheme_info(SCHEME_NAME)
    print(f"registered scheme {info.name!r} "
          f"(contract={info.contract}, battery_domain={info.battery_domain})")

    # 1. build_system knows the plugin by name, like any builtin scheme.
    spec = WorkloadSpec(threads=2, ops=40, elements=512, seed=7)
    config = build_system(SCHEME_NAME).config.scaled_for_testing()

    def run_scheme(name):
        system = build_system(name, entries=8, config=config)
        workload = make_workload("hashmap", config.mem, spec)
        trace = workload.build()
        workload.seed_media(system.nvmm_media)
        return system.run(trace)

    ablation = run_scheme(SCHEME_NAME)
    baseline = run_scheme(BBB)
    ratio = ablation.stats.nvmm_writes / max(1, baseline.stats.nvmm_writes)
    print(f"NVMM writes: {SCHEME_NAME}={ablation.stats.nvmm_writes} "
          f"vs {BBB}={baseline.stats.nvmm_writes} ({ratio:.2f}x)")
    if ablation.stats.nvmm_writes < baseline.stats.nvmm_writes:
        print("error: write-through ablation wrote less than coalescing BBB")
        return 1

    # The observed run's events must reconcile with its counters, and a
    # write-through drain is a plain drain: forced drains count only the
    # LLC's dirty-inclusion drains.
    from repro.obs.profile import profile_run

    profile = profile_run("hashmap", SCHEME_NAME, entries=8, spec=spec,
                          config=config)
    print(f"profile: {profile.stats.bbpb_drains} drains, "
          f"{profile.stats.bbpb_forced_drains} forced, "
          f"reconciled={profile.ok}")
    if not profile.ok:
        print("error: the profiled run's events and stats disagree")
        return 1
    if profile.stats.bbpb_forced_drains:
        print("error: write-through drains counted as forced drains")
        return 1

    # 2. The crash checker applies the contract the registration declared.
    check_spec = WorkloadSpec(threads=2, ops=3, elements=64, seed=7)
    verdicts, total, _ = explore(
        CheckUnit(scheme=SCHEME_NAME, spec=check_spec)
    )
    bad = [v for v in verdicts if not v.consistent]
    print(f"crash check: {len(verdicts)}/{total} micro-step crash points, "
          f"{len(bad)} violations")
    if bad:
        print(f"error: first violation: {bad[0].violations[0]}")
        return 1

    # 3. A fault campaign over the plugin (jobs=1: worker subprocesses
    #    would not have this module imported, so the plugin only exists
    #    in-process).
    report = run_campaign(
        [SCHEME_NAME], ["hashmap"], canonical_plans(), check_spec,
        seed=7, entries=8, jobs=1,
    )
    silent = report["battery_domain"]["silent_corruption"]
    print(f"fault campaign: {len(report['units'])} units, "
          f"battery-domain silent corruption: {silent}")
    if silent:
        print("error: plugin scheme silently corrupted under battery faults")
        return 1

    # 4. The litmus battery gates the plugin against the persistency
    #    model its registration declared.
    from repro.litmus.corpus import smoke_corpus
    from repro.litmus.runner import battery_failures, run_battery

    battery = run_battery(
        schemes=[SCHEME_NAME], tests=smoke_corpus(),
        include_mutants=False, minimize=False,
    )
    failures = battery_failures(battery)
    rollup = battery["schemes"][0]
    print(f"litmus battery: {len(battery['cells'])} cells under declared "
          f"model {rollup['declared_model']!r}, "
          f"conformant={rollup['conformant']}")
    if failures:
        print(f"error: {failures[0]}")
        return 1

    # 5. The serving frontend serves the plugin's traffic like any
    #    registered scheme's.
    from repro.serve import TrafficSpec, run_traffic

    traffic = TrafficSpec(requests=30, seed=7)
    point = run_traffic(SCHEME_NAME, traffic, entries=8)
    print(f"serving: completed {point.completed}/{traffic.requests} "
          f"requests, p99 {point.latency['p99']} cycles")
    if point.completed != traffic.requests:
        print("error: the serving frontend did not complete the traffic")
        return 1

    # 6. The persist optimizer honours the declared ordering contract:
    #    the plugin's naive clwb/sfence instrumentation is fully elided,
    #    every removal passes the independent audit, and the optimized
    #    program is re-verified against the same crash-checker oracles.
    from repro.opt import verify_workload_cell

    cell = verify_workload_cell("hashmap", SCHEME_NAME, spec=check_spec)
    print(f"persist optimizer: {cell['ops_naive']} -> "
          f"{cell['ops_optimized']} ops, "
          f"{cell['flush_fence_elision_pct']:.1f}% of flush/fence "
          f"instrumentation elided, verified={cell['ok']}")
    if not cell["ok"]:
        print(f"error: {cell['failures'][0]}")
        return 1
    if cell["flush_fence_elision_pct"] < 100.0:
        print("error: full-contract plugin kept redundant instrumentation")
        return 1

    print("custom scheme ran through build, check, faults, serving, "
          "and the persist optimizer: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
