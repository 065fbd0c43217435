#!/usr/bin/env python3
"""Quickstart: run one workload under BBB and under eADR and compare.

This is the 60-second tour of the library:

1. build a simulated system (Table III configuration, scaled down),
2. generate a persist-heavy workload trace (the paper's ``hashmap``),
3. run it under BBB (32-entry battery-backed persist buffers) and under
   eADR (whole-hierarchy battery backing),
4. compare execution time, NVMM writes, and bbPB behaviour.

Run:  python examples/quickstart.py
"""

from repro import BBBConfig, WorkloadSpec, build_system
from repro.analysis.experiments import default_sim_config, steady_state_nvmm_writes
from repro.analysis.tables import render_table
from repro.workloads.base import make_workload


def main() -> None:
    # A scaled-down Table III system: 8 cores, private L1Ds, shared LLC,
    # hybrid DRAM/NVMM memory, 32-entry bbPB per core.
    config = default_sim_config()
    print(f"system: {config.num_cores} cores, "
          f"L1D {config.l1d.size_bytes // 1024} kB, "
          f"LLC {config.llc.size_bytes // 1024} kB, "
          f"bbPB {BBBConfig.entries} entries/core")

    # The hashmap insertion workload from Table IV: every insert allocates
    # a node in the persistent heap and publishes it via the bucket head.
    spec = WorkloadSpec(threads=8, ops=200, elements=16384)
    workload = make_workload("hashmap", config.mem, spec)
    trace = workload.build()
    print(f"workload: {workload.description}")
    print(f"trace: {trace.total_ops():,} ops, "
          f"{workload.p_store_fraction(trace) * 100:.1f}% persisting stores\n")

    rows = []
    for label, scheme in (("BBB (32 entries)", "bbb"), ("eADR (optimal)", "eadr")):
        system = build_system(scheme, config=config)
        workload.seed_media(system.nvmm_media)
        result = system.run(trace, finalize=False)
        stats = result.stats
        rows.append(
            (
                label,
                f"{stats.execution_cycles:,}",
                steady_state_nvmm_writes(system),
                stats.bbpb_allocations,
                stats.bbpb_coalesces,
                stats.bbpb_rejections,
            )
        )

    print(
        render_table(
            ["Scheme", "Exec cycles", "NVMM writes", "bbPB allocs",
             "bbPB coalesces", "bbPB rejections"],
            rows,
            title="BBB vs eADR on the hashmap workload",
        )
    )
    print(
        "\nBBB matches eADR's execution time while persisting every store\n"
        "the moment it becomes visible — no flushes, no fences — and its\n"
        "battery only ever has to drain the tiny per-core persist buffers."
    )


if __name__ == "__main__":
    main()
