"""Ablation: silently dropping LLC writebacks of persistent dirty blocks.

Section III-E, example (c): because a dirty persistent block in the LLC
"has or had a corresponding bbPB block", its value is already durable and
the LLC writeback can be skipped — a write-endurance saving.  This
ablation disables the optimisation and counts the redundant NVMM writes
it would have caused.
"""

import dataclasses

from repro.analysis.batch import RunSpec
from repro.analysis.experiments import run_cells
from repro.analysis.tables import render_table

WORKLOADS = ("mutateNC", "swapNC", "hashmap", "rtree")
BBB_32 = (("entries", 32),)


def test_ablation_silent_writeback_drop(benchmark, report, sim_config, sweep_spec):
    no_drop_cfg = dataclasses.replace(
        sim_config, silent_drop_persistent_writebacks=False
    )

    def sweep():
        runs = iter(run_cells([
            RunSpec(name, "bbb", BBB_32, sweep_spec, cfg)
            for name in WORKLOADS
            for cfg in (sim_config, no_drop_cfg)
        ]))
        results = {}
        for name in WORKLOADS:
            with_drop, without_drop = next(runs), next(runs)
            results[name] = (with_drop.nvmm_writes, without_drop.nvmm_writes)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = render_table(
        ["Workload", "writes (drop ON)", "writes (drop OFF)", "redundant writes"],
        [
            (name, on, off, f"+{(off - on) / max(1, on) * 100:.1f}%")
            for name, (on, off) in results.items()
        ],
        title="Ablation: silent drop of persistent dirty LLC writebacks",
    )
    report(table)

    # The optimisation saves NVMM writes on every workload with LLC
    # eviction traffic, and never costs any.
    for name, (on, off) in results.items():
        assert off >= on, name
    assert any(off > on for name, (on, off) in results.items())
