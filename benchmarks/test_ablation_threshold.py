"""Ablation: the bbPB drain-occupancy threshold (Section III-F).

The paper motivates the threshold policy as "keep bbPB as full as possible
while keeping the probability of full bbPB low" and reports that 75%
works well for a 32-entry buffer.  This ablation sweeps the threshold and
shows the trade-off: a low threshold drains early (shorter coalescing
window, more NVMM writes, but slack capacity for bursts); a 100% threshold
maximises coalescing but every burst hits a full buffer.
"""

from repro.analysis.batch import RunSpec
from repro.analysis.experiments import run_cells
from repro.analysis.tables import geomean, render_table

THRESHOLDS = (0.25, 0.50, 0.75, 1.00)
WORKLOADS = ("swapNC", "hashmap", "rtree")


def test_ablation_drain_threshold(benchmark, report, sim_config, sweep_spec):
    def sweep():
        cells = iter(run_cells([
            RunSpec(name, "bbb",
                    (("entries", 32), ("drain_threshold", threshold)),
                    sweep_spec, sim_config)
            for threshold in THRESHOLDS
            for name in WORKLOADS
        ]))
        results = {}
        for threshold in THRESHOLDS:
            runs = [next(cells) for _ in WORKLOADS]
            results[threshold] = {
                "writes": sum(r.nvmm_writes for r in runs),
                "rejections": sum(r.bbpb_rejections for r in runs),
                "cycles": geomean([r.execution_cycles for r in runs]),
                "drains": sum(r.bbpb_drains for r in runs),
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = render_table(
        ["Threshold", "NVMM writes", "Drains", "Rejections", "Exec cycles (geomean)"],
        [
            (
                f"{int(t * 100)}%",
                results[t]["writes"],
                results[t]["drains"],
                results[t]["rejections"],
                f"{results[t]['cycles']:,.0f}",
            )
            for t in THRESHOLDS
        ],
        title="Ablation: bbPB drain threshold (32 entries)",
    )
    report(table)

    # Earlier draining can only shorten the coalescing window: NVMM writes
    # are monotonically non-increasing as the threshold rises.
    writes = [results[t]["writes"] for t in THRESHOLDS]
    assert all(a >= b for a, b in zip(writes, writes[1:])), writes
    # A full-buffer (100%) threshold invites rejections relative to 75%.
    assert results[1.00]["rejections"] >= results[0.75]["rejections"]
