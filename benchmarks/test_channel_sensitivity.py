"""Sensitivity: NVMM channel count vs bbPB drain backpressure.

Table V gives the platforms 2 (mobile) and 12 (server) memory channels,
and Table VIII's drain times scale with them.  In the simulator, channels
parallelise WPQ acceptance, so a small bbPB under heavy persist pressure
is rejected less often as channels increase.  At this size the fewer
rejections do not shorten the run: execution time is the same at every
channel count.
"""

import dataclasses

from repro.analysis.batch import RunSpec
from repro.analysis.experiments import run_cells
from repro.analysis.tables import render_table

CHANNELS = (1, 2, 4, 8)
WORKLOAD = "swapNC"
ENTRIES = 4  # small buffer: drain-limited on purpose


def test_channel_count_vs_drain_stalls(benchmark, report, sim_config, sweep_spec):
    def sweep():
        runs = run_cells([
            RunSpec(WORKLOAD, "bbb", (("entries", ENTRIES),), sweep_spec,
                    dataclasses.replace(
                        sim_config,
                        mem=dataclasses.replace(sim_config.mem,
                                                nvmm_channels=channels),
                    ))
            for channels in CHANNELS
        ])
        return [(channels, run.execution_cycles, run.bbpb_rejections)
                for channels, run in zip(CHANNELS, runs)]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    base_cycles = rows[0][1]
    table = render_table(
        ["NVMM channels", "exec cycles", "vs 1-channel", "bbPB rejections"],
        [
            (ch, f"{cy:,}", f"{cy / base_cycles:.3f}", rej)
            for ch, cy, rej in rows
        ],
        title=f"Drain backpressure vs NVMM channels ({WORKLOAD}, "
              f"{ENTRIES}-entry bbPB)",
    )
    report(table)

    by_channels = {ch: (cy, rej) for ch, cy, rej in rows}
    # More channels never hurt: from 1 -> 8 channels neither the run time
    # nor the bbPB rejections grow.
    assert by_channels[8][0] <= by_channels[1][0]
    assert by_channels[8][1] <= by_channels[1][1]
