"""Figure 7(b): number of NVMM writes, normalized to eADR.

Paper result: 32-entry BBB adds 4.9% writes on average (1-7.9% per
workload); 1024 entries brings the overhead under 1% (the larger buffer
captures nearly all coalescing that happens naturally in eADR's caches).
"""

from repro.analysis.experiments import fig7, fig7_averages
from repro.analysis.tables import render_table


def test_fig7b_nvmm_writes(benchmark, report, sim_config, bench_spec):
    rows = benchmark.pedantic(
        lambda: fig7(spec=bench_spec, config=sim_config), rounds=1, iterations=1
    )
    _, writes_avg = fig7_averages(rows)

    labels = list(rows[0].nvmm_writes)
    table = render_table(
        ["Workload"] + labels,
        [[r.workload] + [f"{r.nvmm_writes[l]:.3f}" for l in labels] for r in rows]
        + [["geomean"] + [f"{writes_avg[l]:.3f}" for l in labels]],
        title="Fig. 7(b): NVMM writes normalized to eADR (lower = better)",
    )
    report(table)

    assert writes_avg["Optimal (eADR)"] == 1.0
    # BBB-32 adds a small single-digit-% write overhead on average...
    assert 1.0 <= writes_avg["BBB (32)"] <= 1.20
    # ...and BBB-1024 is within ~1-2% of eADR.
    assert writes_avg["BBB (1024)"] <= 1.03
    # Monotonic: a bigger buffer never writes more.
    for r in rows:
        assert r.nvmm_writes["BBB (1024)"] <= r.nvmm_writes["BBB (32)"] + 1e-9
