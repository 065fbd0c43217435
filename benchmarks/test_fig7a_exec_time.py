"""Figure 7(a): execution time of BBB-32 and BBB-1024, normalized to eADR.

Paper result: 32-entry BBB is within ~1% of eADR on average (2.8% worst
case); 1024-entry BBB is nearly identical.  The exhibit prints one row per
workload plus the geomean.
"""

from repro.analysis.experiments import fig7, fig7_averages
from repro.analysis.tables import render_table


def test_fig7a_execution_time(benchmark, report, sim_config, bench_spec):
    rows = benchmark.pedantic(
        lambda: fig7(spec=bench_spec, config=sim_config), rounds=1, iterations=1
    )
    exec_avg, _ = fig7_averages(rows)

    labels = list(rows[0].exec_time)
    table = render_table(
        ["Workload"] + labels,
        [[r.workload] + [f"{r.exec_time[l]:.3f}" for l in labels] for r in rows]
        + [["geomean"] + [f"{exec_avg[l]:.3f}" for l in labels]],
        title="Fig. 7(a): execution time normalized to eADR (lower = better)",
    )
    report(table)

    # Shape assertions matching the paper's claims.
    assert exec_avg["Optimal (eADR)"] == 1.0
    # BBB-32: "worse than eADR by only about 1% on average, 2.8% worst case"
    assert exec_avg["BBB (32)"] <= 1.05
    for r in rows:
        assert r.exec_time["BBB (32)"] <= 1.10, (r.workload, r.exec_time)
    # BBB-1024 achieves nearly identical performance with eADR.
    assert abs(exec_avg["BBB (1024)"] - 1.0) <= 0.01
