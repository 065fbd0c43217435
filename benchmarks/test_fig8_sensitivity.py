"""Figure 8: sensitivity to the bbPB size (1 to 1024 entries).

Paper result (geomean across workloads, normalized to the 1-entry bbPB):
(a) rejections due to full bbPB drop quickly, reaching ~zero by 16-32
entries; (b) execution time stops improving at ~32 entries; (c) drains to
NVMM keep falling until ~64 entries (the coalescing win).  32 entries is
the knee — the paper's default.
"""

from repro.analysis.experiments import fig8
from repro.analysis.tables import render_table

SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)


def test_fig8_bbpb_size_sensitivity(benchmark, report, sim_config, sweep_spec):
    points = benchmark.pedantic(
        lambda: fig8(sizes=SIZES, spec=sweep_spec, config=sim_config),
        rounds=1,
        iterations=1,
    )

    table = render_table(
        ["bbPB entries", "(a) rejections (X)", "(b) exec time (X)", "(c) drains (X)"],
        [
            (p.entries, f"{p.rejections:.4f}", f"{p.exec_time:.4f}", f"{p.drains:.4f}")
            for p in points
        ],
        title="Fig. 8: impact of bbPB size, normalized to 1-entry bbPB (geomean)",
    )
    report(table)

    by_size = {p.entries: p for p in points}
    # (a) rejections collapse to near zero by 16-32 entries.
    assert by_size[1].rejections == 1.0
    assert by_size[32].rejections <= 0.02
    # (b) execution time improves then flattens: 32 entries ~= 1024 entries.
    assert by_size[32].exec_time < by_size[1].exec_time
    assert abs(by_size[32].exec_time - by_size[1024].exec_time) <= 0.03
    # (c) drains keep falling with size (the coalescing win) and flatten
    # in the 64-256 range (the paper saw ~64 at its workload scale; our
    # scaled-down footprints shift the knee slightly right).
    assert by_size[64].drains < 0.5 * by_size[1].drains
    assert abs(by_size[256].drains - by_size[1024].drains) <= 0.05
    # Broad monotonic trends (allowing small interleaving noise).
    assert by_size[4].rejections <= by_size[1].rejections
    assert by_size[256].drains <= by_size[4].drains
