"""Section V-C: the processor-side bbPB write amplification.

Paper result: "we also measured the number of writes to NVMM using the
processor-side approach, and found that on average, there are 2.8x more
writes to NVMM than eADR" — "because there are not many coalescing
opportunities" ("almost every persisting store must go to the bbPB and
drain to the NVMM").

The benchmark measures both processor-side variants: with the
consecutive-same-block coalescing special case Section III-B permits, and
without any coalescing (the behaviour Section V-C describes).  The
memory-side organisation stays within a few percent of eADR (Fig. 7b).
"""

from repro.analysis.experiments import processor_side_write_ratio
from repro.analysis.tables import geomean, render_table


def test_sec5c_processor_side_write_amplification(
    benchmark, report, sim_config, bench_spec
):
    def sweep():
        with_coalesce = processor_side_write_ratio(
            spec=bench_spec, config=sim_config, coalesce_consecutive=True
        )
        no_coalesce = processor_side_write_ratio(
            spec=bench_spec, config=sim_config, coalesce_consecutive=False
        )
        return with_coalesce, no_coalesce

    with_coalesce, no_coalesce = benchmark.pedantic(sweep, rounds=1, iterations=1)
    avg_with = geomean(list(with_coalesce.values()))
    avg_without = geomean(list(no_coalesce.values()))

    table = render_table(
        ["Workload", "proc-side / eADR (consec. coalescing)",
         "proc-side / eADR (no coalescing)"],
        [
            (name, f"{with_coalesce[name]:.2f}x", f"{no_coalesce[name]:.2f}x")
            for name in with_coalesce
        ]
        + [("geomean", f"{avg_with:.2f}x", f"{avg_without:.2f}x (paper: 2.8x)")],
        title="Section V-C: processor-side bbPB write amplification",
    )
    report(table)

    # Shape: substantial amplification; the no-coalescing variant (the
    # paper's measured behaviour) lands in the low single-digit-x range.
    assert 1.8 <= avg_without <= 6.0, avg_without
    # Every workload amplifies writes without coalescing.
    for name, ratio in no_coalesce.items():
        assert ratio > 1.02, (name, ratio)
    # The structure-heavy workloads amplify even with the special case.
    assert with_coalesce["hashmap"] > 1.5
    # Coalescing only ever helps.
    for name in with_coalesce:
        assert with_coalesce[name] <= no_coalesce[name] + 1e-9, name
