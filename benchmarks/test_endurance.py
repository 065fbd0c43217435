"""Write-endurance analysis (Section II-B's motivation, quantified).

Two exhibits:

1. The NVCache argument: at L1-level store rates, PCM/ReRAM cache lines
   wear out absurdly fast — why the paper battery-backs SRAM instead of
   using NVM caches.
2. The scheme comparison: hottest-NVMM-block write counts under eADR,
   BBB (32/1024), and the processor-side organisation — the endurance
   reading of Fig. 7(b)'s write totals.
"""

from repro.analysis.experiments import default_sim_config
from repro.analysis.tables import render_table
from repro.energy import endurance
from repro.api import build_system
from repro.workloads.base import build_cached, seed_media_words

WORKLOAD = "swapNC"


def test_nvcache_lifetime_argument(benchmark, report):
    def compute():
        return {
            tech: endurance.nvcache_lifetime_years(
                stores_per_cycle=0.2, technology=tech
            )
            for tech in ("SRAM", "STT-RAM", "ReRAM", "PCM")
        }

    years = benchmark(compute)

    table = render_table(
        ["Technology", "endurance (writes)", "L1 NVCache hot-line lifetime"],
        [
            (
                tech,
                f"{endurance.WRITE_ENDURANCE[tech]:.0e}",
                f"{y:.2e} years" if y < 1 else f"{y:,.1f} years",
            )
            for tech, y in years.items()
        ],
        title="Section II-B: why NVM caches near the core wear out",
    )
    report(table)

    assert years["PCM"] < 1 / 365          # under a day
    assert years["ReRAM"] < 1.0            # under a year
    assert years["SRAM"] > years["STT-RAM"] > years["ReRAM"] > years["PCM"]


def test_hottest_block_writes_by_scheme(benchmark, report, sim_config, sweep_spec):
    def sweep():
        rows = []
        trace, initial_words = build_cached(WORKLOAD, sim_config.mem,
                                            sweep_spec)
        for label, factory in (
            ("eADR", lambda c: build_system("eadr", config=c)),
            ("BBB (32)", lambda c: build_system("bbb", entries=32, config=c)),
            ("BBB (1024)", lambda c: build_system("bbb", entries=1024,
                                                  config=c)),
            ("BBB proc-side", lambda c: build_system(
                "bbb-proc", entries=32, config=c,
                coalesce_consecutive=False)),
        ):
            system = factory(sim_config)
            seed_media_words(system.nvmm_media, initial_words)
            result = system.run(trace, finalize=True)
            media = system.nvmm_media
            est = endurance.media_lifetime(
                media, window_cycles=max(1, result.execution_cycles),
                technology="PCM",
            )
            rows.append(
                (label, media.total_writes, media.max_block_writes(),
                 est.lifetime_years)
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = render_table(
        ["Scheme", "total NVMM writes", "hottest-block writes",
         "PCM lifetime (years, extrapolated)"],
        [(l, t, m, f"{y:.2e}") for l, t, m, y in rows],
        title=f"Endurance comparison on {WORKLOAD} (finalized runs)",
    )
    report(table)

    by_label = {r[0]: r for r in rows}
    # The processor-side organisation concentrates the most writes.
    assert by_label["BBB proc-side"][1] >= by_label["BBB (32)"][1]
    # A larger bbPB only reduces write traffic.
    assert by_label["BBB (1024)"][1] <= by_label["BBB (32)"][1]
    # Memory-side BBB stays within 2x of eADR's hottest block.
    assert by_label["BBB (32)"][2] <= 2 * max(1, by_label["eADR"][2])
