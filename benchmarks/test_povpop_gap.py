"""The PoV/PoP gap, measured (Figure 1 / Section I made quantitative).

The paper's entire premise is the gap between the point of visibility
(L1D) and the point of persistency (WPQ/memory).  This benchmark measures
the *persist latency* of every persisting store — the cycles between its
L1D write and its durability — under each scheme:

* BBB and eADR close the gap: latency is 0 by construction;
* strict PMEM persists synchronously: latency = one WPQ round trip;
* BSP and BEP leave stores buffered until a drain: latencies of hundreds
  to thousands of cycles, during which a crash loses the store.
"""

from repro.analysis.experiments import default_sim_config
from repro.analysis.tables import render_table
from repro.api import build_system
from repro.workloads.base import build_cached, seed_media_words

SCHEMES = (
    ("BBB (32)", lambda cfg: build_system("bbb", entries=32, config=cfg)),
    ("eADR", lambda cfg: build_system("eadr", config=cfg)),
    ("PMEM strict", lambda cfg: build_system("pmem", config=cfg)),
    ("BSP", lambda cfg: build_system("bsp", config=cfg)),
    ("BEP", lambda cfg: build_system("bep", config=cfg)),
)
WORKLOAD = "hashmap"


def test_povpop_gap_by_scheme(benchmark, report, sim_config, sweep_spec):
    def sweep():
        rows = []
        trace, initial_words = build_cached(WORKLOAD, sim_config.mem,
                                            sweep_spec)
        for label, factory in SCHEMES:
            system = factory(sim_config)
            seed_media_words(system.nvmm_media, initial_words)
            result = system.run(trace, finalize=True)
            stats = result.stats
            rows.append(
                (
                    label,
                    stats.persist_latency_count,
                    stats.persist_latency_avg,
                    stats.persist_latency_max,
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    table = render_table(
        ["Scheme", "persists tracked", "avg gap (cycles)", "max gap (cycles)"],
        [(l, c, f"{a:,.1f}", m) for l, c, a, m in rows],
        title="PoV/PoP gap: persist latency per scheme (hashmap workload)",
    )
    report(table)

    by_label = {r[0]: r for r in rows}
    # BBB and eADR close the gap completely.
    assert by_label["BBB (32)"][2] == 0.0
    assert by_label["eADR"][2] == 0.0
    # Strict PMEM pays roughly the WPQ round trip per persist.
    assert by_label["PMEM strict"][2] > 0
    # Buffered schemes leave stores exposed for far longer than PMEM's
    # synchronous flush.
    assert by_label["BSP"][2] > by_label["PMEM strict"][2]
    assert by_label["BEP"][2] > by_label["PMEM strict"][2]
