"""Table X: battery size (mm^3) when varying the number of bbPB entries.

Paper rows: SuperCap mobile {1: 0.12, 4: 0.50, 16: 2.02, 32: 4.1, 64: 8.1,
256: 32.3, 1024: 129.3} and server {0.7, 2.7, 10.8, 21.6, 43.1, 172.4,
689.7}; Li-thin is 100x smaller.  Even a 1024-entry bbPB stays 22-49x
cheaper than eADR's battery.
"""

import pytest

from repro.analysis.experiments import table10
from repro.analysis.tables import render_table
from repro.energy import battery
from repro.energy.platforms import MOBILE, SERVER

ENTRIES = (1, 4, 16, 32, 64, 256, 1024)

PAPER = {
    ("SuperCap", "M"): {1: 0.12, 4: 0.50, 16: 2.02, 32: 4.1, 64: 8.1,
                        256: 32.3, 1024: 129.3},
    ("SuperCap", "S"): {1: 0.7, 4: 2.7, 16: 10.8, 32: 21.6, 64: 43.1,
                        256: 172.4, 1024: 689.7},
    ("Li-thin", "M"): {1: 0.001, 4: 0.005, 16: 0.02, 32: 0.04, 64: 0.08,
                       256: 0.3, 1024: 1.3},
    ("Li-thin", "S"): {1: 0.006, 4: 0.026, 16: 0.10, 32: 0.21, 64: 0.43,
                       256: 1.7, 1024: 6.8},
}


def test_table10_battery_size_sweep(benchmark, report):
    sweeps = benchmark(lambda: table10(ENTRIES))

    rows = []
    for (tech, plat), values in sweeps.items():
        rows.append([f"{tech} {plat}"] + [f"{values[n]:.3g}" for n in ENTRIES])
        rows.append(
            [f"  (paper)"] + [f"{PAPER[(tech, plat)][n]:.3g}" for n in ENTRIES]
        )
    table = render_table(
        ["Battery / bbPB size"] + [str(n) for n in ENTRIES],
        rows,
        title="Table X: battery size (mm^3) vs bbPB entries",
    )
    report(table)

    for key, values in sweeps.items():
        for n in ENTRIES:
            # rel for the normal range; abs covers the paper's 1-significant-
            # digit rounding of the tiniest Li-thin figures (e.g. "0.001").
            assert values[n] == pytest.approx(
                PAPER[key][n], rel=0.15, abs=6e-4
            ), (key, n)

    # "even with bbPB size of 1024 entries, BBB is 22-49x cheaper than eADR"
    for platform, key in ((MOBILE, "M"), (SERVER, "S")):
        eadr_vol = battery.eadr_battery(platform, "SuperCap").volume_mm3
        ratio = eadr_vol / sweeps[("SuperCap", key)][1024]
        assert 20 <= ratio <= 52, ratio
