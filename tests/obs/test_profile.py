"""Every builtin scheme's event log reconciles with its ``SimStats``.

``repro profile --smoke`` runs bbb on hashmap, which reaches no remove,
rejection or forced drain.  This grid runs the eviction-heavy test config
over the conflicting-array and seeded-heap workloads too, so every bbPB
counter is compared where it is nonzero.
"""

import pytest

from repro.api import SCHEMES
from repro.obs.profile import profile_run
from repro.sim.config import SystemConfig
from repro.workloads.base import WorkloadSpec

WORKLOADS = ("hashmap", "ctree", "mutateC", "swapC")
SPEC = WorkloadSpec(threads=4, ops=60, elements=512, seed=11)


@pytest.fixture(scope="module")
def reports():
    config = SystemConfig(num_cores=4).scaled_for_testing()
    return {
        (workload, scheme): profile_run(workload, scheme, entries=8,
                                        spec=SPEC, config=config)
        for workload in WORKLOADS
        for scheme in SCHEMES
    }


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_reconciliation_row_holds(reports, workload, scheme):
    report = reports[workload, scheme]
    mismatched = {name: (events, stats)
                  for name, (events, stats, ok)
                  in report.reconciliation.items() if not ok}
    assert mismatched == {}


def test_grid_reaches_forced_drains_and_removes(reports):
    """The counters the smoke leaves at 0 are nonzero somewhere here."""
    stats = {key: report.stats for key, report in reports.items()}
    assert stats["ctree", "bbb"].bbpb_forced_drains > 0
    assert stats["swapC", "bbb"].bbpb_removes > 0
    assert stats["swapC", "bbb"].bbpb_rejections > 0
