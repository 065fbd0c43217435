"""Golden run fingerprints for every builtin scheme x Table IV workload.

``tests/data/golden_run_fingerprints.json`` holds, per ``workload/scheme``
cell, the ``fingerprint_run`` digest (full stats plus both persist-record
streams) of a small ``System.run``.  It was recorded when two interpreters
still existed, and both produced these digests; the one engine left must
keep producing them.

If a timing-model change legitimately alters the numbers, recapture the
file by running every cell below and writing ``{cell: digest}``.
"""

import json
import pathlib

import pytest

from repro.analysis.bench import fingerprint_run
from repro.analysis.experiments import default_sim_config
from repro.api import build_system
from repro.core.registry import CONTRACT_EPOCH, iter_schemes
from repro.sim.trace import with_epochs
from repro.workloads.base import (WORKLOAD_NAMES, WorkloadSpec, build_cached,
                                  seed_media_words)

GOLDEN_PATH = (pathlib.Path(__file__).parent.parent / "data"
               / "golden_run_fingerprints.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

SPEC = WorkloadSpec(threads=2, ops=25, elements=512, seed=13)
SCHEMES = [info for info in iter_schemes() if info.builtin]


def test_golden_file_covers_every_cell():
    assert set(GOLDEN) == {f"{w}/{i.name}"
                           for w in WORKLOAD_NAMES for i in SCHEMES}


@pytest.mark.parametrize("info", SCHEMES, ids=lambda i: i.name)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_run_matches_golden_fingerprint(info, workload):
    cfg = default_sim_config()
    trace, initial_words = build_cached(workload, cfg.mem, SPEC)
    if info.contract == CONTRACT_EPOCH:
        trace = with_epochs(trace, every_n_stores=8)
    kwargs = {"entries": 8} if info.has_persist_buffer else {}
    system = build_system(info.name, config=cfg, **kwargs)
    seed_media_words(system.nvmm_media, initial_words)
    result = system.run(trace, finalize=False)
    assert fingerprint_run(result) == GOLDEN[f"{workload}/{info.name}"]
