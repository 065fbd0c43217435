"""Golden run fingerprints for every builtin scheme x Table IV workload.

``tests/data/golden_run_fingerprints.json`` holds, per ``workload/scheme``
cell, the ``fingerprint_run`` digest (full stats plus both persist-record
streams) of a small ``System.run``.  It was recorded when two interpreters
still existed, and both produced these digests; the one engine left must
keep producing them.

``tests/data/golden_run_variants.json`` adds the runs those cells do not
reach: every scheme x {hashmap, mutateC} under relaxed consistency at
reorder seeds 0 and 7 (``relaxed/<seed>/<workload>/<scheme>``), and every
scheme x hashmap settled with ``finalize=True``
(``finalize/hashmap/<scheme>``).  They were recorded while ``Engine.run``
still had a scheduling loop of its own beside ``EngineStream.pump``.

Each TSO cell is also rerun under a counting crash schedule, which never
fires but sends every store through the engine's schedule-aware commit
(the store held in its store buffer's release slot): it must reproduce
the same digest as the direct commit of a plain run.

If a timing-model change legitimately alters the numbers, recapture the
files by running every cell below and writing ``{cell: digest}``.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.analysis.bench import fingerprint_run
from repro.analysis.experiments import default_sim_config
from repro.api import RunOptions, build_system
from repro.check.schedule import NULL_SCHEDULE, CrashSchedule
from repro.core.registry import CONTRACT_EPOCH, iter_schemes
from repro.sim.config import ConsistencyModel
from repro.sim.trace import with_epochs
from repro.workloads.base import (WORKLOAD_NAMES, WorkloadSpec, build_cached,
                                  seed_media_words)

DATA = pathlib.Path(__file__).parent.parent / "data"
GOLDEN = json.loads((DATA / "golden_run_fingerprints.json").read_text())
VARIANTS = json.loads((DATA / "golden_run_variants.json").read_text())

SPEC = WorkloadSpec(threads=2, ops=25, elements=512, seed=13)
SCHEMES = [info for info in iter_schemes() if info.builtin]
RELAXED_WORKLOADS = ("hashmap", "mutateC")
RELAXED_SEEDS = (0, 7)


def cell_system(info, workload, reorder_seed=None,
                crash_schedule=NULL_SCHEDULE):
    """A fresh, seeded system for one golden cell, and the cell's trace.

    ``reorder_seed=None`` is the default TSO machine; an int selects
    relaxed consistency with that store-buffer reorder seed."""
    cfg = default_sim_config()
    if reorder_seed is not None:
        cfg = dataclasses.replace(cfg, consistency=ConsistencyModel.RELAXED)
    trace, initial_words = build_cached(workload, cfg.mem, SPEC)
    if info.contract == CONTRACT_EPOCH:
        trace = with_epochs(trace, every_n_stores=8)
    kwargs = {"entries": 8} if info.has_persist_buffer else {}
    system = build_system(info.name, config=cfg,
                          options=RunOptions(reorder_seed=reorder_seed or 0,
                                             crash_schedule=crash_schedule),
                          **kwargs)
    seed_media_words(system.nvmm_media, initial_words)
    return system, trace


def golden(info, workload, reorder_seed=None):
    """The recorded ``finalize=False`` digest of a cell."""
    if reorder_seed is None:
        return GOLDEN[f"{workload}/{info.name}"]
    return VARIANTS[f"relaxed/{reorder_seed}/{workload}/{info.name}"]


def test_golden_file_covers_every_cell():
    assert set(GOLDEN) == {f"{w}/{i.name}"
                           for w in WORKLOAD_NAMES for i in SCHEMES}


def test_variant_file_covers_every_cell():
    relaxed = {f"relaxed/{s}/{w}/{i.name}" for s in RELAXED_SEEDS
               for w in RELAXED_WORKLOADS for i in SCHEMES}
    finalized = {f"finalize/hashmap/{i.name}" for i in SCHEMES}
    assert set(VARIANTS) == relaxed | finalized


@pytest.mark.parametrize("info", SCHEMES, ids=lambda i: i.name)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_run_matches_golden_fingerprint(info, workload):
    system, trace = cell_system(info, workload)
    result = system.run(trace, finalize=False)
    assert fingerprint_run(result) == golden(info, workload)


@pytest.mark.parametrize("info", SCHEMES, ids=lambda i: i.name)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_observed_run_matches_golden_fingerprint(info, workload):
    schedule = CrashSchedule()
    system, trace = cell_system(info, workload, crash_schedule=schedule)
    result = system.run(trace, finalize=False)
    assert not result.crashed and schedule.visits > 0
    assert fingerprint_run(result) == golden(info, workload)


@pytest.mark.parametrize("info", SCHEMES, ids=lambda i: i.name)
@pytest.mark.parametrize("workload", RELAXED_WORKLOADS)
@pytest.mark.parametrize("seed", RELAXED_SEEDS)
def test_relaxed_run_matches_golden_fingerprint(info, workload, seed):
    system, trace = cell_system(info, workload, reorder_seed=seed)
    result = system.run(trace, finalize=False)
    assert fingerprint_run(result) == golden(info, workload, seed)


@pytest.mark.parametrize("info", SCHEMES, ids=lambda i: i.name)
def test_finalized_run_matches_golden_fingerprint(info):
    system, trace = cell_system(info, "hashmap")
    result = system.run(trace, finalize=True)
    assert fingerprint_run(result) == VARIANTS[f"finalize/hashmap/{info.name}"]
