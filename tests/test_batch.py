"""Tests for the batch experiment runner (repro.analysis.batch).

The acceptance bar for the parallel fan-out is *bit-identical* results:
running a grid of simulations through a process pool must produce exactly
the same result list as running them serially in-process, because each
simulation is deterministic and the runner preserves submission order.
"""

import dataclasses
import os
import pickle
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis.batch import (
    BatchItemError,
    RunSpec,
    decide_jobs,
    execute_spec,
    run_batch,
    run_tasks,
)
from repro.analysis.experiments import _scheme_variants, default_sim_config
from repro.workloads.base import WorkloadSpec

#: Small enough to keep the whole module under a few seconds.
SPEC = WorkloadSpec(threads=2, ops=40, elements=1024, seed=7)
WORKLOADS = ("hashmap", "mutateC")


def _grid_specs():
    return [
        RunSpec(workload=name, scheme=scheme, scheme_kwargs=kwargs, spec=SPEC)
        for name in WORKLOADS
        for scheme, kwargs in (("bbb", (("entries", 4),)), ("eadr", ()))
    ]


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------

def test_run_batch_parallel_identical_to_serial():
    specs = _grid_specs()
    serial = run_batch(specs, jobs=1)
    parallel = run_batch(specs, jobs=2)
    assert serial == parallel  # WorkloadRun dataclasses, field-exact
    assert [r.workload for r in serial] == [s.workload for s in specs]


def test_fig7_parallel_identical_to_serial():
    """The Fig. 7 cells on a reduced workload set: fanning the grid across
    a process pool must not change a single counter."""
    config = default_sim_config()
    specs = [
        RunSpec(name, scheme, kwargs, spec=SPEC, config=config)
        for name in WORKLOADS
        for _, scheme, kwargs in _scheme_variants((4,))
    ]
    serial = run_batch(specs, jobs=1)
    parallel = run_batch(specs, jobs=2)
    assert serial == parallel  # WorkloadRun dataclasses, field-exact
    assert [r.scheme for r in serial] == [s.scheme for s in specs]


def test_run_batch_matches_direct_execute():
    specs = _grid_specs()
    assert run_batch(specs, jobs=2) == [execute_spec(s) for s in specs]


# ----------------------------------------------------------------------
# Serial fallback paths
# ----------------------------------------------------------------------

def test_non_picklable_spec_falls_back_to_serial():
    """A spec carrying an unpicklable value cannot cross the process
    boundary; the runner must notice and run in-process with the same
    results."""

    class LocalInt(int):
        """Defined in a function body, so pickle cannot find it by name."""

    specs = _grid_specs()
    tagged = [
        dataclasses.replace(s, scheme_kwargs=tuple(
            (key, LocalInt(value)) for key, value in s.scheme_kwargs))
        for s in specs
    ]
    with pytest.raises(Exception):
        pickle.dumps(tagged)
    assert run_batch(tagged, jobs=4) == run_batch(specs, jobs=1)


def test_single_spec_runs_serially():
    (spec,) = _grid_specs()[:1]
    (result,) = run_batch([spec], jobs=8)
    assert result == execute_spec(spec)


def test_empty_batch():
    assert run_batch([], jobs=4) == []


# ----------------------------------------------------------------------
# Worker-count resolution
# ----------------------------------------------------------------------

def test_decide_jobs_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert decide_jobs(3, num_items=100) == 3


def test_decide_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert decide_jobs(None, num_items=100) == 5


def test_decide_jobs_clamps_to_items(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "16")
    assert decide_jobs(None, num_items=3) == 3


def test_decide_jobs_rejects_bad_values(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(ValueError):
        decide_jobs(None)
    monkeypatch.delenv("REPRO_JOBS")
    with pytest.raises(ValueError):
        decide_jobs(0)


def test_repro_jobs_one_forces_serial(monkeypatch):
    """REPRO_JOBS=1 is the documented escape hatch: results must still be
    identical to the parallel run."""
    specs = _grid_specs()
    monkeypatch.setenv("REPRO_JOBS", "1")
    env_serial = run_batch(specs)
    monkeypatch.delenv("REPRO_JOBS")
    assert env_serial == run_batch(specs, jobs=2)


# ----------------------------------------------------------------------
# Generic task fan-out
# ----------------------------------------------------------------------

def _square(x, offset=0):
    return x * x + offset


def test_run_tasks_preserves_order():
    tasks = [(_square, (i,), {"offset": 1}) for i in range(10)]
    assert run_tasks(tasks, jobs=4) == [i * i + 1 for i in range(10)]
    assert run_tasks(tasks, jobs=1) == [i * i + 1 for i in range(10)]


@pytest.mark.parametrize("jobs", [1, 2])
def test_progress_callback_counts_every_run(jobs):
    """``progress(done, total)`` fires once per item, in submission order,
    on both paths."""
    seen = []
    tasks = [(_square, (i,), {}) for i in range(5)]
    run_tasks(tasks, jobs=jobs,
              progress=lambda done, total: seen.append((done, total)))
    assert seen == [(i + 1, 5) for i in range(5)]


# ----------------------------------------------------------------------
# Failures name their item, on both paths
# ----------------------------------------------------------------------

def _triple(x):
    return x * 3


def _boom(x):
    raise ValueError(f"boom {x}")


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("jobs", [1, 2])
def test_worker_exception_carries_originating_task(jobs):
    tasks = [(_triple, (1,), {}), (_boom, (7,), {})]
    with pytest.raises(BatchItemError) as excinfo:
        run_tasks(tasks, jobs=jobs)
    assert excinfo.value.index == 1
    assert excinfo.value.item == tasks[1]
    assert isinstance(excinfo.value.cause, ValueError)
    assert "boom 7" in str(excinfo.value.cause)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_batch_error_carries_originating_spec(jobs):
    good = _grid_specs()[0]
    bad = RunSpec(workload="no-such-workload", scheme="bbb")
    with pytest.raises(BatchItemError) as excinfo:
        run_batch([good, bad], jobs=jobs)
    assert excinfo.value.index == 1
    assert excinfo.value.item == bad


def test_killed_worker_fails_the_batch_promptly():
    """A worker that dies breaks every pending future: the batch fails at
    once rather than waiting on its siblings (which would sleep 60 s)."""
    tasks = [(_kill_self, (), {})] + [(time.sleep, (60,), {})] * 3
    start = time.monotonic()
    with pytest.raises(BatchItemError) as excinfo:
        run_tasks(tasks, jobs=2)
    assert isinstance(excinfo.value.cause, BrokenProcessPool)
    assert time.monotonic() - start < 30


def test_pool_broken_during_submission_blames_that_item(monkeypatch):
    """A worker can die before the last item is submitted (a dying first
    item of a long batch does), and then ``submit`` itself raises."""
    tasks = [(_triple, (i,), {}) for i in range(4)]
    submit = ProcessPoolExecutor.submit

    def submit_until_broken(pool, fn, item):
        if item == tasks[2]:
            raise BrokenProcessPool("a worker died")
        return submit(pool, fn, item)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_until_broken)
    with pytest.raises(BatchItemError) as excinfo:
        run_tasks(tasks, jobs=2)
    assert excinfo.value.index == 2
    assert isinstance(excinfo.value.cause, BrokenProcessPool)
