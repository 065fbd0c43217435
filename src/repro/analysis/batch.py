"""Batch execution of independent simulation runs.

The simulated paper exhibits and the fanned-out gates (``faults``,
``opt --compare``) are sets of fully independent, deterministic
simulations.  An exhibit describes each run as a picklable
:class:`RunSpec` (the gates as ``(fn, args, kwargs)`` tasks) and hands the
list to :func:`run_batch` (or :func:`run_tasks`).  The exhibits go through
:func:`repro.analysis.experiments.run_cells`, which sends only the cells
not yet run in the process; this module itself caches nothing.

Design points:

* **Worker-side construction.**  A ``RunSpec`` carries only plain data
  (workload name, scheme name + kwargs, ``WorkloadSpec``, ``SystemConfig``);
  each worker process resolves the scheme through
  :func:`repro.api.build_system`, builds (or fetches from its
  process-local memoized cache) the trace, constructs a fresh ``System``,
  and runs it.  Nothing stateful crosses the process boundary.

* **One ordered map.**  With more than one worker, more than one item and
  everything picklable, the items go to a
  :class:`concurrent.futures.ProcessPoolExecutor`; otherwise (``jobs=1``,
  ``REPRO_JOBS=1``, a single item, or a payload carrying a closure) they
  run in a plain in-process loop.  Results come back in submission order
  either way, so both paths return identical lists.

* **Failures name their item.**  An item that raises, or a worker that
  dies (the cause is then ``BrokenProcessPool``), fails the batch with a
  :class:`BatchItemError` carrying the originating item.  Items are
  deterministic, so nothing is retried.

``REPRO_JOBS`` controls the default worker count (unset -> one worker per
CPU).  Both runners accept a ``progress(done, total)`` callback, invoked in
the caller's process once per result, in submission order.
"""

from __future__ import annotations

import functools
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.config import SystemConfig
from repro.workloads.base import WorkloadSpec

__all__ = [
    "BatchItemError",
    "Progress",
    "RunSpec",
    "decide_jobs",
    "execute_spec",
    "run_batch",
    "run_tasks",
]

#: Progress callback: ``progress(done, total)``.
Progress = Callable[[int, int], None]


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run, described as plain picklable data.

    ``scheme`` is a name :func:`repro.api.build_system` accepts;
    ``scheme_kwargs`` are passed through to it (e.g. ``(("entries", 32),)``
    for a 32-entry bbPB).  ``config=None`` means the Table III default from
    :func:`repro.analysis.experiments.default_sim_config`.  Equal specs
    describe the same run, and a spec hashes, so it can key a result.
    """

    workload: str
    scheme: str
    scheme_kwargs: Tuple[Tuple[str, Any], ...] = ()
    spec: WorkloadSpec = field(default_factory=WorkloadSpec)
    config: Optional[SystemConfig] = None


class BatchItemError(RuntimeError):
    """A batch item failed.  Carries the originating item (the
    :class:`RunSpec` for :func:`run_batch`, the ``(fn, args, kwargs)``
    tuple for :func:`run_tasks`) so callers can report *which* run died,
    plus the underlying cause."""

    def __init__(self, item: Any, index: int, cause: BaseException) -> None:
        self.item = item
        self.index = index
        self.cause = cause
        desc = repr(item)
        if len(desc) > 200:
            desc = desc[:197] + "..."
        super().__init__(
            f"batch item {index} ({desc}) failed: {cause!r}"
        )


def decide_jobs(jobs: Optional[int] = None, num_items: int = 0) -> int:
    """Resolve the worker count: explicit arg > ``REPRO_JOBS`` env > CPU
    count, clamped to the number of items (no idle workers)."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}")
        else:
            jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if num_items:
        jobs = min(jobs, num_items)
    return jobs


def execute_spec(spec: RunSpec):
    """Run one :class:`RunSpec` to completion and return its ``WorkloadRun``.

    Module-level so ``ProcessPoolExecutor`` can pickle it by reference;
    also the in-process unit of work.
    """
    # Imported lazily: this function is the bottom of the worker-side call
    # stack, and a module-level import would be circular (experiments ->
    # batch -> experiments).
    from repro.analysis.experiments import default_sim_config, run_workload
    from repro.api import build_system

    cfg = spec.config or default_sim_config()
    kwargs = dict(spec.scheme_kwargs)
    return run_workload(
        spec.workload,
        lambda: build_system(spec.scheme, config=cfg, **kwargs),
        spec.spec,
        cfg,
    )


def _is_picklable(obj: Any) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _fan_out(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int],
    progress: Optional[Progress],
) -> List[Any]:
    """Map ``fn`` over ``items`` in submission order: across a process pool
    when that is possible and worth it, in-process otherwise."""
    items = list(items)
    if not items:
        return []

    def attempt(index: int, call: Callable[[], Any]) -> Any:
        try:
            return call()
        except Exception as exc:
            raise BatchItemError(items[index], index, exc) from exc

    workers = decide_jobs(jobs, num_items=len(items))
    pool = None
    if workers > 1 and _is_picklable([fn] + items):
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        if pool is None:
            calls = [functools.partial(fn, item) for item in items]
        else:
            # Submitting fails too once a dead worker has broken the pool.
            calls = [
                attempt(i, functools.partial(pool.submit, fn, item)).result
                for i, item in enumerate(items)
            ]
        results: List[Any] = []
        for index, call in enumerate(calls):
            results.append(attempt(index, call))
            if progress is not None:
                progress(index + 1, len(items))
        return results
    finally:
        if pool is not None:
            # After a failure, drop the items no worker has started.
            pool.shutdown(cancel_futures=True)


def run_batch(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> List[Any]:
    """Execute independent :class:`RunSpec` s, fanned across processes.

    Returns one ``WorkloadRun`` per spec, in submission order.  With
    ``jobs=1`` (or ``REPRO_JOBS=1``) the batch runs serially in-process
    and produces bit-identical results.  A failing run surfaces as
    :class:`BatchItemError` with its :class:`RunSpec` attached.
    """
    return _fan_out(execute_spec, specs, jobs, progress)


def _apply_task(task: Tuple[Callable, tuple, dict]) -> Any:
    fn, args, kwargs = task
    return fn(*args, **kwargs)


def run_tasks(
    tasks: Sequence[Tuple[Callable, tuple, Dict[str, Any]]],
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
) -> List[Any]:
    """Generic fan-out for ``(fn, args, kwargs)`` tuples of module-level
    functions (the fault campaign, the optimizer grid, the analytical
    battery sweeps).  Results come back in submission order under the same
    rules as :func:`run_batch`; a failing task surfaces as
    :class:`BatchItemError` with its task tuple attached."""
    return _fan_out(_apply_task, tasks, jobs, progress)
