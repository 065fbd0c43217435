"""Batch execution of independent simulation runs.

Every paper exhibit (Fig. 7a/7b, the Fig. 8 sweep, the battery tables) is a
set of fully independent (workload x scheme x sweep-point) simulations, so
the experiment drivers describe their runs as picklable :class:`RunSpec`
descriptors and hand the whole list to :func:`run_batch`, which fans them
out across CPU cores with :class:`concurrent.futures.ProcessPoolExecutor`.

Design points:

* **Worker-side construction.**  A ``RunSpec`` carries only plain data
  (workload name, scheme name + kwargs, ``WorkloadSpec``, ``SystemConfig``);
  each worker process resolves the scheme through
  :func:`repro.api.build_system`, builds (or fetches from its
  process-local memoized cache) the trace, constructs a fresh ``System``,
  and runs it.  Nothing stateful crosses the process boundary.

* **Deterministic ordering.**  Results come back in exactly the order the
  specs were submitted, regardless of worker scheduling, so parallel and
  serial execution produce identical result lists (each simulation is
  itself deterministic).

* **Graceful serial fallback.**  ``REPRO_JOBS=1`` (or ``jobs=1``), a single
  spec, a non-picklable spec, or a platform where process pools cannot
  start all degrade to a plain in-process loop with the same results.

* **Fault tolerance.**  A :class:`BatchPolicy` opts a batch into per-item
  timeouts, bounded retries with seeded exponential backoff + jitter, pool
  rebuilds when a worker dies or hangs (degrading to serial once the
  restart budget is spent), and JSONL checkpointing so an interrupted
  campaign resumes from its completed items.  Worker exceptions always
  surface as :class:`BatchItemError` with the originating item attached
  (or, under ``on_error="return"``, as in-place :class:`BatchFailure`
  records).

``REPRO_JOBS`` controls the default worker count (unset -> one worker per
CPU).  :func:`run_tasks` is the same machinery for arbitrary module-level
functions (used by the analytical battery sweeps).

Both runners accept a ``progress(done, total)`` callback, invoked in the
caller's process once per completed unit; ``done`` is monotonically
increasing and ends at ``total`` (under retries the *index* order of
completions may differ from submission order, the counts never regress).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import random
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.config import SystemConfig
from repro.workloads.base import WorkloadSpec

__all__ = [
    "BatchFailure",
    "BatchItemError",
    "BatchPolicy",
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
    :func:`repro.analysis.experiments.default_sim_config`.  ``label`` is an
    arbitrary caller-side tag (e.g. the Fig. 7 bar name); the runner carries
    it through untouched.
    """

    workload: str
    scheme: str
    scheme_kwargs: Tuple[Tuple[str, Any], ...] = ()
    spec: WorkloadSpec = field(default_factory=WorkloadSpec)
    config: Optional[SystemConfig] = None
    label: Optional[str] = None


@dataclass(frozen=True)
class BatchPolicy:
    """Fault-tolerance knobs for a batch.  The default policy adds no
    timeout, no retries and no checkpoint — behaviourally the pre-hardening
    runner, except that worker exceptions arrive as :class:`BatchItemError`.

    ``timeout``
        Seconds allowed per item once the runner starts waiting on it
        (``None`` = unbounded).  A timed-out item costs a pool rebuild:
        the hung worker is terminated and every other in-flight item is
        resubmitted without being charged an attempt.  Timeouts are only
        enforceable on the pooled path; the serial fallback runs items to
        completion.
    ``retries``
        Extra attempts per item after the first (timeouts, worker deaths
        and application errors all consume the same budget).
    ``backoff_base`` / ``backoff_factor`` / ``backoff_max`` / ``backoff_jitter``
        Retry ``n`` sleeps ``min(backoff_max, backoff_base *
        backoff_factor**(n-1)) * (1 + backoff_jitter * U[0,1))`` seconds,
        with ``U`` drawn from a generator seeded by ``seed`` — reruns of a
        failing batch back off identically.
    ``max_pool_restarts``
        Pool rebuilds (hung or crashed workers) tolerated before the batch
        degrades to the in-process serial loop for whatever remains.
    ``on_error``
        ``"raise"`` (default) raises :class:`BatchItemError` once an item's
        budget is spent; ``"return"`` puts a :class:`BatchFailure` in that
        item's result slot and keeps going.
    ``checkpoint``
        Path of a JSONL checkpoint file.  Completed items are appended as
        they finish; rerunning the same batch with the same path skips
        them.  A checkpoint from a *different* batch (fingerprint mismatch)
        is discarded, and a torn final line (crash mid-append) is ignored.
    """

    timeout: Optional[float] = None
    retries: int = 0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    backoff_jitter: float = 0.5
    seed: int = 0
    max_pool_restarts: int = 2
    on_error: str = "raise"
    checkpoint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.on_error not in ("raise", "return"):
            raise ValueError(
                f"on_error must be 'raise' or 'return', got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")
        if self.max_pool_restarts < 0:
            raise ValueError("max_pool_restarts must be >= 0")


class BatchItemError(RuntimeError):
    """A batch item exhausted its attempts.  Carries the originating item
    (the :class:`RunSpec` for :func:`run_batch`, the ``(fn, args, kwargs)``
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


@dataclass(frozen=True)
class BatchFailure:
    """Placed in an item's result slot under ``on_error="return"``."""

    index: int
    item: Any
    kind: str  # "error" | "timeout" | "worker-lost"
    attempts: int
    error: str


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
    also the serial-fallback unit of work.
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


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------

_CHECKPOINT_VERSION = 1


def _batch_fingerprint(fn: Callable, items: Sequence[Any]) -> str:
    """Identity of (work function, item list) — a checkpoint only resumes
    the exact batch that wrote it."""
    h = hashlib.sha256()
    ident = (getattr(fn, "__module__", ""), getattr(fn, "__qualname__", ""))
    h.update(repr(ident).encode("utf-8"))
    for item in items:
        try:
            h.update(pickle.dumps(item))
        except Exception:
            h.update(repr(item).encode("utf-8"))
    return h.hexdigest()


def _load_checkpoint(path: Optional[str], fingerprint: str) -> Dict[int, Any]:
    """Read completed ``{index: result}`` pairs back from a checkpoint.

    Tolerates a torn final line (the writer crashed mid-append) and
    discards the whole file on a fingerprint mismatch (it belongs to a
    different batch)."""
    if not path or not os.path.exists(path):
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
    except OSError:
        return {}
    if not lines:
        return {}
    try:
        header = json.loads(lines[0])
    except ValueError:
        return {}
    if (
        not isinstance(header, dict)
        or header.get("kind") != "header"
        or header.get("fingerprint") != fingerprint
    ):
        return {}
    done: Dict[int, Any] = {}
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if rec.get("kind") != "result":
                continue
            result = pickle.loads(base64.b64decode(rec["data"]))
            done[int(rec["index"])] = result
        except Exception:
            continue  # torn tail
    return done


class _CheckpointWriter:
    """Append-only JSONL checkpoint; each record is flushed and fsynced so
    a crash loses at most the line being written (which the loader then
    skips as a torn tail)."""

    def __init__(
        self,
        path: Optional[str],
        fingerprint: str,
        total: int,
        resuming: bool,
    ) -> None:
        self._f = None
        if path is None:
            return
        try:
            self._f = open(path, "a" if resuming else "w", encoding="utf-8")
        except OSError:
            return
        if not resuming:
            self._write({
                "kind": "header",
                "version": _CHECKPOINT_VERSION,
                "fingerprint": fingerprint,
                "total": total,
            })

    def record(self, index: int, result: Any) -> None:
        if self._f is None:
            return
        try:
            data = base64.b64encode(pickle.dumps(result)).decode("ascii")
        except Exception:
            return  # non-picklable result: recomputed on resume
        self._write({"kind": "result", "index": index, "data": data})

    def _write(self, obj: Dict[str, Any]) -> None:
        try:
            self._f.write(json.dumps(obj) + "\n")
            self._f.flush()
            os.fsync(self._f.fileno())
        except OSError:
            pass

    def close(self) -> None:
        if self._f is not None:
            try:
                self._f.close()
            except OSError:
                pass
            self._f = None


# ----------------------------------------------------------------------
# Hardened fan-out core
# ----------------------------------------------------------------------

_UNSET = object()


def _backoff_sleep(policy: BatchPolicy, attempt: int, rng: random.Random) -> None:
    delay = min(
        policy.backoff_max,
        policy.backoff_base * policy.backoff_factor ** max(0, attempt - 1),
    )
    delay *= 1.0 + policy.backoff_jitter * rng.random()
    if delay > 0:
        time.sleep(delay)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when a worker is hung: cancel what can be
    cancelled, then terminate the worker processes outright."""
    try:
        procs = list((getattr(pool, "_processes", None) or {}).values())
    except Exception:
        procs = []
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in procs:
        try:
            proc.terminate()
        except Exception:
            pass
    for proc in procs:
        try:
            proc.join(timeout=1)
        except Exception:
            pass


class _BatchState:
    """Bookkeeping shared by the pooled and serial execution paths."""

    def __init__(
        self,
        fn: Callable[[Any], Any],
        items: List[Any],
        progress: Optional[Progress],
        policy: BatchPolicy,
    ) -> None:
        self.fn = fn
        self.items = items
        self.progress = progress
        self.policy = policy
        self.results: List[Any] = [_UNSET] * len(items)
        self.attempts: List[int] = [0] * len(items)
        self.rng = random.Random(policy.seed)
        self.done = 0
        fingerprint = (
            _batch_fingerprint(fn, items) if policy.checkpoint else ""
        )
        preloaded = _load_checkpoint(policy.checkpoint, fingerprint)
        self.writer = _CheckpointWriter(
            policy.checkpoint, fingerprint, len(items), bool(preloaded)
        )
        for i, result in preloaded.items():
            if 0 <= i < len(items) and self.results[i] is _UNSET:
                self.results[i] = result
                self.done += 1

    def remaining(self) -> List[int]:
        return [i for i, r in enumerate(self.results) if r is _UNSET]

    def complete(self, index: int, result: Any) -> None:
        self.results[index] = result
        self.done += 1
        self.writer.record(index, result)
        if self.progress is not None:
            self.progress(self.done, len(self.items))

    def fail(self, index: int, kind: str, cause: BaseException) -> None:
        if self.policy.on_error == "raise":
            raise BatchItemError(self.items[index], index, cause) from cause
        self.results[index] = BatchFailure(
            index=index,
            item=self.items[index],
            kind=kind,
            attempts=self.attempts[index],
            error=f"{type(cause).__name__}: {cause}",
        )
        self.done += 1
        if self.progress is not None:
            self.progress(self.done, len(self.items))

    def retry_or_fail(
        self, index: int, kind: str, cause: BaseException, queue: deque
    ) -> None:
        if self.attempts[index] <= self.policy.retries:
            _backoff_sleep(self.policy, self.attempts[index], self.rng)
            queue.append(index)
        else:
            self.fail(index, kind, cause)

    def results_list(self) -> List[Any]:
        return list(self.results)

    def close(self) -> None:
        self.writer.close()


def _run_serial(state: _BatchState, indices: Sequence[int]) -> None:
    """In-process loop with the same retry/on_error semantics as the pool
    (timeouts cannot be enforced here; a hung item hangs the loop)."""
    for i in indices:
        while True:
            state.attempts[i] += 1
            try:
                result = state.fn(state.items[i])
            except Exception as exc:
                if state.attempts[i] <= state.policy.retries:
                    _backoff_sleep(state.policy, state.attempts[i], state.rng)
                    continue
                state.fail(i, "error", exc)
                break
            state.complete(i, result)
            break


def _run_pooled(state: _BatchState, jobs: int) -> None:
    policy = state.policy
    queue: deque = deque(state.remaining())
    restarts = 0
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
    except (OSError, ImportError):  # pragma: no cover - platform-specific
        _run_serial(state, list(queue))
        return
    inflight: "OrderedDict[int, Any]" = OrderedDict()

    def abandon_inflight() -> None:
        """Resubmit every in-flight item without charging an attempt —
        they are innocent bystanders of a pool death."""
        for j in reversed(list(inflight.keys())):
            state.attempts[j] -= 1
            queue.appendleft(j)
        inflight.clear()

    def rebuild_pool() -> bool:
        """Tear down + recreate the pool; False once the restart budget is
        spent or a pool cannot start (caller degrades to serial)."""
        nonlocal pool, restarts
        restarts += 1
        abandon_inflight()
        _kill_pool(pool)
        if restarts > policy.max_pool_restarts:
            return False
        try:
            pool = ProcessPoolExecutor(max_workers=jobs)
        except (OSError, ImportError):  # pragma: no cover
            return False
        return True

    try:
        while queue or inflight:
            submit_failed = False
            while queue and len(inflight) < jobs * 2:
                i = queue.popleft()
                state.attempts[i] += 1
                try:
                    inflight[i] = pool.submit(state.fn, state.items[i])
                except Exception:
                    # The pool broke since we last looked (a worker died
                    # between results): put the item back and rebuild.
                    state.attempts[i] -= 1
                    queue.appendleft(i)
                    submit_failed = True
                    break
            if submit_failed:
                if not rebuild_pool():
                    _run_serial(state, list(queue))
                    return
                continue
            if not inflight:
                continue
            # Await the oldest in-flight item: completions therefore stream
            # back (nearly) in submission order and the timeout clock only
            # runs while we are actually blocked on the item.
            i, fut = next(iter(inflight.items()))
            try:
                result = fut.result(timeout=policy.timeout)
            except _FuturesTimeout:
                # The hung worker can only be reclaimed by tearing the
                # pool down.
                inflight.pop(i)
                cause = TimeoutError(
                    f"item {i} exceeded the {policy.timeout}s batch timeout"
                )
                healthy = rebuild_pool()
                state.retry_or_fail(i, "timeout", cause, queue)
                if not healthy:
                    _run_serial(state, list(queue))
                    return
            except (BrokenProcessPool, OSError) as exc:
                # A worker died (OOM kill, segfault, SIGKILL): every future
                # on this pool is lost.  Blame the item we were waiting on,
                # resubmit the rest attempt-free, rebuild the pool.
                inflight.pop(i)
                healthy = rebuild_pool()
                state.retry_or_fail(i, "worker-lost", exc, queue)
                if not healthy:
                    _run_serial(state, list(queue))
                    return
            except Exception as exc:
                # Application error inside the worker; the pool is intact.
                inflight.pop(i)
                state.retry_or_fail(i, "error", exc, queue)
            else:
                inflight.pop(i)
                state.complete(i, result)
    finally:
        _kill_pool(pool)


def _fan_out(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    jobs: Optional[int],
    progress: Optional[Progress] = None,
    policy: Optional[BatchPolicy] = None,
) -> List[Any]:
    """Shared fan-out core: map ``fn`` over ``items`` preserving result
    order, in parallel when it is safe and worth it, serially otherwise,
    applying ``policy`` (timeouts/retries/checkpointing) throughout."""
    policy = policy or BatchPolicy()
    items = list(items)
    state = _BatchState(fn, items, progress, policy)
    try:
        todo = state.remaining()
        if todo:
            jobs = decide_jobs(jobs, num_items=len(todo))
            pooled = (
                jobs > 1
                and len(todo) > 1
                and _is_picklable(fn)
                and all(_is_picklable(items[i]) for i in todo)
            )
            if pooled:
                _run_pooled(state, jobs)
            else:
                # Non-picklable payload (e.g. a config carrying a closure)
                # or a trivially small batch: run in-process.
                _run_serial(state, todo)
        return state.results_list()
    finally:
        state.close()


def run_batch(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
    *,
    policy: Optional[BatchPolicy] = None,
) -> List[Any]:
    """Execute independent :class:`RunSpec` s, fanned across processes.

    Returns one ``WorkloadRun`` per spec, in submission order.  With
    ``jobs=1`` (or ``REPRO_JOBS=1``) the batch runs serially in-process
    and produces bit-identical results.  ``policy`` opts the batch into
    timeouts, retries, pool-death recovery and checkpoint/resume (see
    :class:`BatchPolicy`); a worker exception surfaces as
    :class:`BatchItemError` with the failing :class:`RunSpec` attached.
    """
    return _fan_out(execute_spec, specs, jobs, progress, policy)


def _apply_task(task: Tuple[Callable, tuple, dict]) -> Any:
    fn, args, kwargs = task
    return fn(*args, **kwargs)


def run_tasks(
    tasks: Sequence[Tuple[Callable, tuple, Dict[str, Any]]],
    jobs: Optional[int] = None,
    progress: Optional[Progress] = None,
    *,
    policy: Optional[BatchPolicy] = None,
) -> List[Any]:
    """Generic fan-out for ``(fn, args, kwargs)`` tuples of module-level
    functions (the analytical sweeps: battery sizing, energy models).
    Results come back in submission order; the same serial-fallback,
    retry and checkpoint rules as :func:`run_batch` apply, and a worker
    exception surfaces as :class:`BatchItemError` with the failing task
    tuple attached."""
    return _fan_out(_apply_task, tasks, jobs, progress, policy)
