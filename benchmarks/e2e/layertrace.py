"""Outside-in layer tracing for the end-to-end benchmark.

The program is not instrumented.  Instead, :class:`Tracer` replaces the
public methods of each layer with timing wrappers, as class (or module)
attributes patched in the benchmark process, and restores the originals
afterwards.  Install it before any system is built: code that binds a
method once per run then binds the wrapper.

Two kinds of record are kept in memory and written out when the run ends:

* **spans** for the entry layers — one per benchmark cell (grid cell,
  traffic point, check unit) and one per ``Engine.run`` call inside it
  (for the crash sweep, every crash-point ``System.run``): name, start,
  end, parent span and cell id;
* **aggregates** for the per-op layers: calls, and self time taken from a
  stack of child-time accumulators (a layer's self time is its wall time
  minus the time spent in wrapped callees, same layer or not).

Self times include the wrappers' own cost for wrapped callees, so compare
traced numbers only with traced numbers.  A method that no longer exists
is skipped and listed as absent, so the benchmark survives refactors.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple


class Target(NamedTuple):
    """Methods of one owner (a class, or a module when ``owner`` is None)."""

    module: str
    owner: Optional[str]
    names: Tuple[str, ...]
    #: Also wrap the methods where a subclass overrides them.
    subclasses: bool = False


_SCHEME_HOOKS = (
    "on_persisting_store", "on_remote_invalidation", "on_remote_intervention",
    "on_llc_eviction", "on_explicit_flush", "on_epoch_boundary", "finalize",
    "crash_drain", "bbpb_owner_of", "bbpb_for",
)
_BBPB_METHODS = ("put", "force_drain", "remove", "drain_all", "crash_drain")

#: Layer name -> the methods that make up its public surface.
LAYERS: Dict[str, Tuple[Target, ...]] = {
    "sim.engine": (
        Target("repro.sim.engine", "Engine", ("run",)),
        Target("repro.sim.engine", "EngineStream", ("feed", "pump", "finish")),
    ),
    "sim.coltrace": (
        Target("repro.sim.coltrace", None, ("columnar_of",)),
        Target("repro.sim.coltrace", "ColumnarTrace",
               ("from_program", "engine_prep")),
    ),
    "mem.hierarchy": (
        Target("repro.mem.hierarchy", "MemoryHierarchy",
               ("load", "store", "flush_block_to_wpq")),
    ),
    "mem.cache": (
        Target("repro.mem.cache", "CacheArray",
               ("lookup", "insert", "remove", "victim_for", "contains")),
    ),
    "mem.coherence": (
        Target("repro.mem.coherence", "Directory",
               ("entry", "ensure", "drop", "record_exclusive", "record_shared",
                "record_downgrade", "record_l1_eviction", "set_bbpb_owner",
                "bbpb_owner", "blocks_in_bbpb")),
        Target("repro.mem.coherence", "DrainMessageChannel", ("deliver",)),
    ),
    "mem.storebuffer": (
        Target("repro.mem.storebuffer", "StoreBuffer",
               ("__len__", "full", "push", "pop_oldest", "pop_any", "forward",
                "requeue", "drain_order_on_crash")),
    ),
    "core.persistency": (
        Target("repro.core.persistency", "PersistencyScheme", _SCHEME_HOOKS,
               subclasses=True),
    ),
    "core.bbpb": (
        Target("repro.core.bbpb", "MemorySideBBPB", _BBPB_METHODS),
        Target("repro.core.bbpb", "ProcessorSideBBPB", _BBPB_METHODS),
    ),
    "mem.memctrl": (
        Target("repro.mem.memctrl", "NVMMController", ("read", "write")),
        Target("repro.mem.memctrl", "DRAMController", ("read", "write")),
    ),
    "check.schedule": (
        Target("repro.check.schedule", "CrashSchedule", ("reached",)),
    ),
    "check.checker": (
        Target("repro.check.checker", None,
               ("durable_fingerprint", "check_scheme_contract",
                "golden_expected", "diff_golden", "claimed_persists")),
    ),
    "api.build_system": (
        Target("repro.api", None, ("build_system",)),
        Target("repro.check.mutants", None, ("build_mutant_system",)),
    ),
    "serve.loadgen": (
        Target("repro.serve.loadgen", None, ("iter_requests",)),
    ),
    "serve.kvservice": (
        Target("repro.serve.kvservice", "KVService", ("ops_for", "core_of")),
    ),
    "obs.latency": (
        Target("repro.obs.latency", "LatencyRecorder", ("record",)),
    ),
}

#: The generator functions among the targets: each ``next()`` is one call.
_GENERATORS = frozenset({"iter_requests"})

#: Methods whose calls are kept as spans, not only aggregated.
SPAN_METHODS = frozenset({"Engine.run"})


class LayerStat:
    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Patches every layer of :data:`LAYERS` while installed.

    ``on_return`` maps ``"Owner.method"`` to a callback ``(args, result)``
    run after each call of that method (used to read each run's
    ``SimStats`` where no public API returns them).
    """

    def __init__(self, on_return: Optional[Dict[str, Callable]] = None) -> None:
        self.layers: Dict[str, LayerStat] = {name: LayerStat() for name in LAYERS}
        self.present: Dict[str, List[str]] = {name: [] for name in LAYERS}
        self.absent: List[str] = []
        self.spans: List[Dict[str, Any]] = []
        self.unattributed_s = 0.0
        self.entry_s = 0.0
        self._on_return = dict(on_return or {})
        self._stack: List[float] = [0.0]
        self._open: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()

    # -- install / remove ------------------------------------------------
    def install(self) -> None:
        # Import every target module first, so subclass scans (scheme
        # hooks) see the classes each module defines, mutants included.
        modules = {}
        for targets in LAYERS.values():
            for target in targets:
                try:
                    modules[target.module] = importlib.import_module(
                        target.module)
                except ImportError:
                    modules[target.module] = None
        for layer, targets in LAYERS.items():
            for target in targets:
                self._install_target(layer, target, modules[target.module])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _install_target(self, layer: str, target: Target, module) -> None:
        if module is None:
            self.absent.extend(f"{target.module}.{n}" for n in target.names)
            return
        if target.owner is None:
            for name in target.names:
                self._patch_function(layer, module, name)
            return
        cls = getattr(module, target.owner, None)
        if cls is None:
            self.absent.extend(
                f"{target.module}.{target.owner}.{n}" for n in target.names)
            return
        classes = [cls] + (_all_subclasses(cls) if target.subclasses else [])
        for name in target.names:
            found = False
            for klass in classes:
                if name in vars(klass):
                    self._patch_method(layer, klass, name)
                    found = True
            if not found:
                self.absent.append(f"{target.module}.{target.owner}.{name}")

    def _patch_method(self, layer: str, cls: type, name: str) -> None:
        raw = vars(cls)[name]
        key = f"{cls.__name__}.{name}"
        if isinstance(raw, property):
            new: Any = property(self._wrap(layer, key, raw.fget),
                                raw.fset, raw.fdel, raw.__doc__)
        elif isinstance(raw, classmethod):
            new = classmethod(self._wrap(layer, key, raw.__func__))
        else:
            new = self._wrap(layer, key, raw)
        setattr(cls, name, new)
        self._patches.append((cls, name, raw))
        self.present[layer].append(f"{cls.__module__}.{key}")

    def _patch_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{name}")
            return
        wrapper = (self._wrap_generator(layer, original) if name in _GENERATORS
                   else self._wrap(layer, name, original))
        # Rebind every ``from module import name`` copy in the package too.
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, name, None) is original):
                setattr(mod, name, wrapper)
                self._patches.append((mod, name, original))
        self.present[layer].append(f"{module.__name__}.{name}")

    # -- wrappers --------------------------------------------------------
    def _wrap(self, layer: str, key: str, fn: Callable) -> Callable:
        stat = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter
        on_return = self._on_return.get(key)
        span = key in SPAN_METHODS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                self._open_span(layer + "." + key.split(".")[-1])
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat.calls += 1
                stat.self_s += dt - child
                if span:
                    self._close_span(t0, dt)
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def _wrap_generator(self, layer: str, fn: Callable) -> Callable:
        stat = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        def pulls(it):
            while True:
                stack.append(0.0)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    child = stack.pop()
                    stack[-1] += dt
                    stat.calls += 1
                    stat.self_s += dt - child
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return pulls(fn(*args, **kwargs))

        return wrapper

    # -- spans -----------------------------------------------------------
    def _open_span(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        cell = self.spans[self._open[0]]["cell"] if self._open else None
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": parent, "cell": cell,
                           "start_s": 0.0, "end_s": 0.0})
        self._open.append(len(self.spans) - 1)

    def _close_span(self, t0: float, dt: float) -> None:
        span = self.spans[self._open.pop()]
        span["start_s"] = round(t0 - self._t0, 6)
        span["end_s"] = round(t0 + dt - self._t0, 6)

    @contextmanager
    def entry(self, name: str, cell: str):
        """A top-level span around one benchmark cell.  Time inside it
        that no wrapped layer accounts for is *unattributed*."""
        self._open_span(name)
        self.spans[-1]["cell"] = cell
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            child = self._stack.pop()
            self.unattributed_s += dt - child
            self.entry_s += dt
            self._close_span(t0, dt)

    # -- results ---------------------------------------------------------
    def coverage(self) -> float:
        """Share of the entry spans' wall time that named layers account
        for."""
        if self.entry_s <= 0:
            return 0.0
        return 1.0 - self.unattributed_s / self.entry_s


def _all_subclasses(cls: type) -> List[type]:
    out: List[type] = []
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in out:
            out.append(sub)
            todo.extend(sub.__subclasses__())
    return out
