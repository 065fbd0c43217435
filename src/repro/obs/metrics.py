"""Metrics registry: counters, gauges, and histograms with label support.

The registry is the *declarative* face of the simulator's statistics:
:meth:`repro.sim.stats.SimStats.to_registry` projects a run's counters
into one (per-core counters become labelled families), and the
observability tooling (``repro profile``, the occupancy timelines) adds
its own instruments alongside.

Simulator hot paths intentionally do **not** increment registry objects —
they use plain ``SimStats`` attribute adds, which are ~5x cheaper in
CPython.  The registry is a snapshot/reporting structure, not a write
path; that split is what keeps observability free when disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds (powers of two, cycles).
DEFAULT_BUCKETS: Tuple[int, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536,
)


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    description: str = ""
    value: Number = 0

    def inc(self, n: Number = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "counter", "value": self.value,
                "description": self.description}


@dataclass
class Gauge:
    """Point-in-time value; tracks the min/max it has been set to."""

    name: str
    description: str = ""
    value: Number = 0
    min_value: Optional[Number] = None
    max_value: Optional[Number] = None

    def set(self, v: Number) -> None:
        self.value = v
        if self.min_value is None or v < self.min_value:
            self.min_value = v
        if self.max_value is None or v > self.max_value:
            self.max_value = v

    def to_dict(self) -> Dict[str, object]:
        return {"kind": "gauge", "value": self.value, "min": self.min_value,
                "max": self.max_value, "description": self.description}


@dataclass
class Histogram:
    """Bucketed distribution with count/sum/min/max.

    ``buckets`` are inclusive upper bounds; observations above the last
    bound land in the overflow bucket.
    """

    name: str
    description: str = ""
    buckets: Sequence[Number] = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    sum: Number = 0
    min: Optional[Number] = None
    max: Optional[Number] = None

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be sorted")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # +1 overflow

    def observe(self, v: Number) -> None:
        self.count += 1
        self.sum += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 4),
            "buckets": {str(b): c for b, c in zip(self.buckets, self.counts)},
            "overflow": self.counts[-1],
            "description": self.description,
        }


Metric = Union[Counter, Gauge, Histogram]

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class Family:
    """A labelled family of one metric kind (e.g. per-core counters).

    ::

        loads = registry.counter_family("core_loads", label="core")
        loads.labels(0).inc()
    """

    def __init__(self, registry: "MetricsRegistry", kind: str, name: str,
                 description: str, label: str, **metric_kwargs) -> None:
        self._registry = registry
        self._kind = kind
        self.name = name
        self.description = description
        self.label = label
        self._metric_kwargs = metric_kwargs
        self._children: Dict[object, Metric] = {}

    def labels(self, value: object) -> Metric:
        child = self._children.get(value)
        if child is None:
            cls = _KINDS[self._kind]
            child = cls(name=f"{self.name}{{{self.label}={value}}}",
                        description=self.description, **self._metric_kwargs)
            self._children[value] = child
        return child

    def items(self) -> Iterable[Tuple[object, Metric]]:
        return self._children.items()

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": f"{self._kind}_family",
            "label": self.label,
            "description": self.description,
            "children": {str(k): m.to_dict() for k, m in self._children.items()},
        }


class MetricsRegistry:
    """Name-keyed collection of metrics and labelled families.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same object; asking with a different kind
    raises.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Union[Metric, Family]] = {}

    # -- get-or-create ---------------------------------------------------
    def _get(self, kind: str, name: str, description: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            expected = _KINDS.get(kind, Family)
            if not isinstance(existing, expected):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind}"
                )
            return existing
        metric = _KINDS[kind](name=name, description=description, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get("counter", name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get("gauge", name, description)

    def histogram(self, name: str, description: str = "",
                  buckets: Sequence[Number] = DEFAULT_BUCKETS) -> Histogram:
        return self._get("histogram", name, description, buckets=buckets)

    def _family(self, kind: str, name: str, description: str, label: str,
                **kwargs) -> Family:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Family):
                raise TypeError(f"metric {name!r} is not a family")
            return existing
        fam = Family(self, kind, name, description, label, **kwargs)
        self._metrics[name] = fam
        return fam

    def counter_family(self, name: str, description: str = "",
                       label: str = "core") -> Family:
        return self._family("counter", name, description, label)

    def gauge_family(self, name: str, description: str = "",
                     label: str = "core") -> Family:
        return self._family("gauge", name, description, label)

    def histogram_family(self, name: str, description: str = "",
                         label: str = "core",
                         buckets: Sequence[Number] = DEFAULT_BUCKETS) -> Family:
        return self._family("histogram", name, description, label,
                            buckets=buckets)

    # -- introspection ---------------------------------------------------
    def get(self, name: str) -> Optional[Union[Metric, Family]]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable dump of every metric, sorted by name."""
        return {name: self._metrics[name].to_dict() for name in self.names()}


def run_registry(system, registry: Optional[MetricsRegistry] = None
                 ) -> MetricsRegistry:
    """Project a finished :class:`~repro.sim.system.System` into one
    registry: the run's ``SimStats`` counters and — for
    ``mode="analytical"`` runs — the model's ``analytical.*`` gauges.
    """
    reg = registry if registry is not None else MetricsRegistry()
    system.stats.to_registry(reg)
    estimate = getattr(system, "analytical", None)
    if estimate is not None:
        reg.gauge("analytical.occupancy",
                  "estimated mean bbPB entries resident per core"
                  ).set(estimate.occupancy)
        reg.counter("analytical.drains",
                    "estimated persist-buffer drains").inc(estimate.drains)
        reg.counter("analytical.stall_cycles",
                    "estimated persist-induced stall cycles"
                    ).inc(estimate.stall_cycles)
    return reg
