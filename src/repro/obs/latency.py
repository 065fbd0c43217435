"""Per-request latency tracking for the traffic frontend.

Two accumulators with one quantile API:

* :class:`LatencyHistogram` — a geometric (log-bucketed) histogram with a
  bounded *relative* quantile error.  Bucket ``i`` covers
  ``[GROWTH**i, GROWTH**(i+1))`` cycles, so with ``GROWTH = 2**(1/8)``
  every reported quantile is within ~9% of the exact value while memory
  stays O(log(max latency)) regardless of request count.
  This is the accumulator the frontend uses: a load sweep observes
  millions of requests and must not hold them all.
* :class:`ExactLatencies` — keeps every sample; exact quantiles.  Used by
  tests (the Hypothesis property compares the two) and small runs.

Both report the nearest-rank quantile: ``quantile(q)`` is the smallest
recorded value ``v`` such that at least ``ceil(q * n)`` samples are
``<= v`` (the histogram returns its bucket's upper bound, keeping the
estimate conservative — a reported p99 never understates the true p99 by
more than one bucket's width).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = [
    "GROWTH",
    "ExactLatencies",
    "LatencyHistogram",
    "LatencyRecorder",
    "PERCENTILE_LABELS",
    "percentile_summary",
]

#: Bucket growth factor: 8 buckets per octave (~9% relative error).
GROWTH = 2.0 ** (1.0 / 8.0)
_LOG_GROWTH = math.log(GROWTH)

#: The quantiles the traffic reports publish, with their report labels.
PERCENTILE_LABELS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p99", 0.99),
    ("p999", 0.999),
)


def _checked(value: int) -> int:
    value = int(value)
    if value < 0:
        raise ValueError(f"latency must be >= 0, got {value}")
    return value


def _bucket_index(value: int) -> int:
    """Histogram bucket of ``value``: ``floor(log(v) / log(GROWTH))``,
    with -1 the underflow bucket of exactly 0."""
    if value <= 0:
        return -1
    return int(math.log(value) / _LOG_GROWTH)


class LatencyHistogram:
    """Geometric log-bucket histogram over positive integer latencies.

    Bucket index of value ``v`` (``v >= 1``) is
    ``floor(log(v) / log(GROWTH))``; value 0 gets its own underflow
    bucket.  Quantiles return the bucket's inclusive *upper* bound, so
    estimates are conservative (never below the true nearest-rank value)
    and the relative error is bounded by ``GROWTH - 1``.
    """

    __slots__ = ("_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self) -> None:
        self._buckets: Dict[int, int] = {}
        self._count = 0
        self._sum = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    # ------------------------------------------------------------------
    def _upper_bound(self, index: int) -> int:
        """Largest integer value mapping to bucket ``index``."""
        if index < 0:
            return 0
        hi = int(math.ceil(GROWTH ** (index + 1))) - 1
        # Float round-off can land the boundary value in the next bucket;
        # walk back until the bound really maps here.
        while hi > 1 and _bucket_index(hi) > index:
            hi -= 1
        return hi

    # ------------------------------------------------------------------
    def record(self, value: int) -> None:
        value = _checked(value)
        self._add(value, _bucket_index(value))

    def _add(self, value: int, idx: int) -> None:
        """Count a checked ``value`` whose bucket index is ``idx``."""
        buckets = self._buckets
        buckets[idx] = buckets.get(idx, 0) + 1
        self._count += 1
        self._sum += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> int:
        return self._sum

    def mean(self) -> float:
        return (self._sum / self._count) if self._count else 0.0

    def quantile(self, q: float) -> int:
        """Nearest-rank quantile estimate (bucket upper bound, clamped to
        the observed max).  Empty histogram -> 0."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        if not self._count:
            return 0
        rank = math.ceil(q * self._count)
        seen = 0
        for idx in sorted(self._buckets):
            seen += self._buckets[idx]
            if seen >= rank:
                return min(self._upper_bound(idx), self._max or 0)
        return self._max or 0  # pragma: no cover — rank <= count always hits


class ExactLatencies:
    """Reference accumulator: keeps every sample, exact nearest-rank
    quantiles.  Same API subset as :class:`LatencyHistogram`."""

    __slots__ = ("_values", "_sorted")

    def __init__(self) -> None:
        self._values: List[int] = []
        self._sorted = True

    def record(self, value: int) -> None:
        value = _checked(value)
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> int:
        return sum(self._values)

    def mean(self) -> float:
        return (sum(self._values) / len(self._values)) if self._values else 0.0

    def quantile(self, q: float) -> int:
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        if not self._values:
            return 0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = math.ceil(q * len(self._values))
        return self._values[rank - 1]


class LatencyRecorder:
    """Per-key latency accumulation (one histogram per tenant/op/...).

    The frontend keeps one recorder per run and records each completed
    request under the aggregate key ``""`` plus its tenant and op keys,
    so reports can break latency out per namespace without a second
    pass.
    """

    AGGREGATE = ""

    def __init__(self) -> None:
        self._hists: Dict[str, LatencyHistogram] = {}

    def record(self, value: int, *keys: str) -> None:
        """Record under the aggregate plus every key in ``keys``; the
        bucket index is computed once for all of them."""
        value = _checked(value)
        idx = _bucket_index(value)
        hists = self._hists
        for key in (self.AGGREGATE,) + keys:
            hist = hists.get(key)
            if hist is None:
                hist = hists[key] = LatencyHistogram()
            hist._add(value, idx)

    def histogram(self, key: str = AGGREGATE) -> LatencyHistogram:
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = LatencyHistogram()
        return hist

    def keys(self) -> Tuple[str, ...]:
        return tuple(k for k in self._hists if k != self.AGGREGATE)


def percentile_summary(hist) -> Dict[str, object]:
    """The standard report block: count/mean plus the published
    percentiles.  Works for both accumulator classes."""
    block: Dict[str, object] = {
        "count": hist.count,
        "mean_cycles": round(hist.mean(), 3),
    }
    for label, q in PERCENTILE_LABELS:
        block[label] = hist.quantile(q)
    return block
