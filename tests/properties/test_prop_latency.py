"""Property-based tests for the latency accumulators (repro.obs.latency):
the streaming log-bucket histogram must agree with the exact accumulator —
identical count/sum/mean, and every published quantile conservative
(never below the exact nearest-rank value) with relative error bounded by
the bucket growth factor.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.latency import (GROWTH, ExactLatencies,
                               LatencyHistogram, LatencyRecorder,
                               PERCENTILE_LABELS, percentile_summary)

# Latencies from the degenerate 0 through multi-octave spreads.
latencies = st.lists(st.integers(min_value=0, max_value=1 << 24),
                     min_size=1, max_size=300)
quantiles = st.one_of(
    st.sampled_from([q for _, q in PERCENTILE_LABELS]),
    st.floats(min_value=0.001, max_value=1.0,
              allow_nan=False, allow_infinity=False),
)


@given(latencies, quantiles)
@settings(max_examples=200)
def test_histogram_quantile_is_conservative_and_bounded(values, q):
    hist = LatencyHistogram()
    exact = ExactLatencies()
    for v in values:
        hist.record(v)
        exact.record(v)
    true_q = exact.quantile(q)
    est = hist.quantile(q)
    # Conservative: the estimate never understates the exact value.
    assert est >= true_q
    # Bounded: at most one bucket's width above it (and never above the
    # observed max).
    assert est <= max(values)
    assert est <= math.ceil(true_q * GROWTH) if true_q else est == 0


@given(latencies)
@settings(max_examples=100)
def test_histogram_moments_are_exact(values):
    hist = LatencyHistogram()
    exact = ExactLatencies()
    for v in values:
        hist.record(v)
        exact.record(v)
    assert hist.count == exact.count == len(values)
    assert hist.total == exact.total == sum(values)
    assert math.isclose(hist.mean(), exact.mean())
    # The shared report block shape the traffic report embeds.
    block = percentile_summary(hist)
    assert set(block) == {"count", "mean_cycles"} | {
        label for label, _ in PERCENTILE_LABELS
    }


@given(latencies)
@settings(max_examples=50)
def test_recorder_aggregate_covers_all_keys(values):
    recorder = LatencyRecorder()
    for i, v in enumerate(values):
        recorder.record(v, f"tenant:{i % 3}")
    assert recorder.histogram().count == len(values)
    assert sum(recorder.histogram(k).count for k in recorder.keys()) == len(
        values
    )
