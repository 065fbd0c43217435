"""Overload tests: admission queues have no limit, so overload shows up
as queue depth and latency, never as lost requests."""

from repro.core.registry import BBB
from repro.serve import TrafficSpec, run_traffic

BASE = TrafficSpec(requests=60, seed=7)


def test_unbounded_queues_grow_past_the_limit():
    """At 50x the sustainable load the queues grow deeper than at the
    nominal load, and nothing is shed: every request is served and lands
    in the latency histogram."""
    nominal = run_traffic(BBB, BASE, entries=16)
    overloaded = run_traffic(BBB, BASE.with_load(50.0), entries=16)
    assert overloaded.max_queue_depth > nominal.max_queue_depth
    assert overloaded.completed == BASE.requests
    assert overloaded.latency["count"] == BASE.requests
