"""Exporter tests: JSONL logs, Chrome traces, and the invariant that the
event stream reconciles exactly with SimStats on a real run."""

import json
from dataclasses import asdict

import pytest

from repro.analysis.experiments import default_sim_config
from repro.api import RunOptions, build_system
from repro.obs.bus import EventBus, EventRecorder
from repro.obs.events import (
    BbpbAlloc,
    DrainStart,
    StallBegin,
    WpqEnqueue,
    event_to_payload,
)
from repro.obs.exporters import (
    event_counts,
    stall_attribution,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.timeline import OccupancySampler
from repro.workloads.base import WorkloadSpec, build_cached, seed_media_words

SPEC = WorkloadSpec(threads=4, ops=60, elements=1024, seed=11)


@pytest.fixture(scope="module")
def observed_run():
    """One hashmap/bbb run with a small buffer, fully observed."""
    cfg = default_sim_config()
    trace, initial_words = build_cached("hashmap", cfg.mem, SPEC)
    bus = EventBus()
    recorder = EventRecorder(bus)
    sampler = OccupancySampler(bus)
    system = build_system("bbb", entries=8, config=cfg,
                          options=RunOptions(bus=bus))
    seed_media_words(system.nvmm_media, initial_words)
    system.run(trace, finalize=True)
    return recorder.events, system.stats, sampler


class TestPayloadRoundTrip:
    def test_every_event_type_round_trips(self):
        samples = [
            BbpbAlloc(cycle=5, core=1, addr=0x80, occupancy=3),
            DrainStart(cycle=9, core=0, addr=0x40, complete_at=40,
                       occupancy=2),
            WpqEnqueue(cycle=11, addr=0xC0, channel=1, accept_at=30,
                       backlog=19),
            StallBegin(cycle=12, core=2, cause="bbpb_full"),
        ]
        for event in samples:
            payload = json.loads(json.dumps(event_to_payload(event)))
            assert payload.pop("kind") == event.kind
            assert payload == asdict(event)
            assert type(event)(**payload) == event


class TestJsonl:
    def test_real_run_round_trips_losslessly(self, observed_run, tmp_path):
        events, _, _ = observed_run
        path = tmp_path / "events.jsonl"
        written = write_jsonl(events, str(path))
        assert written == len(events)
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == \
            [event_to_payload(event) for event in events]


class TestChromeTrace:
    def test_structure_and_ordering(self, observed_run, tmp_path):
        events, _, _ = observed_run
        path = tmp_path / "trace.json"
        entries = write_chrome_trace(events, str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == entries
        ts = [e.get("ts", 0) for e in loaded["traceEvents"]]
        assert ts == sorted(ts)
        phases = {e["ph"] for e in loaded["traceEvents"]}
        assert "M" in phases            # process-name metadata
        assert "X" in phases            # drain / wpq duration spans
        # Every drain span sits on the bbPB track with a non-negative dur.
        drains = [e for e in loaded["traceEvents"] if e.get("name") == "drain"]
        assert drains
        assert all(e["dur"] >= 0 and e["pid"] == 2 for e in drains)

    def test_empty_event_list_still_valid(self):
        trace = to_chrome_trace([])
        assert [e["ph"] for e in trace["traceEvents"]] == ["M", "M", "M"]


class TestReconciliation:
    """The acceptance bar: event counts equal the SimStats counters."""

    def test_bbpb_counters_match(self, observed_run):
        events, stats, _ = observed_run
        counts = event_counts(events)
        assert counts.get("bbpb_alloc", 0) == stats.bbpb_allocations
        assert counts.get("bbpb_coalesce", 0) == stats.bbpb_coalesces
        assert counts.get("bbpb_reject", 0) == stats.bbpb_rejections
        assert counts.get("drain_start", 0) == stats.bbpb_drains
        assert counts.get("forced_drain", 0) == stats.bbpb_forced_drains

    def test_wpq_drains_match_nvmm_writes(self, observed_run):
        events, stats, _ = observed_run
        assert event_counts(events).get("wpq_drain", 0) == stats.nvmm_writes

    def test_stall_intervals_match_stall_cycles(self, observed_run):
        events, stats, _ = observed_run
        stalls = stall_attribution(events)
        assert stalls.get("bbpb_full", 0) == stats.total_bbpb_stalls
        assert stalls.get("flush_fence", 0) == sum(
            c.stall_cycles_flush_fence for c in stats.core
        )

    def test_occupancy_never_exceeds_entries(self, observed_run):
        _, _, sampler = observed_run
        for core in sampler.bbpb_cores():
            values = [v for _, v in sampler.bbpb_series(core)]
            assert values and max(values) <= 8


