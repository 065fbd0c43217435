"""Tests for optimizer reporting and artifacts (repro.opt.report)."""

import json

import pytest

from repro.core.registry import ORDERING_FENCE, ORDERING_FLUSH, iter_schemes
from repro.ioutil import ArtifactError, atomic_write_json
from repro.opt import (
    OPT_SCHEMA,
    compare_cell,
    opt_compare,
    render_compare_table,
    replay_report,
)
from repro.workloads.base import WorkloadSpec

SPEC = WorkloadSpec(threads=2, ops=4, elements=64, seed=3)

FULL = next(s.name for s in iter_schemes()
            if s.subsumes_ordering(ORDERING_FLUSH)
            and s.subsumes_ordering(ORDERING_FENCE))
KEEPER = next(s.name for s in iter_schemes()
              if not s.subsumes_ordering(ORDERING_FLUSH))


class TestCompareCell:
    def test_full_contract_cell_wins(self):
        row = compare_cell("hashmap", FULL, SPEC, entries=4)
        assert row["flush_fence_elision_pct"] == 100.0
        assert row["cycles_optimized"] < row["cycles_naive"]
        assert row["audit_ok"] and row["image_ok"]

    def test_keeper_cell_is_a_noop(self):
        row = compare_cell("hashmap", KEEPER, SPEC, entries=4)
        assert row["flush_fence_elision_pct"] == 0.0
        assert row["ops_optimized"] == row["ops_naive"]
        assert row["cycles_delta_pct"] == 0.0
        assert row["audit_ok"] and row["image_ok"]


class TestCompareReport:
    @pytest.fixture(scope="class")
    def report(self):
        return opt_compare(
            workloads=["hashmap", "mutateNC"], schemes=[FULL, KEEPER],
            spec=SPEC, entries=4, jobs=1,
        )

    def test_shape_and_schema(self, report):
        assert report["schema"] == OPT_SCHEMA
        assert report["kind"] == "compare"
        assert len(report["rows"]) == 4
        assert set(report["by_scheme"]) == {FULL, KEEPER}

    def test_by_scheme_rollup(self, report):
        assert report["by_scheme"][FULL]["mean_elision_pct"] == 100.0
        assert report["by_scheme"][KEEPER]["mean_elision_pct"] == 0.0
        for scheme in (FULL, KEEPER):
            assert report["by_scheme"][scheme]["all_audits_ok"]
            assert report["by_scheme"][scheme]["all_images_ok"]

    def test_render_table(self, report):
        table = render_compare_table(report)
        assert "hashmap" in table and FULL in table
        assert "100.0%" in table

    def test_write_and_replay_round_trip(self, report, tmp_path):
        path = str(tmp_path / "opt.json")
        assert atomic_write_json(path, report) == path
        out = replay_report(path)
        assert out["reproduced"], out["mismatches"]
        assert out["artifact"]["schema"] == OPT_SCHEMA

    def test_replay_detects_a_tampered_artifact(self, report, tmp_path):
        path = tmp_path / "opt.json"
        doctored = json.loads(json.dumps(report))
        doctored["rows"][0]["flush_fence_elision_pct"] = 12.5
        path.write_text(json.dumps(doctored))
        out = replay_report(str(path))
        assert not out["reproduced"]
        assert any("flush_fence_elision_pct" in m
                   for m in out["mismatches"])

    def test_replay_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "repro.other/v1",
                                    "kind": "compare", "rows": []}))
        with pytest.raises(ArtifactError):
            replay_report(str(path))
