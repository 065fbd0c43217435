"""Battery runner: cell sweeps, classification and reports."""

import pytest

from repro.core.registry import BBB, MODEL_STRICT, PMEM
from repro.litmus.corpus import corpus, corpus_test
from repro.litmus.models import strict_states
from repro.litmus.runner import (
    CLASS_ALLOWED,
    CLASS_FORBIDDEN,
    CLASS_UNREACHABLE,
    battery_failures,
    classify_states,
    render_matrix,
    run_battery,
    run_cell,
)


class TestClassifyStates:
    def test_exact_match_is_allowed(self):
        cls, bad = classify_states({(0, 0), (1, 0)}, {(0, 0), (1, 0)})
        assert cls == CLASS_ALLOWED and bad == []

    def test_strict_subset_is_unreachable(self):
        cls, bad = classify_states({(0, 0)}, {(0, 0), (1, 0)})
        assert cls == CLASS_UNREACHABLE and bad == []

    def test_extra_state_is_forbidden_and_sorted(self):
        cls, bad = classify_states(
            {(1, 1), (0, 1), (0, 0)}, {(0, 0)}
        )
        assert cls == CLASS_FORBIDDEN
        assert bad == [(0, 1), (1, 1)]


class TestRunCell:
    def test_honest_cell_observes_within_strict(self):
        test = corpus_test("prefix-pair")
        cell = run_cell(BBB, None, 8, test)
        assert cell["scheme"] == BBB and cell["mutant"] is None
        assert cell["points"] > 0
        observed = {tuple(rec["state"]) for rec in cell["observed"]}
        assert observed
        assert observed <= strict_states(test)
        for rec in cell["observed"]:
            assert 1 <= rec["stop_at"] <= cell["points"]
            assert rec["site"]

    def test_final_crash_point_yields_the_full_store_image(self):
        # The crash-free image is intentionally NOT observed (a battery
        # scheme's clean finalize leaves durable-but-volatile lines);
        # the last crash point's crash_drain stands in for it.
        test = corpus_test("prefix-pair")
        cell = run_cell(BBB, None, 8, test)
        observed = {tuple(rec["state"]) for rec in cell["observed"]}
        assert (1, 1) in observed

    def test_mutant_cell_escapes_strict(self):
        test = corpus_test("prefix-pair")
        cell = run_cell(BBB, "bbb-delayed-alloc", 8, test)
        observed = {tuple(rec["state"]) for rec in cell["observed"]}
        assert observed - strict_states(test)


class TestRunBattery:
    @pytest.fixture(scope="class")
    def report(self):
        return run_battery(
            schemes=[BBB, PMEM], tests=corpus(["prefix-pair", "wpq-pair"]),
            include_mutants=False, minimize=False,
        )

    def test_report_envelope(self, report):
        assert report["schema"] == "repro.litmus/v1"
        assert report["kind"] == "report"
        assert report["tests"] == ["prefix-pair", "wpq-pair"]
        assert len(report["cells"]) == 4

    def test_cells_carry_every_model_classification(self, report):
        for cell in report["cells"]:
            for model in report["models"]:
                entry = cell["models"][model]
                assert entry["classification"] in (
                    CLASS_ALLOWED, CLASS_UNREACHABLE, CLASS_FORBIDDEN
                )
                assert entry["observed_states"] <= entry["allowed_states"] \
                    or entry["forbidden"]

    def test_honest_builtins_conform_to_their_declaration(self, report):
        assert battery_failures(report) == []
        for row in report["schemes"]:
            assert row["declared_model"] == MODEL_STRICT
            assert row["conformant"]

    def test_render_matrix_has_a_row_per_target(self, report):
        rendered = render_matrix(report)
        assert "conformant" in rendered
        for row in report["schemes"]:
            assert row["scheme"] in rendered
        for model in report["models"]:
            assert model in rendered
