"""Mutant teeth: the battery must catch both checker mutants, minimize
each catch to a replayable counterexample, and reproduce it on replay.

An uncaught mutant means the battery has lost its discriminating power —
that is itself a gate failure (`battery_failures` reports it), so these
tests pin the teeth from both directions: the mutants ARE caught, and
losing a catch WOULD fail the gate.
"""

import pytest

from repro.check.mutants import MUTANTS
from repro.ioutil import atomic_write_json
from repro.litmus.corpus import corpus
from repro.litmus.dsl import LitmusTest
from repro.litmus.runner import (
    CLASS_FORBIDDEN,
    battery_failures,
    minimize_cell,
    replay_counterexample,
    run_battery,
)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    cex_dir = tmp_path_factory.mktemp("litmus-cex")
    rep = run_battery(
        tests=corpus(["prefix-pair"]), cex_dir=str(cex_dir),
    )
    return rep, cex_dir


def mutant_rows(rep):
    return [row for row in rep["schemes"] if row["mutant"] is not None]


def test_every_registered_mutant_runs_in_the_battery(report):
    rep, _ = report
    assert {row["mutant"] for row in mutant_rows(rep)} == set(MUTANTS)


def test_each_mutant_produces_a_forbidden_cell(report):
    rep, _ = report
    for row in mutant_rows(rep):
        assert row["caught"], row["mutant"]
        assert row["forbidden_cells"] == ["prefix-pair"]
    assert all(rep["conformance"]["mutants_caught"].values())
    # honest schemes stay clean alongside: catching mutants is not a
    # side effect of an over-strict enumerator.
    assert battery_failures(rep) == []


def test_forbidden_cells_minimize_to_replayable_counterexamples(report):
    rep, cex_dir = report
    by_target = {
        cex["mutant"]: cex for cex in rep["counterexamples"]
        if cex["mutant"] is not None
    }
    assert set(by_target) == set(MUTANTS)
    for mutant, cex in by_target.items():
        assert cex["schema"] == "repro.litmus/v1"
        assert cex["kind"] == "counterexample"
        reduced = LitmusTest.from_payload(cex["test"])
        assert sum(len(p) for p in reduced.programs) <= 2
        path = cex_dir / f"litmus-cex-{mutant}.json"
        assert path.exists()
        result = replay_counterexample(str(path))
        assert result["reproduced"], mutant
        assert result["state"] == cex["forbidden_state"]


def test_minimize_cell_recomputes_allowed_sets_soundly(tmp_path):
    # Minimize directly (not via run_battery) and round-trip through
    # an artifact file: the reduced programs must still observe a
    # state forbidden for the REDUCED test, not merely for the original.
    mutant = sorted(MUTANTS)[0]
    base = MUTANTS[mutant][0]
    test = corpus(["prefix-pair"])[0]
    artifact = minimize_cell(base, mutant, 8, test, "strict")
    assert artifact["tests_run"] >= 1
    path = tmp_path / "cex.json"
    atomic_write_json(str(path), artifact)
    assert replay_counterexample(str(path))["reproduced"]


def test_an_uncaught_mutant_would_fail_the_gate(report):
    rep, _ = report
    doctored = {
        "conformance": {
            "failures": [],
            "mutants_caught": dict(
                rep["conformance"]["mutants_caught"], **{"some-mutant": False}
            ),
        },
    }
    failures = battery_failures(doctored)
    assert len(failures) == 1
    assert "some-mutant" in failures[0]
    assert "teeth" in failures[0]
