"""The litmus battery runner: corpus x every registered scheme.

For each (scheme, test) cell the runner lowers the test to a
:class:`~repro.sim.trace.ProgramTrace`, runs it once through the
single-pass crash kernel (:func:`repro.check.explore.sweep`), and at
every micro-step crash point ``k in 1..T`` reads the durable image of the
test's locations a crash there would leave.  The resulting
observed-state set is classified against each formal model's complete
allowed set (:mod:`repro.litmus.models`):

``allowed``
    observed == allowed (the scheme realizes the model exactly);
``allowed-but-unreachable``
    observed is a strict subset (the scheme is stronger than — or just
    does not exercise — part of the model);
``forbidden-but-observed``
    some observed state is outside the allowed set: under the scheme's
    *declared* model (:attr:`SchemeInfo.persistency_model`) this is a
    hard conformance failure.

Schemes are taken from the registry (zero scheme-name literals); the
checker mutants (:mod:`repro.check.mutants`) run under their base
scheme's declaration and are *expected* to produce forbidden cells — an
uncaught mutant is itself a battery failure.  Forbidden cells are
minimized through the shared ddmin path into replayable
``repro.litmus/v1`` counterexample artifacts (the allowed set is
recomputed for every reduced candidate, so minimization is sound).

Cells run one after another in-process: the whole battery takes about a
second and a process pool measured no faster, and a plugin scheme
registered only in the driving process is visible to every cell.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.check.minimize import ddmin, deinterleave, interleave
from repro.check.mutants import build_crash_system
from repro.check.schedule import CrashSchedule
from repro.core.registry import PERSISTENCY_MODELS, iter_schemes, scheme_info
from repro.litmus.dsl import (
    LITMUS_SCHEMA,
    LitmusTest,
    State,
    lower,
    observe_state,
)
from repro.litmus.models import allowed_states

__all__ = [
    "CLASS_ALLOWED",
    "CLASS_FORBIDDEN",
    "CLASS_UNREACHABLE",
    "classify_states",
    "minimize_cell",
    "render_matrix",
    "replay_counterexample",
    "run_battery",
    "run_cell",
    "smoke_battery",
    "sweep_states",
]

CLASS_ALLOWED = "allowed"
CLASS_UNREACHABLE = "allowed-but-unreachable"
CLASS_FORBIDDEN = "forbidden-but-observed"

#: ddmin oracle-call budget per minimized cell.
MINIMIZE_BUDGET = 200


def _default_config():
    from repro.analysis.experiments import default_sim_config

    return default_sim_config()


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------

def run_cell(
    scheme: str,
    mutant: Optional[str],
    entries: int,
    test: LitmusTest,
) -> Dict[str, Any]:
    """Sweep every micro-step crash point of one (scheme, test) cell and
    return the observed durable states with first-seen provenance."""
    config = _default_config()
    trace, addrs = lower(test, config)
    schedule = CrashSchedule(stop_at=None)
    system = build_crash_system(scheme, mutant=mutant, entries=entries,
                                config=config, crash_schedule=schedule)
    observed = sweep_states(system, trace, test, addrs)
    return {
        "scheme": scheme,
        "mutant": mutant,
        "test": test.name,
        "points": schedule.visits,
        "observed": [
            {"state": list(state), **prov}
            for state, prov in sorted(observed.items())
        ],
    }


def sweep_states(system, trace, test: LitmusTest, addrs
                 ) -> Dict[State, Dict[str, Any]]:
    """The durable states of ``test``'s locations over every micro-step
    crash point of one run of ``trace`` on ``system`` (built with a
    counting schedule), each with its first-seen provenance
    (``stop_at``, ``site``).

    Only crash points contribute states — a clean run's media image is
    *not* the durable state for schemes whose battery covers volatile
    structures (the final crash point, after the last op, yields the
    full-store image the battery drains)."""
    from repro.check.explore import sweep

    observed: Dict[State, Dict[str, Any]] = {}

    def observe(visit) -> None:
        state = observe_state(visit.nvmm_media, test, addrs)
        if state not in observed:
            observed[state] = {"stop_at": visit.point, "site": visit.site}

    sweep(system, trace, observe)
    return observed


def classify_states(observed, allowed) -> Tuple[str, List[State]]:
    """Classify an observed-state set against a complete allowed set;
    returns ``(classification, sorted forbidden states)``."""
    observed = frozenset(observed)
    forbidden = sorted(observed - frozenset(allowed))
    if forbidden:
        return CLASS_FORBIDDEN, forbidden
    if observed == frozenset(allowed):
        return CLASS_ALLOWED, []
    return CLASS_UNREACHABLE, []


def _classify_cell(cell: Dict[str, Any], test: LitmusTest) -> None:
    """Attach per-model classifications to a worker cell (in place)."""
    observed = {tuple(rec["state"]) for rec in cell["observed"]}
    models: Dict[str, Any] = {}
    for model in PERSISTENCY_MODELS:
        allowed = allowed_states(test, model)
        classification, forbidden = classify_states(observed, allowed)
        models[model] = {
            "classification": classification,
            "allowed_states": len(allowed),
            "observed_states": len(observed),
            "forbidden": [list(state) for state in forbidden],
        }
    cell["models"] = models


# ----------------------------------------------------------------------
# The battery
# ----------------------------------------------------------------------

def _targets(
    schemes: Optional[Sequence[str]], include_mutants: bool
) -> List[Tuple[str, Optional[str], str]]:
    """(scheme, mutant, declared model) rows, registry-dispatched."""
    if schemes is None:
        names = [info.name for info in iter_schemes()]
    else:
        names = list(schemes)
    rows: List[Tuple[str, Optional[str], str]] = [
        (name, None, scheme_info(name).persistency_model) for name in names
    ]
    if include_mutants:
        from repro.check.mutants import MUTANTS

        for mutant_name in sorted(MUTANTS):
            base = MUTANTS[mutant_name][0]
            if schemes is not None and base not in names:
                continue
            rows.append(
                (base, mutant_name, scheme_info(base).persistency_model)
            )
    return rows


def run_battery(
    schemes: Optional[Sequence[str]] = None,
    tests: Optional[Sequence[LitmusTest]] = None,
    entries: int = 8,
    include_mutants: bool = True,
    progress=None,
    minimize: bool = True,
    cex_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run ``tests`` (default: the full corpus) against ``schemes``
    (default: every registered scheme) plus the checker mutants, and
    fold the classified cells into a ``repro.litmus/v1`` report.

    The report's ``conformance`` section holds the gate results: honest
    schemes observing a state their declared model forbids are failures;
    mutants are failures only when *no* cell catches them.  Forbidden
    cells under a target's declared model are ddmin-minimized into
    replayable counterexample artifacts (inline in the report; also
    written to ``cex_dir`` when given).  ``progress(done, total)`` is
    called after each cell.
    """
    from repro.litmus.corpus import corpus

    test_list = list(tests) if tests is not None else corpus()
    by_name = {t.name: t for t in test_list}
    targets = _targets(schemes, include_mutants)

    cells: List[Dict[str, Any]] = []
    total = len(targets) * len(test_list)
    for scheme, mutant, _ in targets:
        for test in test_list:
            cell = run_cell(scheme, mutant, entries, test)
            _classify_cell(cell, test)
            cells.append(cell)
            if progress is not None:
                progress(len(cells), total)

    schemes_out: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    mutants_caught: Dict[str, bool] = {}
    counterexamples: List[Dict[str, Any]] = []
    for scheme, mutant, declared in targets:
        forbidden_cells = [
            c for c in cells
            if c["scheme"] == scheme and c["mutant"] == mutant
            and c["models"][declared]["classification"] == CLASS_FORBIDDEN
        ]
        row = {
            "scheme": scheme,
            "mutant": mutant,
            "declared_model": declared,
            "forbidden_cells": [c["test"] for c in forbidden_cells],
        }
        if mutant is not None:
            caught = bool(forbidden_cells)
            mutants_caught[mutant] = caught
            row["caught"] = caught
        else:
            row["conformant"] = not forbidden_cells
            for c in forbidden_cells:
                for state in c["models"][declared]["forbidden"]:
                    failures.append({
                        "scheme": scheme,
                        "test": c["test"],
                        "model": declared,
                        "state": state,
                    })
        schemes_out.append(row)

        if minimize and forbidden_cells:
            cell = forbidden_cells[0]
            artifact = minimize_cell(
                scheme, mutant, entries, by_name[cell["test"]], declared
            )
            if cex_dir is not None:
                import os

                from repro.ioutil import atomic_write_json

                label = mutant or scheme
                path = os.path.join(cex_dir, f"litmus-cex-{label}.json")
                atomic_write_json(path, artifact)
                artifact = dict(artifact, path=path)
            counterexamples.append(artifact)

    return {
        "schema": LITMUS_SCHEMA,
        "kind": "report",
        "entries": entries,
        "models": list(PERSISTENCY_MODELS),
        "tests": [t.name for t in test_list],
        "cells": cells,
        "schemes": schemes_out,
        "conformance": {
            "failures": failures,
            "mutants_caught": mutants_caught,
        },
        "counterexamples": counterexamples,
    }


# ----------------------------------------------------------------------
# ddmin minimization + replayable artifacts
# ----------------------------------------------------------------------

def minimize_cell(
    scheme: str,
    mutant: Optional[str],
    entries: int,
    test: LitmusTest,
    model: str,
    budget: int = MINIMIZE_BUDGET,
) -> Dict[str, Any]:
    """ddmin a forbidden cell to a 1-minimal program set and return the
    replayable ``repro.litmus/v1`` counterexample artifact.

    Soundness: the oracle recomputes the *complete* allowed set for every
    reduced candidate (removing ops changes what the model allows), so a
    candidate only counts as failing if it observes a state forbidden for
    its own reduced programs."""
    num_cores = len(test.programs)

    def programs(ops):
        return tuple(tuple(p) for p in deinterleave(ops, num_cores))

    def oracle(ops):
        try:
            candidate = test.without_expectations(programs(ops))
        except ValueError:
            return None
        allowed = allowed_states(candidate, model)
        cell = run_cell(scheme, mutant, entries, candidate)
        for rec in cell["observed"]:
            state = tuple(rec["state"])
            if state not in allowed:
                return (state, rec["stop_at"], rec["site"], cell["points"])
        return None

    minimal, info, tests_run = ddmin(interleave(test.programs), oracle,
                                     budget)
    state, stop_at, site, points = info
    reduced = test.without_expectations(programs(minimal))
    return {
        "schema": LITMUS_SCHEMA,
        "kind": "counterexample",
        "scheme": scheme,
        "mutant": mutant,
        "model": model,
        "entries": entries,
        "test": reduced.to_payload(),
        "original_test": test.name,
        "forbidden_state": list(state),
        "stop_at": stop_at,
        "site": site,
        "points": points,
        "tests_run": tests_run,
    }


#: Field types of a counterexample artifact, checked before any replay.
_ARTIFACT_TYPES = {
    "scheme": str, "mutant": (str, type(None)), "model": str, "entries": int,
    "test": dict, "forbidden_state": list,
}


def replay_counterexample(path: str) -> Dict[str, Any]:
    """Re-run a litmus counterexample artifact and re-check the forbidden
    observation.  Validates the artifact (schema version, kind, payload
    fields and their types) before running anything — raises
    :class:`repro.ioutil.ArtifactError` with a clear diagnostic on a
    truncated file, a schema mismatch, or a missing field or one of the
    wrong type.

    Returns ``{"reproduced", "state", "observed", "artifact"}``."""
    from repro.ioutil import load_versioned_json, require_types

    artifact = load_versioned_json(path, LITMUS_SCHEMA, kind="counterexample")
    require_types(path, artifact, _ARTIFACT_TYPES)
    test = LitmusTest.from_payload(artifact["test"])
    model = artifact["model"]
    allowed = allowed_states(test, model)
    cell = run_cell(artifact["scheme"], artifact["mutant"],
                    artifact["entries"], test)
    state = tuple(artifact["forbidden_state"])
    observed = {tuple(rec["state"]) for rec in cell["observed"]}
    reproduced = state in observed and state not in allowed
    return {
        "reproduced": reproduced,
        "state": list(state),
        "observed": sorted(list(s) for s in observed),
        "artifact": artifact,
    }


# ----------------------------------------------------------------------
# Rendering, obs projection, and the CI smoke gate
# ----------------------------------------------------------------------

def _cell_summary(report: Dict[str, Any], scheme: str,
                  mutant: Optional[str], model: str) -> str:
    counts = {CLASS_ALLOWED: 0, CLASS_UNREACHABLE: 0, CLASS_FORBIDDEN: 0}
    for cell in report["cells"]:
        if cell["scheme"] == scheme and cell["mutant"] == mutant:
            counts[cell["models"][model]["classification"]] += 1
    if counts[CLASS_FORBIDDEN]:
        return f"FORBIDDEN:{counts[CLASS_FORBIDDEN]}"
    return f"ok {counts[CLASS_ALLOWED]}eq/{counts[CLASS_UNREACHABLE]}sub"


def render_matrix(report: Dict[str, Any]) -> str:
    """ASCII agreement matrix: one row per target, one column per model.

    A cell reads ``ok Aeq/Usub``: over the corpus, ``A`` tests where the
    scheme's observed states equal the model's allowed set exactly and
    ``U`` where they are a strict subset (allowed-but-unreachable) — or
    ``FORBIDDEN:n`` when ``n`` tests observed a state the model forbids.
    The verdict column applies the *declared* model only."""
    from repro.analysis.tables import render_table

    rows = []
    for row in report["schemes"]:
        scheme, mutant = row["scheme"], row["mutant"]
        label = mutant or scheme
        if mutant is not None:
            verdict = ("caught (expected)" if row["caught"]
                       else "UNCAUGHT MUTANT")
        else:
            verdict = ("conformant" if row["conformant"]
                       else "VIOLATES DECLARATION")
        rows.append(tuple(
            [label, row["declared_model"]]
            + [_cell_summary(report, scheme, mutant, m)
               for m in report["models"]]
            + [verdict]
        ))
    return render_table(
        ["target", "declared"] + list(report["models"]) + ["verdict"],
        rows,
    )


def battery_failures(report: Dict[str, Any]) -> List[str]:
    """Human-readable gate failures: honest-scheme conformance breaks and
    uncaught mutants.  Empty means the battery passes."""
    out: List[str] = []
    for failure in report["conformance"]["failures"]:
        out.append(
            f"{failure['scheme']}: test {failure['test']!r} observed "
            f"{tuple(failure['state'])}, forbidden under its declared "
            f"{failure['model']!r} model"
        )
    for mutant, caught in sorted(
        report["conformance"]["mutants_caught"].items()
    ):
        if not caught:
            out.append(
                f"mutant {mutant!r} produced no forbidden-but-observed "
                f"cell — the battery has lost its teeth"
            )
    return out


def smoke_battery(progress=None) -> Tuple[Dict[str, Any], List[str]]:
    """The CI gate: the smoke corpus against every registered scheme plus
    both mutants.  Returns ``(report, failures)``; failures non-empty on
    any honest conformance break or uncaught mutant."""
    from repro.litmus.corpus import smoke_corpus

    report = run_battery(tests=smoke_corpus(), progress=progress)
    return report, battery_failures(report)
