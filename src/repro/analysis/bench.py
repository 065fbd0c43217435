"""The analytical tolerance gate behind ``repro bench``, and the run
fingerprint.

``repro bench`` checks that the closed-form estimate
(:mod:`repro.analysis.analytical`) of each cell of a fixed six-cell
(workload x scheme) grid sits inside the declared tolerance band of the
discrete result.  The default runs the grid at the Fig. 7 bench size;
``--smoke`` runs it at a tiny size, cheap enough for CI.  Nothing is
timed: speed is measured end to end by ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Tuple

from repro.analysis.analytical import (
    TOLERANCE,
    analytical_estimate,
    validate_against_sim,
)
from repro.analysis.experiments import default_sim_config
from repro.api import build_system
from repro.core.registry import BBB, EADR
from repro.workloads.base import WorkloadSpec, build_cached, seed_media_words

#: The tolerance grid: (workload, scheme, scheme kwargs).
ENGINE_GRID: Tuple[Tuple[str, str, Tuple[Tuple[str, int], ...]], ...] = (
    ("hashmap", BBB, (("entries", 32),)),
    ("hashmap", EADR, ()),
    ("mutateC", BBB, (("entries", 32),)),
    ("mutateC", EADR, ()),
    ("swapNC", BBB, (("entries", 32),)),
    ("swapNC", EADR, ()),
)

#: Workload size of the default grid (the Fig. 7 bench size).
ENGINE_SPEC = WorkloadSpec(threads=8, ops=200, elements=16384, seed=42)

#: Tiny grid for the CI smoke gate.
SMOKE_SPEC = WorkloadSpec(threads=4, ops=40, elements=2048, seed=11)


def fingerprint_run(result) -> str:
    """Stable digest of everything a run observably produced: the full
    stats payload plus the committed/performed persist-record streams.
    Two runs with equal fingerprints are bit-identical as far as any
    downstream consumer can tell."""
    blob = {
        "stats": result.stats.to_dict(),
        "committed": [tuple(r) for r in result.committed_persists],
        "performed": [tuple(r) for r in result.performed_persists],
    }
    return hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()
    ).hexdigest()


def run_tolerance(spec: WorkloadSpec = ENGINE_SPEC,
                  label: str = "fig7") -> Dict[str, Any]:
    """Run every grid cell at ``spec`` (execution window only) and check
    its analytical estimate against the discrete result.  Returns
    ``{"ok", "spec", "cells", "tolerance"}``; ``ok`` is False when any
    estimate leaves the band."""
    config = default_sim_config()
    cells: List[Dict[str, Any]] = []
    for workload, scheme, kwargs in ENGINE_GRID:
        trace, initial_words = build_cached(workload, config.mem, spec)
        system = build_system(scheme, config=config, **dict(kwargs))
        seed_media_words(system.nvmm_media, initial_words)
        result = system.run(trace, finalize=False)
        est = analytical_estimate(
            trace, scheme, config,
            entries=dict(kwargs).get("entries"), finalize=False)
        verdict = validate_against_sim(est, result.stats)
        cells.append({
            "workload": workload, "scheme": scheme,
            "analytical_ok": verdict["ok"],
            "errors": {k: round(v, 4) for k, v in verdict["errors"].items()},
        })
    return {"ok": all(c["analytical_ok"] for c in cells), "spec": label,
            "cells": cells, "tolerance": dict(TOLERANCE)}


def run_smoke() -> Dict[str, Any]:
    """The CI gate: :func:`run_tolerance` on the tiny grid."""
    return run_tolerance(SMOKE_SPEC, "smoke")
