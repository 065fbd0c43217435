"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one exhibit (table or figure) of the paper's
evaluation: it runs the experiment driver under ``pytest-benchmark``,
prints the same rows/series the paper reports, and archives the rendered
table under ``benchmarks/out/`` so the numbers can be inspected after a
``--benchmark-only`` run.

Simulation benchmarks run the Table III system scaled down (see
``repro.analysis.experiments.default_sim_config``) with workload sizes
chosen so the persistent footprint far exceeds the LLC — the regime the
paper's 1M-node workloads operate in.

Simulated exhibits describe their cells as ``RunSpec`` s and run them
through :func:`repro.analysis.experiments.run_cells`: each distinct cell
is simulated once per session (the first exhibit that needs it pays;
later exhibits read it from memory), and the cells not yet run fan out
across CPU cores via :mod:`repro.analysis.batch`.  Set ``REPRO_JOBS=1`` to
force serial execution (results are bit-identical either way) or
``REPRO_JOBS=N`` to pin the worker count.  The wall-clock that
``pytest-benchmark`` reports therefore depends on the machine's core count
and on which exhibits ran before.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.experiments import default_sim_config
from repro.workloads.base import WorkloadSpec

OUT_DIR = pathlib.Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def sim_config():
    return default_sim_config()


@pytest.fixture(scope="session")
def bench_spec():
    """Workload size for the Fig. 7 class experiments: 8 threads as in the
    paper, footprint >> LLC, and enough operations that blocks are
    *revisited* several times (the regime where eADR's cache-lifetime
    coalescing can beat a 32-entry bbPB window — the 4.9% of Fig. 7b)."""
    return WorkloadSpec(threads=8, ops=400, elements=131072, seed=42)


@pytest.fixture(scope="session")
def sweep_spec():
    """Smaller per-run size for the Fig. 8 sweep (11 sizes x 7 workloads)."""
    return WorkloadSpec(threads=8, ops=100, elements=65536, seed=42)


@pytest.fixture
def report(request, capsys):
    """Print a rendered exhibit and archive it under benchmarks/out/."""

    def _report(text: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        name = request.node.name.replace("/", "_")
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        with capsys.disabled():
            print()
            print(text)

    return _report
