"""The package has no runtime dependencies: a fresh interpreter that runs a
simulation, a traffic point and a crash-check unit never imports numpy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys

import repro
from repro.analysis.experiments import default_sim_config
from repro.api import build_system
from repro.check.checker import CheckUnit, run_check_unit
from repro.serve import TrafficSpec, run_traffic
from repro.workloads.base import WorkloadSpec, build_cached, seed_media_words

config = default_sim_config()
trace, words = build_cached("hashmap", config.mem,
                            WorkloadSpec(threads=2, ops=10, elements=256))
system = build_system(repro.SCHEMES[0], entries=8, config=config)
seed_media_words(system.nvmm_media, words)
assert system.run(trace).stats.total_loads > 0

point = run_traffic(repro.SCHEMES[0], TrafficSpec(requests=10, seed=1),
                    entries=8)
assert point.completed == 10

report, _ = run_check_unit(
    CheckUnit(scheme=repro.SCHEMES[0],
              spec=WorkloadSpec(threads=2, ops=2, elements=64, seed=1)),
    jobs=1)
assert report["num_violations"] == 0

loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
print(",".join(loaded) or "none")
"""


def test_runs_never_import_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "none"
