"""Tests of the end-to-end benchmark, on its tiny ``--smoke`` inputs.

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, tmp_path, *args):
    out = tmp_path / "report.json"
    code = run.main(["--smoke", "--seconds", "0", "--out", str(out), *args])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result, json.loads(out.read_text())


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_metrics_emitted_and_tracing_does_not_perturb(workload, capsys,
                                                      tmp_path):
    code, result, report = _run(capsys, tmp_path, "--workload", workload,
                                "--trace", "0")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert _units(result) == {m["name"]: m["unit"]
                              for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    code, traced, traced_report = _run(capsys, tmp_path, "--workload",
                                       workload, "--trace", "1")
    assert code == 0 and traced["correct"]
    assert _units(traced) == {m["name"]: m["unit"]
                              for m in BENCHMARK["per_layer"]}
    assert traced_report["sim_digest"] == report["sim_digest"]
    assert (ROOT / traced_report["trace_file"]).is_file()


def test_error_counting_has_teeth(monkeypatch, capsys, tmp_path):
    # The mutant labelled honest: its caught violations must count as
    # failures and fail the run.
    monkeypatch.setattr(workloads, "CRASH_UNITS", tuple(
        (scheme, mutant, False) for scheme, mutant, _ in workloads.CRASH_UNITS))
    code, result, _ = _run(capsys, tmp_path, "--workload", "crash_sweep",
                           "--trace", "0")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0 and result["attempted"] >= result["failed"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         "grid_private", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
