"""Smoke tests: every example script runs to completion and prints its
headline conclusions.  (Examples are part of the public deliverable; these
tests keep them from rotting.)"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, argv=()):  # -> captured stdout via capsys at call site
    sys_argv = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = sys_argv


class TestExamplesRun:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "BBB vs eADR" in out
        assert "bbPB" in out

    def test_battery_sizing(self, capsys):
        run_example("battery_sizing.py")
        out = capsys.readouterr().out
        assert "Table X" in out
        assert "Mobile Class" in out and "Server Class" in out

    def test_linked_list_crash(self, capsys):
        run_example("linked_list_crash.py")
        out = capsys.readouterr().out
        assert "inconsistent" in out
        # BBB's sweep reports zero inconsistencies.
        assert "0 inconsistent" in out

    def test_relaxed_consistency(self, capsys):
        run_example("relaxed_consistency.py")
        out = capsys.readouterr().out
        assert "battery-backed store buffer" in out
        assert "volatile store buffer" in out

    @pytest.mark.slow
    def test_durable_transactions(self, capsys):
        run_example("durable_transactions.py")
        out = capsys.readouterr().out
        assert "0/" in out  # BBB's sweep has zero violations
        assert "violate the invariant" in out

    @pytest.mark.slow
    def test_scheme_comparison_quick(self, capsys):
        run_example("scheme_comparison.py", argv=["--quick"])
        out = capsys.readouterr().out
        assert "Execution time normalized to eADR" in out
        assert "BSP" in out

    def test_paper_scale_small(self, capsys):
        run_example("paper_scale.py", argv=["--small"])
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "write ratio" in out

    def test_custom_scheme(self, capsys):
        # The pluggability proof: a scheme registered from outside
        # src/repro runs through build, the crash checker, a fault
        # campaign, the serving frontend, and the persist optimizer.
        # (Its registration is idempotent, so running the example twice
        # in one process is safe.)
        with pytest.raises(SystemExit) as exc:
            run_example("custom_scheme.py")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "registered scheme 'bbb-nocoalesce'" in out
        assert "serving: completed 30/30 requests" in out
        assert "100.0% of flush/fence instrumentation elided" in out
        assert ("custom scheme ran through build, check, faults, "
                "serving, and the persist optimizer: OK") in out
