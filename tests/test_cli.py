"""Tests for the command-line interface (repro.cli)."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.analytical import analytical_estimate
from repro.analysis.experiments import default_sim_config
from repro.api import SCHEMES
from repro.cli import build_parser, main
from repro.workloads.base import WorkloadSpec, registry

FAST = ["--threads", "2", "--ops", "10", "--elements", "512"]

#: sha256 of every report these tests write, so a change to the CLI that
#: alters any report's content fails here; see :func:`assert_golden_report`.
GOLDEN_REPORTS = json.loads(
    (Path(__file__).parent / "data" / "golden_cli_reports.json").read_text())


def assert_golden_report(name, path, tmp_path):
    """The report at ``path`` must match its recorded digest: sha256 of
    its canonical JSON (sorted keys) with ``tmp_path`` replaced by a
    placeholder."""
    text = json.dumps(json.loads(Path(path).read_text()), sort_keys=True)
    digest = hashlib.sha256(
        text.replace(str(tmp_path), "<tmp>").encode()).hexdigest()
    assert digest == GOLDEN_REPORTS[name], name


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "bogus"])

    def test_all_schemes_registered(self):
        assert set(SCHEMES) == {
            "bbb", "bbb-proc", "eadr", "pmem", "bsp", "bep", "none",
        }


class TestRun:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_run_every_scheme(self, capsys, scheme):
        rc = main(["run", "--workload", "mutateNC", "--scheme", scheme] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        assert "execution_cycles" in out
        assert "mutateNC" in out

    def test_run_reports_persist_latency(self, capsys):
        main(["run", "--workload", "mutateNC", "--scheme", "bbb"] + FAST)
        assert "persist_latency_avg" in capsys.readouterr().out

    def test_no_finalize_flag(self, capsys):
        rc = main(
            ["run", "--workload", "mutateNC", "--scheme", "bbb", "--no-finalize"]
            + FAST
        )
        assert rc == 0

    def test_json_emits_versioned_schema(self, capsys):
        rc = main(
            ["run", "--workload", "mutateNC", "--scheme", "bbb", "--json"] + FAST
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.simstats/v1"
        assert payload["num_cores"] == len(payload["cores"])

    def test_json_out_writes_file_atomically(self, capsys, tmp_path):
        out_file = tmp_path / "stats.json"
        rc = main(
            ["run", "--workload", "mutateNC", "--scheme", "bbb", "--json",
             "--out", str(out_file)] + FAST
        )
        assert rc == 0
        assert capsys.readouterr().out == ""  # JSON went to the file
        with open(out_file) as fh:
            payload = json.load(fh)
        assert payload["schema"] == "repro.simstats/v1"
        assert list(tmp_path.iterdir()) == [out_file]  # no temp residue
        assert_golden_report("run", out_file, tmp_path)

    def test_out_without_json_writes_file_and_prints_table(self, capsys,
                                                           tmp_path):
        out_file = tmp_path / "stats.json"
        rc = main(["run", "--workload", "mutateNC", "--scheme", "bbb",
                   "--out", str(out_file)] + FAST)
        assert rc == 0
        assert "execution_cycles" in capsys.readouterr().out
        assert json.loads(out_file.read_text())["schema"] == \
            "repro.simstats/v1"

    def test_events_and_trace_out(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        trace = tmp_path / "trace.json"
        rc = main(
            ["run", "--workload", "mutateNC", "--scheme", "bbb",
             "--events", str(events), "--trace-out", str(trace)] + FAST
        )
        assert rc == 0
        assert events.exists() and trace.exists()
        # The Chrome trace must be loadable JSON with a traceEvents array.
        payload = json.loads(trace.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"]

    def test_no_observability_flags_no_files(self, capsys, tmp_path):
        rc = main(["run", "--workload", "mutateNC", "--scheme", "bbb"] + FAST)
        assert rc == 0
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scheme", ["bep", "bsp", "bbb"])
    def test_analytical_mode_honours_entries(self, capsys, scheme):
        """``--mode analytical`` prints the closed-form estimate at the
        given ``--entries`` for every buffered scheme, BEP included (its
        buffers are private, so the estimate cannot read them off the
        scheme)."""
        rc = main(["run", "--scheme", scheme, "--mode", "analytical",
                   "--threads", "4", "--ops", "100", "--elements", "4096",
                   "--entries", "4", "--json"])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        config = default_sim_config()
        trace = registry(config.mem, WorkloadSpec(
            threads=4, ops=100, elements=4096, seed=42))["hashmap"].build()

        def estimate(entries):
            return json.loads(analytical_estimate(
                trace, scheme, config, entries=entries, finalize=True,
            ).stats.to_json())

        assert printed == estimate(4)
        assert (printed["totals"]["nvmm_writes"]
                != estimate(32)["totals"]["nvmm_writes"])


class TestCompare:
    def test_compare_prints_all_schemes(self, capsys):
        rc = main(["compare", "--workload", "mutateNC"] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        for scheme in ("bbb", "eadr", "pmem", "bsp"):
            assert scheme in out

    def test_compare_trace_out_per_scheme(self, capsys, tmp_path):
        trace = tmp_path / "cmp.json"
        rc = main(
            ["compare", "--workload", "mutateNC",
             "--trace-out", str(trace)] + FAST
        )
        assert rc == 0
        for scheme in SCHEMES:
            if scheme == "none":
                continue
            per_scheme = tmp_path / f"cmp.{scheme}.json"
            assert per_scheme.exists(), scheme
            json.loads(per_scheme.read_text())


class TestProfile:
    def test_smoke_reconciles(self, capsys):
        assert main(["profile", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "event/stats reconciliation" in out
        # Every reconciliation row renders "yes"; a mismatch renders "NO".
        assert "yes" in out
        assert "NO" not in out

    def test_smoke_output_matches_golden(self, capsys):
        """The smoke's whole stdout (event counts, occupancy series,
        drain-latency summary, reconciliation) is pinned."""
        assert main(["profile", "--smoke"]) == 0
        golden = Path(__file__).parent / "data" / "golden_profile_smoke.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_profile_run(self, capsys):
        rc = main(["profile", "--workload", "mutateNC", "--scheme", "bbb"] + FAST)
        assert rc == 0
        out = capsys.readouterr().out
        assert "occupancy timelines" in out


class TestStaticCommands:
    def test_energy(self, capsys):
        assert main(["energy"]) == 0
        out = capsys.readouterr().out
        assert "Mobile Class" in out and "Server Class" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PoP location" in out and "bbPB/L1D" in out


class TestFaultsCommand:
    ARGS = [
        "faults", "--schemes", "bbb,none", "--workloads", "hashmap",
        "--random-plans", "1", "--threads", "2", "--ops", "16",
        "--elements", "128", "--jobs", "1",
    ]

    def test_small_campaign_reports_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "faults.json"
        rc = main(self.ARGS + ["--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "silent-corruption" in out
        assert "battery-domain" in out
        with open(out_file) as fh:
            report = json.load(fh)
        idle = [plan["label"] for plan in report["plans"]
                if not any(u["injected"] for u in report["units"]
                           if u["plan"] == plan)]
        assert f"plans that injected nothing: {', '.join(idle) or '-'}" \
            in out
        assert report["schema"] == "repro.faultcampaign/v1"
        assert report["battery_domain"]["silent_corruption"] == 0
        assert report["units"]
        assert_golden_report("faults", out_file, tmp_path)

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["faults", "--schemes", "bogus", "--jobs", "1"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err


class TestCheckCommand:
    ARGS = [
        "check", "--scheme", "bbb", "--threads", "2", "--ops", "3",
        "--elements", "64",
    ]

    def test_clean_scheme_reports_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "check.json"
        rc = main(self.ARGS + ["--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "explored" in out
        with open(out_file) as fh:
            report = json.load(fh)
        assert report["schema"] == "repro.crashcheck/v1"
        assert report["consistent"]
        assert report["explored"] + report["pruned"] == report["checked_points"]
        assert_golden_report("check", out_file, tmp_path)

    def test_mutant_caught_minimized_and_replayable(self, capsys, tmp_path):
        cex_file = tmp_path / "cex.json"
        rc = main(self.ARGS + ["--mutant", "bbb-delayed-alloc",
                               "--cex-out", str(cex_file)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "minimized to" in out
        assert cex_file.exists()
        assert_golden_report("check_counterexample", cex_file, tmp_path)
        rc = main(["check", "--replay", str(cex_file)])
        assert rc == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["check", "--scheme", "bogus"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_smoke_writes_its_result_to_out(self, capsys, tmp_path,
                                            monkeypatch):
        import repro.check.checker as checker

        result = {"ok": True, "failures": [], "reports": []}
        monkeypatch.setattr(checker, "smoke_check",
                            lambda progress=None: result)
        out_file = tmp_path / "smoke.json"
        assert main(["check", "--smoke", "--out", str(out_file)]) == 0
        assert f"wrote {out_file}" in capsys.readouterr().out
        assert json.loads(out_file.read_text()) == result

    @pytest.mark.parametrize("gate, flag", [
        (gate, flag)
        for gate, flags in (
            ("check", ["--jobs", "--timeout", "--retries", "--checkpoint"]),
            ("litmus", ["--seed", "--jobs", "--timeout", "--retries",
                        "--checkpoint"]),
            ("faults", ["--timeout", "--retries", "--checkpoint"]),
        )
        for flag in flags
    ])
    def test_inert_flags_are_gone(self, capsys, gate, flag):
        with pytest.raises(SystemExit):
            main([gate, flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_replay_rejects_wrong_schema_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v9", "kind": "counterexample"}')
        rc = main(["check", "--replay", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "other/v9" in err and "repro.crashcheck/v1" in err

    def test_replay_rejects_truncated_artifact(self, capsys, tmp_path):
        bad = tmp_path / "cut.json"
        bad.write_text('{"schema": "repro.crashcheck/v1", "ki')
        rc = main(["check", "--replay", str(bad)])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err


class TestLitmusCommand:
    ARGS = ["litmus", "--schemes", "bbb", "--tests", "prefix-pair"]

    def test_conformant_scheme_reports_and_exits_zero(self, capsys, tmp_path):
        out_file = tmp_path / "litmus.json"
        rc = main(self.ARGS + ["--no-mutants", "--out", str(out_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "conformant" in out
        with open(out_file) as fh:
            report = json.load(fh)
        assert report["schema"] == "repro.litmus/v1"
        assert report["kind"] == "report"
        assert report["tests"] == ["prefix-pair"]
        assert report["conformance"]["failures"] == []
        assert_golden_report("litmus", out_file, tmp_path)

    def test_mutants_caught_minimized_and_replayable(self, capsys, tmp_path):
        rc = main(self.ARGS + ["--cex-dir", str(tmp_path)])
        out = capsys.readouterr().out
        # caught mutants are the expected outcome, not a gate failure.
        assert rc == 0
        assert "caught (expected)" in out
        assert "minimized to" in out
        cexes = sorted(tmp_path.glob("litmus-cex-*.json"))
        assert cexes
        assert_golden_report("litmus_counterexample", cexes[0], tmp_path)
        rc = main(["litmus", "--replay", str(cexes[0])])
        assert rc == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_replay_rejects_wrong_schema_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v9"}')
        rc = main(["litmus", "--replay", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "other/v9" in err and "repro.litmus/v1" in err

    def test_replay_rejects_truncated_artifact(self, capsys, tmp_path):
        bad = tmp_path / "cut.json"
        bad.write_text('{"schema": "repro.litmus/v1", "ki')
        rc = main(["litmus", "--replay", str(bad)])
        assert rc == 2
        assert "truncated" in capsys.readouterr().err

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["litmus", "--schemes", "bogus"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err

    def test_unknown_test_rejected(self, capsys):
        rc = main(["litmus", "--tests", "not-a-shape"])
        assert rc == 2
        assert "not-a-shape" in capsys.readouterr().err


class TestOptCommand:
    SMALL = ["--threads", "2", "--ops", "4", "--elements", "64",
             "--jobs", "1"]

    def test_single_cell_reports_elision_and_saves_program(
        self, capsys, tmp_path
    ):
        out_file = tmp_path / "opt.trace"
        rc = main(["opt", "--workload", "hashmap", "--scheme", "bbb",
                   "--save-program", str(out_file)] + self.SMALL)
        out = capsys.readouterr().out
        assert rc == 0
        assert "100.0%" in out
        assert "verified" in out
        # Every saved op carries its provenance in its "p" field.
        ops = [json.loads(line)
               for line in out_file.read_text().splitlines()[1:]]
        assert ops
        assert all(op.get("p") for op in ops)

    def test_single_cell_writes_its_cell_to_out(self, capsys, tmp_path):
        out_file = tmp_path / "cell.json"
        rc = main(["opt", "--workload", "hashmap", "--scheme", "bbb",
                   "--out", str(out_file)] + self.SMALL)
        assert rc == 0
        assert f"wrote {out_file}" in capsys.readouterr().out
        report = json.loads(out_file.read_text())
        assert report["schema"] == "repro.optreport/v1"
        assert report["kind"] == "cell"
        assert report["workload"] == "hashmap" and report["ok"]

    def test_single_cell_flush_keeping_scheme(self, capsys):
        rc = main(["opt", "--workload", "hashmap", "--scheme", "pmem"]
                  + self.SMALL)
        assert rc == 0
        assert "0.0%" in capsys.readouterr().out

    def test_compare_writes_replayable_artifact(self, capsys, tmp_path):
        out_file = tmp_path / "opt.json"
        rc = main(["opt", "--compare", "--workloads", "hashmap",
                   "--schemes", "bbb,pmem", "--out", str(out_file)]
                  + self.SMALL)
        out = capsys.readouterr().out
        assert rc == 0
        assert "naive instrumentation vs persist-optimized" in out
        with open(out_file) as fh:
            report = json.load(fh)
        assert report["schema"] == "repro.optreport/v1"
        assert report["by_scheme"]["bbb"]["mean_elision_pct"] == 100.0
        assert_golden_report("opt_compare", out_file, tmp_path)
        rc = main(["opt", "--replay", str(out_file), "--jobs", "1"])
        assert rc == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_replay_rejects_wrong_schema_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "other/v9"}')
        rc = main(["opt", "--replay", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "other/v9" in err and "repro.optreport/v1" in err

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["opt", "--scheme", "bogus"] + self.SMALL)
        assert rc == 2
        assert "unknown scheme" in capsys.readouterr().err

    def test_unknown_workload_rejected_in_compare(self, capsys):
        rc = main(["opt", "--compare", "--workloads", "bogus"]
                  + self.SMALL)
        assert rc == 2
        assert "bogus" in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "w.trace"
        rc = main(
            ["trace", "--workload", "mutateNC", "--out", str(out_file)] + FAST
        )
        assert rc == 0
        assert out_file.exists()
        from repro.sim.tracefile import load_trace

        trace = load_trace(out_file)
        assert trace.num_threads == 2


class TestTrafficCommand:
    FAST_TRAFFIC = ["--requests", "30", "--entries", "16", "--tenants", "1",
                    "--keys", "256"]

    def test_smoke_gate(self, capsys):
        assert main(["traffic", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "traffic smoke ok" in out
        assert "p999" in out

    def test_curve_in_one_command(self, capsys, tmp_path):
        """The acceptance shape: one command, the default scheme trio,
        a schema-valid report with one curve per scheme."""
        out_file = tmp_path / "traffic.json"
        rc = main(["traffic", "--loads", "1,4",
                   "--out", str(out_file)] + self.FAST_TRAFFIC)
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("bbb", "eadr", "pmem"):
            assert f"{name}:" in out
        with open(out_file) as fh:
            report = json.load(fh)
        from repro.serve import validate_traffic_report

        validate_traffic_report(report)
        assert sorted(report["curves"]) == ["bbb", "eadr", "pmem"]
        assert report["loads"] == [1.0, 4.0]
        assert_golden_report("traffic", out_file, tmp_path)

    def test_serve_alias(self, capsys):
        rc = main(["serve", "--loads", "1,2,4"] + self.FAST_TRAFFIC)
        assert rc == 0
        out = capsys.readouterr().out
        # One block per scheme, with a row per offered load.
        assert out.count("bbb:") == 1
        rows = out.split("bbb:")[1].split("\n\n")[0].strip().splitlines()
        assert [row.split()[0] for row in rows[1:]] == \
            ["1.000", "2.000", "4.000"]

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["traffic", "--schemes", "bogus"] + self.FAST_TRAFFIC)
        assert rc == 2
        assert "unknown" in capsys.readouterr().err.lower()


class TestDrillCommand:
    def test_smoke_gate(self, capsys):
        assert main(["drill", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "drill smoke ok" in out
        assert "acked-lost" in out
        assert "bbb-delayed-alloc" in out

    def test_custom_drill_writes_report(self, capsys, tmp_path):
        out_file = tmp_path / "drill.json"
        rc = main(["drill", "--schemes", "bbb,eadr", "--crashes", "2",
                   "--requests", "30", "--entries", "8",
                   "--out", str(out_file)])
        assert rc == 0
        with open(out_file) as fh:
            report = json.load(fh)
        from repro.serve import validate_drill_report

        validate_drill_report(report)
        assert sorted(report["per_scheme"]) == ["bbb", "eadr"]
        assert report["battery_domain"]["acked_lost"] == 0
        assert_golden_report("drill", out_file, tmp_path)

    def test_unknown_scheme_rejected(self, capsys):
        rc = main(["drill", "--schemes", "bogus"])
        assert rc == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_unknown_mutant_rejected(self, capsys):
        rc = main(["drill", "--schemes", "bbb", "--mutants", "bogus",
                   "--requests", "20"])
        assert rc == 2
        assert "unknown mutant" in capsys.readouterr().err


class TestGateRunner:
    @pytest.mark.parametrize("argv, flag", [
        (["drill", "--smoke", "--out", "{missing}/d.json"], "--out"),
        (["traffic", "--out", "{missing}/t.json"], "--out"),
        (["check", "--mutant", "bbb-delayed-alloc",
          "--cex-out", "{missing}/c.json"], "--cex-out"),
        (["litmus", "--cex-dir", "{missing}"], "--cex-dir"),
        (["opt", "--save-program", "{missing}/p.trace"], "--save-program"),
        (["faults", "--out", "{missing}/f.json"], "--out"),
    ])
    def test_unusable_output_path_refused_before_any_work(
        self, capsys, tmp_path, argv, flag
    ):
        missing = tmp_path / "missing"
        rc = main([a.format(missing=missing) for a in argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}: ")
        assert str(missing) in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        pytest.param(argv, message, id=" ".join(argv))
        for argv, message in (
            (["faults", "--entries", "0"], "--entries: must be at least 1"),
            (["litmus", "--entries", "0"], "--entries: must be at least 1"),
            (["opt", "--compare", "--entries", "0"],
             "--entries: must be at least 1"),
            (["check", "--entries", "0"], "--entries: must be at least 1"),
            (["check", "--threads", "0"], "threads must be >= 1"),
            (["faults", "--threads", "0"], "threads must be >= 1"),
            (["check", "--ops", "-5"], "ops must be >= 0"),
            (["faults", "--crashes", "0"], "crashes must be >= 1"),
            (["check", "--max-points", "0"],
             "max_points must be >= 1, got 0"),
            (["check", "--max-points", "-2"],
             "max_points must be >= 1, got -2"),
        )
    ])
    def test_bad_size_refused_before_any_work(
        self, capsys, tmp_path, argv, message
    ):
        rc = main(argv + ["--out", str(tmp_path / "report.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert list(tmp_path.iterdir()) == []

    CHECK_CEX = {
        "schema": "repro.crashcheck/v1", "kind": "counterexample",
        "scheme": "bbb", "mutant": None, "workload": "hashmap",
        "entries": 8, "sites": None, "num_threads": 1, "seed_words": {},
        "ops": [{"thread": 0, "kind": "store", "addr": 0, "size": 8,
                 "value": 1, "cycles": 0, "tag": ""}],
        "crash_point": 1,
    }
    LITMUS_CEX = {
        "schema": "repro.litmus/v1", "kind": "counterexample",
        "scheme": "bbb", "mutant": None, "model": "strict", "entries": 8,
        "forbidden_state": [],
    }
    OPT_COMPARE = {
        "schema": "repro.optreport/v1", "kind": "compare", "entries": 8,
        "spec": None,
        "rows": [{"scheme": "bbb", "flush_fence_elision_pct": 0.0,
                  "ops_optimized": 0, "audit_ok": True, "image_ok": True}],
    }

    @pytest.mark.parametrize("gate, artifact, message", [
        pytest.param(
            "check", {**CHECK_CEX, "ops": [
                {k: v for k, v in CHECK_CEX["ops"][0].items() if k != "kind"}]},
            "ops[0] has no 'kind' field", id="check-op-without-kind"),
        pytest.param(
            "check", {**CHECK_CEX, "ops": [
                {**CHECK_CEX["ops"][0], "thread": 1}]},
            "ops[0] has thread 1; num_threads is 1",
            id="check-thread-out-of-range"),
        pytest.param(
            "check", {k: v for k, v in CHECK_CEX.items()
                      if k != "crash_point"},
            "has no 'crash_point' field", id="check-without-crash-point"),
        pytest.param(
            "check", {**CHECK_CEX, "ops": None},
            "field 'ops' is null, not list", id="check-null-ops"),
        pytest.param(
            "check", {**CHECK_CEX, "crash_point": 99999},
            "crash_point 99999 did not fire", id="check-point-never-fires"),
        pytest.param("litmus", LITMUS_CEX, "has no 'test' field",
                     id="litmus-without-test"),
        pytest.param("opt", OPT_COMPARE, "rows[0] has no 'workload' field",
                     id="opt-row-without-workload"),
        pytest.param("litmus", {**LITMUS_CEX, "test": None},
                     "field 'test' is null, not dict", id="litmus-null-test"),
        pytest.param("opt", {**OPT_COMPARE, "rows": None},
                     "field 'rows' is null, not list", id="opt-null-rows"),
    ])
    def test_malformed_replay_artifact_is_a_usage_error(
        self, capsys, tmp_path, gate, artifact, message
    ):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps(artifact))
        rc = main([gate, "--replay", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: artifact {str(path)!r}")
        assert message in captured.err
