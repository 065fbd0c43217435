"""Tests for the analysis layer (repro.analysis)."""

import pytest

from repro.analysis import experiments as ex
from repro.analysis.batch import RunSpec, run_batch
from repro.analysis.tables import fmt_ratio, fmt_si, geomean, render_table
from repro.api import build_system
from repro.workloads.base import WORKLOAD_NAMES, WorkloadSpec

TINY = WorkloadSpec(threads=2, ops=10, elements=512, seed=1)


@pytest.fixture(scope="module")
def cfg():
    return ex.default_sim_config()


class TestTables:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [["x", 1], ["yyyy", 22]])
        lines = [l for l in out.splitlines() if "|" in l]
        assert len({line.index("|") for line in lines}) == 1  # aligned pipes

    def test_render_table_title(self):
        assert render_table(["a"], [["x"]], title="T").splitlines()[0] == "T"

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([2, 2, 2]) == pytest.approx(2.0)

    def test_geomean_zero(self):
        assert geomean([0.0, 4.0]) == 0.0

    def test_geomean_errors(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([-1.0])

    def test_fmt_si(self):
        assert fmt_si(145e-6, "J") == "145.0 uJ"
        assert fmt_si(2.9e3, "g") == "2.9 kg"
        assert fmt_si(0, "J") == "0 J"

    def test_fmt_ratio(self):
        assert fmt_ratio(320.4) == "320x"
        assert fmt_ratio(1.27) == "1.27x"


class TestRunWorkload:
    def test_returns_populated_run(self, cfg):
        run = ex.run_workload("mutateNC", lambda: build_system("bbb", config=cfg), TINY, cfg)
        assert run.workload == "mutateNC"
        assert run.scheme == "bbb"
        assert run.execution_cycles > 0
        assert run.nvmm_writes >= run.nvmm_writes_raw >= 0

    def test_deterministic(self, cfg):
        a = ex.run_workload("hashmap", lambda: build_system("bbb", config=cfg), TINY, cfg)
        b = ex.run_workload("hashmap", lambda: build_system("bbb", config=cfg), TINY, cfg)
        assert a.execution_cycles == b.execution_cycles
        assert a.nvmm_writes == b.nvmm_writes


class TestSteadyStateAccounting:
    def test_bbb_obligations_are_resident_entries(self, cfg):
        system = build_system("bbb", config=cfg, entries=1024)  # big buffer: nothing drains
        from repro.sim.trace import TraceOp, ProgramTrace, ThreadTrace

        ops = [TraceOp.store(cfg.mem.persistent_base + i * 64, i + 1) for i in range(5)]
        system.run(ProgramTrace([ThreadTrace(ops)]), finalize=False)
        assert system.stats.nvmm_writes == 0
        assert ex.steady_state_nvmm_writes(system) == 5

    def test_eadr_obligations_are_dirty_blocks(self, cfg):
        system = build_system("eadr", config=cfg)
        from repro.sim.trace import TraceOp, ProgramTrace, ThreadTrace

        ops = [TraceOp.store(cfg.mem.persistent_base + i * 64, i + 1) for i in range(5)]
        system.run(ProgramTrace([ThreadTrace(ops)]), finalize=False)
        assert ex.steady_state_nvmm_writes(system) == 5

    def test_schemes_agree_on_total_durable_work(self, cfg):
        """For the same trace, steady-state writes of a huge-buffer BBB and
        eADR coincide (identical coalescing windows)."""
        from repro.sim.trace import TraceOp, ProgramTrace, ThreadTrace

        base = cfg.mem.persistent_base
        ops = []
        for i in range(60):
            ops.append(TraceOp.store(base + (i % 12) * 64 + (i % 8) * 8, i + 1))
        trace = ProgramTrace([ThreadTrace(ops)])
        sys_a = build_system("bbb", config=cfg, entries=4096)
        sys_b = build_system("eadr", config=cfg)
        sys_a.run(trace, finalize=False)
        sys_b.run(trace, finalize=False)
        assert ex.steady_state_nvmm_writes(sys_a) == ex.steady_state_nvmm_writes(sys_b)


class TestExperimentDrivers:
    def test_fig7_structure(self, cfg):
        rows = ex.fig7(spec=TINY, config=cfg, workloads=("mutateNC",),
                       entries_variants=(8,))
        assert len(rows) == 1
        assert set(rows[0].exec_time) == {"BBB (8)", "Optimal (eADR)"}
        assert rows[0].exec_time["Optimal (eADR)"] == 1.0

    def test_fig7_averages(self, cfg):
        rows = ex.fig7(spec=TINY, config=cfg,
                       workloads=("mutateNC", "swapNC"),
                       entries_variants=(8,))
        exec_avg, writes_avg = ex.fig7_averages(rows)
        assert exec_avg["Optimal (eADR)"] == 1.0
        assert writes_avg["Optimal (eADR)"] == 1.0

    def test_fig8_normalizes_to_first_size(self, cfg):
        points = ex.fig8(sizes=(1, 8), spec=TINY, config=cfg,
                         workloads=("mutateNC",))
        assert points[0].entries == 1
        assert points[0].exec_time == 1.0
        assert points[0].drains == 1.0

    def test_table4_covers_all_workloads(self, cfg):
        rows = ex.table4(spec=TINY, config=cfg)
        assert {r[0] for r in rows} == set(WORKLOAD_NAMES)

    def test_processor_side_ratio_keys(self, cfg):
        ratios = ex.processor_side_write_ratio(
            spec=TINY, config=cfg, workloads=("mutateNC",)
        )
        assert set(ratios) == {"mutateNC"}

    def test_analytical_tables_are_cheap_and_stable(self):
        assert ex.table7() == ex.table7()
        assert ex.table8() == ex.table8()
        assert len(ex.table9()) == 8
        assert set(ex.table10((32,))) == {
            ("SuperCap", "M"), ("SuperCap", "S"),
            ("Li-thin", "M"), ("Li-thin", "S"),
        }


class TestRunCells:
    """Each distinct exhibit cell is simulated once per process."""

    @pytest.fixture
    def batches(self, monkeypatch):
        """The spec lists :func:`run_cells` sends to the batch runner, from
        an empty memo."""
        sent = []

        def recording(specs):
            sent.append(list(specs))
            return run_batch(specs, jobs=1)

        monkeypatch.setattr(ex, "_CELLS", {})
        monkeypatch.setattr(ex, "run_batch", recording)
        return sent

    def test_fig7_then_sec5c_simulates_each_eadr_cell_once(self, cfg,
                                                           batches):
        workloads = ("mutateNC", "swapNC")
        ex.fig7(spec=TINY, config=cfg, workloads=workloads,
                entries_variants=(8,))
        ex.processor_side_write_ratio(spec=TINY, config=cfg,
                                      workloads=workloads)
        simulated = [spec for batch in batches for spec in batch]
        assert len(simulated) == len(set(simulated)) == 6
        eadr = [s for s in simulated if s.scheme == "eadr"]
        assert sorted(s.workload for s in eadr) == sorted(workloads)
        # The second driver sent only the processor-side cells.
        assert {s.scheme for s in batches[-1]} == {"bbb-proc"}

    def test_repeats_in_one_call_run_once_and_keep_order(self, cfg,
                                                         batches):
        a = RunSpec("mutateNC", "eadr", spec=TINY, config=cfg)
        b = RunSpec("mutateNC", "bbb", (("entries", 4),), spec=TINY,
                    config=cfg)
        runs = ex.run_cells([a, b, a])
        assert batches == [[a, b]]
        assert runs == run_batch([a, b, a], jobs=1)
        assert runs[0] is runs[2]

    def test_default_config_cell_is_the_same_cell(self, cfg, batches):
        ex.run_cells([RunSpec("mutateNC", "eadr", spec=TINY, config=cfg)])
        ex.run_cells([RunSpec("mutateNC", "eadr", spec=TINY)])
        assert sum(map(len, batches)) == 1
