"""Tests for trace file I/O (repro.sim.tracefile)."""

import json

import pytest

from repro.sim.config import SystemConfig
from repro.sim.trace import OpKind, ProgramTrace, ThreadTrace, TraceOp
from repro.sim.tracefile import TraceFormatError, load_trace, save_trace
from repro.workloads.base import WorkloadSpec, registry


def _saved_metadata(path):
    """``(thread, origin, durable)`` per op line of a saved program, read
    from the file's ``t``/``p``/``d`` fields."""
    records = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    return [(r.get("t", 0), r.get("p", ""), bool(r.get("d", 0)))
            for r in records]


def sample_trace():
    return ProgramTrace(
        [
            ThreadTrace(
                [
                    TraceOp.load(0x1000, size=4),
                    TraceOp.store(0x1008, 0xDEADBEEF, tag="x"),
                    TraceOp.flush(0x1000),
                    TraceOp.fence(),
                    TraceOp.compute(17),
                    TraceOp.epoch(),
                ]
            ),
            ThreadTrace([TraceOp.store(0x2000, 7)]),
        ]
    )


def ops_tuple(trace):
    return [
        (tid, op.kind, op.addr, op.size, op.value, op.cycles, op.tag)
        for tid, thread in enumerate(trace.threads)
        for op in thread
    ]


class TestRoundTrip:
    def test_roundtrip_preserves_everything(self, tmp_path):
        trace = sample_trace()
        path = tmp_path / "t.trace"
        count = save_trace(trace, path)
        assert count == trace.total_ops()
        loaded = load_trace(path)
        assert ops_tuple(loaded) == ops_tuple(trace)

    def test_roundtrip_workload_trace(self, tmp_path):
        cfg = SystemConfig(num_cores=2).scaled_for_testing()
        workload = registry(cfg.mem, WorkloadSpec(threads=2, ops=10))["hashmap"]
        trace = workload.build()
        path = tmp_path / "w.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.total_ops() == trace.total_ops()
        assert [t.count(OpKind.STORE) for t in loaded.threads] == \
            [t.count(OpKind.STORE) for t in trace.threads]

    def test_loaded_trace_runs_identically(self, tmp_path):
        from repro.api import build_system

        cfg = SystemConfig(num_cores=2).scaled_for_testing()
        workload = registry(cfg.mem, WorkloadSpec(threads=2, ops=10))["ctree"]
        trace = workload.build()
        path = tmp_path / "c.trace"
        save_trace(trace, path)
        loaded = load_trace(path)
        r1 = build_system("bbb", config=cfg).run(trace)
        r2 = build_system("bbb", config=cfg).run(loaded)
        assert r1.execution_cycles == r2.execution_cycles
        assert r1.stats.nvmm_writes == r2.stats.nvmm_writes

    def test_wide_values_roundtrip(self, tmp_path):
        """Values beyond 64 bits (and negative ones) survive as written."""
        wide = ProgramTrace.single(
            [TraceOp.store(0, 1 << 70, tag="w"), TraceOp.store(64, -3),
             TraceOp.load(64)]
        )
        path = tmp_path / "wide.trace"
        save_trace(wide, path)
        assert ops_tuple(load_trace(path)) == ops_tuple(wide)


class TestFormat:
    def test_header_line(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(sample_trace(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header == {"repro-trace": 1, "threads": 2}

    def test_zero_fields_omitted(self, tmp_path):
        path = tmp_path / "t.trace"
        save_trace(ProgramTrace.single([TraceOp.fence()]), path)
        record = json.loads(path.read_text().splitlines()[1])
        assert set(record) == {"t", "k"}


class TestErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("not json\n")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"repro-trace": 99, "threads": 1}\n')
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(path)

    def test_bad_thread_count(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"repro-trace": 1, "threads": 0}\n')
        with pytest.raises(TraceFormatError, match="thread count"):
            load_trace(path)

    def test_thread_out_of_range(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            '{"repro-trace": 1, "threads": 1}\n{"t": 5, "k": "L"}\n'
        )
        with pytest.raises(TraceFormatError, match="out of range"):
            load_trace(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text(
            '{"repro-trace": 1, "threads": 1}\n{"t": 0, "k": "Z"}\n'
        )
        with pytest.raises(TraceFormatError, match="line 2: unknown op kind"):
            load_trace(path)

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text('{"repro-trace": 1, "threads": 1}\n{{{\n')
        with pytest.raises(TraceFormatError, match="invalid JSON"):
            load_trace(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "ok.trace"
        path.write_text(
            '{"repro-trace": 1, "threads": 1}\n\n{"t": 0, "k": "B"}\n\n'
        )
        trace = load_trace(path)
        assert trace.total_ops() == 1

    @pytest.mark.parametrize("line, message", [
        ('[0, "L"]', "must be a JSON object"),
        ('"L"', "must be a JSON object"),
        ('{"t": "1", "k": "L"}', "thread '1' is not an integer"),
        ('{"t": true, "k": "L"}', "thread True is not an integer"),
        ('{"t": 0.0, "k": "L"}', "thread 0.0 is not an integer"),
        ('{"k": ["L"]}', "unknown op kind"),
        ('{"k": "L", "a": "0x40"}', "field 'a' must be an integer >= 0"),
        ('{"k": "L", "a": -64}', "field 'a' must be an integer >= 0"),
        ('{"k": "L", "s": -3}', "field 's' must be an integer >= 1"),
        ('{"k": "L", "s": 0}', "field 's' must be an integer >= 1"),
        ('{"k": "S", "v": 1.5}', "field 'v' must be an integer,"),
        ('{"k": "S", "v": false}', "field 'v' must be an integer,"),
        ('{"k": "C", "c": -1}', "field 'c' must be an integer >= 0"),
        ('{"k": "L", "g": 7}', "field 'g' must be a string"),
    ])
    def test_malformed_op_names_the_line(self, tmp_path, line, message):
        path = tmp_path / "bad.trace"
        path.write_text(
            '{"repro-trace": 1, "threads": 2}\n{"k": "B"}\n' + line + "\n"
        )
        with pytest.raises(TraceFormatError, match="^line 3: ") as info:
            load_trace(path)
        assert message in str(info.value)


class TestProgramIO:
    def sample_program(self):
        from repro.opt import Op, Program

        return Program(
            threads=(
                (
                    Op(OpKind.STORE, addr=0x10000, value=3,
                       origin="wl/0", durable=True),
                    Op(OpKind.FLUSH, addr=0x10000,
                       origin="naive-instrument/clwb", durable=True),
                    Op(OpKind.FENCE, origin="naive-instrument/sfence"),
                    Op(OpKind.LOAD, addr=0x40, size=4, origin="wl/1"),
                ),
                (Op(OpKind.EPOCH, origin="wl/2"),),
            ),
            name="sample",
        )

    def test_program_roundtrip_preserves_provenance(self, tmp_path):
        from repro.sim.tracefile import save_program

        program = self.sample_program()
        path = tmp_path / "p.trace"
        count = save_program(program, path)
        assert count == program.total_ops
        assert _saved_metadata(path) == [
            (tid, op.origin, op.durable) for tid, _, op in program.iter_ops()
        ]

    def test_program_resave_is_byte_identical(self, tmp_path):
        from repro.sim.tracefile import save_program

        first = tmp_path / "a.trace"
        second = tmp_path / "b.trace"
        save_program(self.sample_program(), first)
        save_program(self.sample_program(), second)
        assert first.read_bytes() == second.read_bytes()

    def test_program_file_loads_as_plain_trace(self, tmp_path):
        from repro.sim.tracefile import save_program

        program = self.sample_program()
        path = tmp_path / "p.trace"
        save_program(program, path)
        trace = load_trace(path)
        assert [list(t) for t in trace.threads] == \
            [list(t) for t in program.to_trace().threads]

    def test_header_carries_the_program_name(self, tmp_path):
        from repro.sim.tracefile import save_program

        path = tmp_path / "p.trace"
        save_program(self.sample_program(), path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["program"] == "sample"

    def test_optimized_program_saves_and_reloads(self, tmp_path):
        from repro.opt import instrument_naive, run_pipeline
        from repro.opt.ir import Program
        from repro.sim.tracefile import save_program

        cfg = SystemConfig(num_cores=2).scaled_for_testing()
        workload = registry(
            cfg.mem, WorkloadSpec(threads=2, ops=4, elements=64)
        )["hashmap"]
        naive = instrument_naive(Program.from_trace(
            workload.build(), name="hashmap", origin="hashmap",
            is_persistent=cfg.mem.is_persistent,
        ))
        result = run_pipeline(naive, "bbb", block_size=cfg.block_size)
        path = tmp_path / "opt.trace"
        save_program(result.optimized, path)
        optimized = result.optimized
        assert [list(t) for t in load_trace(path).threads] == \
            [list(t) for t in optimized.to_trace().threads]
        assert _saved_metadata(path) == [
            (tid, op.origin, op.durable)
            for tid, _, op in optimized.iter_ops()
        ]
