"""Tests for the unified program IR (repro.opt.ir)."""

from repro.opt import INSTRUMENT_FENCE, INSTRUMENT_FLUSH, Op, Program, \
    instrument_naive
from repro.sim.config import SystemConfig
from repro.sim.trace import OpKind, TraceOp

CFG = SystemConfig(num_cores=2).scaled_for_testing()
PBASE = CFG.mem.persistent_base


def sample_program():
    return Program(
        threads=(
            (
                Op(OpKind.STORE, addr=PBASE, value=7, origin="t0/a",
                   durable=True),
                Op(OpKind.FLUSH, addr=PBASE, origin="t0/b", durable=True),
                Op(OpKind.FENCE, origin="t0/c"),
                Op(OpKind.LOAD, addr=0x100, size=4, origin="t0/d"),
                Op(OpKind.COMPUTE, cycles=3),
                Op(OpKind.EPOCH),
            ),
            (Op(OpKind.STORE, addr=PBASE + 64, value=9, tag="x",
                durable=True),),
        ),
        name="sample",
    )


class TestOp:
    def test_trace_op_round_trip_keeps_executable_fields(self):
        op = Op(OpKind.STORE, addr=0x40, size=4, value=5, cycles=2,
                tag="t", origin="who", durable=True)
        back = Op.from_trace_op(op.to_trace_op(), origin="who", durable=True)
        assert back == op

    def test_describe_names_origin(self):
        text = Op(OpKind.STORE, addr=0x40, value=1, origin="wl/3").describe()
        assert "0x40" in text and "wl/3" in text


class TestProgram:
    def test_counts(self):
        program = sample_program()
        assert program.num_threads == 2
        assert program.total_ops == 7
        assert program.count(OpKind.STORE) == 2
        assert program.count(OpKind.FLUSH) == 1
        assert program.count(OpKind.LOAD) == 1

    def test_trace_round_trip_is_lossless_on_executable_fields(self):
        program = sample_program()
        trace = program.to_trace()
        back = Program.from_trace(
            trace, name=program.name, origin="",
            is_persistent=CFG.mem.is_persistent,
        )
        assert back.to_trace().threads[0].ops == trace.threads[0].ops
        assert back.total_ops == program.total_ops
        # Durable-location metadata is re-derived from the predicate.
        stores = [op for _, _, op in back.iter_ops()
                  if op.kind is OpKind.STORE]
        assert all(op.durable for op in stores)

    def test_from_trace_without_predicate_reads_volatile(self):
        program = Program.from_trace(sample_program().to_trace())
        assert all(not op.durable for _, _, op in program.iter_ops())


class TestInstrumentNaive:
    def test_inserts_clwb_and_sfence_after_durable_stores(self):
        program = instrument_naive(sample_program())
        ops = program.threads[1]
        assert [op.kind for op in ops] == \
            [OpKind.STORE, OpKind.FLUSH, OpKind.FENCE]
        assert ops[1].origin == INSTRUMENT_FLUSH
        assert ops[1].addr == ops[0].addr
        assert ops[2].origin == INSTRUMENT_FENCE

    def test_volatile_stores_left_alone(self):
        program = Program(
            threads=((Op(OpKind.STORE, addr=0x40, value=1),),)
        )
        assert instrument_naive(program).total_ops == 1


class TestProducers:
    def test_workload_build_program_carries_metadata(self):
        from repro.workloads.base import WorkloadSpec, make_workload

        spec = WorkloadSpec(threads=2, ops=4, elements=64, seed=3)
        wl = make_workload("hashmap", CFG.mem, spec)
        program = wl.build_program()
        assert program.name == wl.name
        assert program.to_trace().total_ops() == wl.build().total_ops()
        durable_stores = [op for _, _, op in program.iter_ops()
                          if op.kind is OpKind.STORE and op.durable]
        assert durable_stores
        assert all(op.origin == wl.name for _, _, op in program.iter_ops())

    def test_litmus_lower_program_matches_lower(self):
        from repro.litmus.corpus import smoke_corpus
        from repro.litmus.dsl import lower, lower_program

        test = smoke_corpus()[0]
        program, addrs = lower_program(test, CFG)
        trace, addrs2 = lower(test, CFG)
        assert addrs == addrs2
        assert [t.ops for t in program.to_trace().threads] == \
            [t.ops for t in trace.threads]
        assert all(op.origin.startswith(test.name)
                   for _, _, op in program.iter_ops())
