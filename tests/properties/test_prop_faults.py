"""The robustness property: random programs crashed at random points under
random fault plans NEVER classify as silent corruption on the default BBB
configuration.

Every modelled fault has a default-on detection channel (media ECC, bbPB
parity, battery brown-out, controller machine check) and
:func:`repro.fault.plan.random_plan` models faults — not cheaper hardware —
so it never disables a channel.  Whatever a plan does to a run, the result
is therefore either still contract-consistent or noticed by at least one
channel.  (The clean-run baseline is consistent by the companion property
in test_prop_crash_consistency.py, so the strong form with
``baseline_consistent=True`` applies.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import build_system
from repro.core.recovery import (
    Outcome,
    check_exact_durability,
    classify_outcome,
)
from repro.fault.injector import FaultInjector
from repro.fault.plan import BATTERY_DOMAIN_SITES, random_plan
from repro.sim.config import SystemConfig
from repro.sim.trace import ProgramTrace, ThreadTrace, TraceOp
from tests.conftest import crash_after

CFG = SystemConfig(num_cores=2).scaled_for_testing()

op_strategy = st.tuples(
    st.sampled_from(["load", "store", "compute"]),
    st.integers(min_value=0, max_value=15),   # block index
    st.integers(min_value=0, max_value=56),   # offset (8-aligned below)
    st.integers(min_value=1, max_value=1 << 30),
)


def to_trace_op(kind, block, offset, value):
    addr = CFG.mem.persistent_base + block * 64 + (offset & ~7)
    if kind == "load":
        return TraceOp.load(addr)
    if kind == "store":
        return TraceOp.store(addr, value)
    return TraceOp.compute(value % 20)


thread_strategy = st.lists(op_strategy, min_size=1, max_size=30)
program_strategy = st.lists(thread_strategy, min_size=1, max_size=2)


def build_program(threads):
    return ProgramTrace(
        [ThreadTrace([to_trace_op(*op) for op in ops]) for ops in threads]
    )


def _classify(threads, data, plan):
    trace = build_program(threads)
    crash_at = data.draw(
        st.integers(min_value=1, max_value=trace.total_ops()), label="crash_at"
    )
    entries = data.draw(st.sampled_from([2, 8, 32]), label="entries")
    injector = FaultInjector(plan)
    system = build_system("bbb", config=CFG, entries=entries,
                          options=crash_after(crash_at,
                                              fault_injector=injector))
    result = system.run(trace)
    contract = check_exact_durability(
        system.nvmm_media, result.committed_persists
    )
    return classify_outcome(contract, injector.detected_count > 0), injector


@settings(max_examples=50, deadline=None)
@given(program_strategy, st.integers(min_value=0, max_value=1 << 20), st.data())
def test_random_faults_never_silent_on_bbb(threads, plan_seed, data):
    plan = random_plan(plan_seed)
    outcome, _ = _classify(threads, data, plan)
    assert outcome is not Outcome.SILENT_CORRUPTION


@settings(max_examples=40, deadline=None)
@given(program_strategy, st.integers(min_value=0, max_value=1 << 20), st.data())
def test_battery_domain_faults_consistent_or_detected(threads, plan_seed, data):
    """The battery domain's stronger guarantee, per injected fault: a run
    the faults actually touched is either still exactly durable or carries
    a detection record."""
    plan = random_plan(plan_seed, sites=BATTERY_DOMAIN_SITES)
    outcome, injector = _classify(threads, data, plan)
    assert outcome is not Outcome.SILENT_CORRUPTION
    if outcome is not Outcome.CONSISTENT:
        assert injector.detected_count > 0
