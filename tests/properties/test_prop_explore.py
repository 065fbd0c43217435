"""Differential reference check of the single-pass crash kernel.

For random programs — the checker's load/store programs and the
optimizer's flush/fence/epoch programs — under every registered scheme
and checker mutant, with TSO and relaxed consistency: at every micro-step
crash point, the durable image and the :class:`PointVerdict` the sweep
(:func:`repro.check.explore.sweep`) reports must equal those of a fresh
system crashed there with ``CrashSchedule(stop_at=k)`` and the scheme's
real ``crash_drain``.  The sweep's verdicts come from the pruned path's
incremental oracles, the replay's from the from-scratch reference.

The pruned path's fingerprint memo keys a visit on its raw crash writes,
before its image merges them: visits with equal keys must have equal
merged overlays and reference fingerprints, and the lazily merged image
must read exactly as an eager merge of the same writes onto a snapshot
of the media.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.checker import (CheckUnit, _ReferenceOracles, _SweepOracles,
                                 _UnitContext, _verdict, durable_fingerprint)
from repro.check.explore import sweep
from repro.check.mutants import MUTANTS
from repro.check.schedule import CrashSchedule
from repro.core.registry import iter_schemes
from repro.mem.block import BlockData
from repro.opt.ir import Program
from repro.sim.config import ConsistencyModel, SystemConfig
from repro.workloads.base import WorkloadSpec
from tests.properties.test_prop_crashcheck import (
    build_program as build_checker_trace,
    program_strategy as checker_programs,
)
from tests.properties.test_prop_opt import (
    build_program as build_optimizer_program,
    program_strategy as optimizer_programs,
)

CFG = SystemConfig(num_cores=2).scaled_for_testing()
MODELS = {
    "tso": CFG,
    "relaxed": dataclasses.replace(CFG, consistency=ConsistencyModel.RELAXED),
}

#: (scheme, mutant) — every registered scheme, then every checker mutant.
TARGETS = [(info.name, None) for info in iter_schemes()] + [
    (base, name) for name, (base, _) in sorted(MUTANTS.items())
]

programs = st.one_of(
    checker_programs.map(lambda threads: Program.from_trace(
        build_checker_trace(threads), name="checker",
        is_persistent=CFG.mem.is_persistent)),
    optimizer_programs.map(build_optimizer_program),
)


def _image(media):
    return {b: dict(media.peek_block(b).bytes) for b in media.written_blocks()}


@pytest.mark.parametrize("scheme,mutant", TARGETS,
                         ids=[m or s for s, m in TARGETS])
@settings(max_examples=15, deadline=None)
@given(program=programs, model=st.sampled_from(sorted(MODELS)))
def test_sweep_equals_per_point_replay(scheme, mutant, program, model):
    unit = CheckUnit(
        scheme=scheme, mutant=mutant, workload="mutateNC",
        spec=WorkloadSpec(threads=2, ops=1, elements=64), entries=2,
        prune=False, config=MODELS[model], program=program,
    )
    ctx = _UnitContext(unit)
    schedule = CrashSchedule()
    system = ctx.build_system(schedule)
    # The sweep side judges incrementally, the replay side from scratch.
    incremental, reference = (_SweepOracles(ctx, system.nvmm_media),
                              _ReferenceOracles(ctx))
    swept = []

    def observe(visit):
        swept.append((
            _verdict(incremental, visit.point, visit.site, visit.crash_op,
                     visit.cycle, visit, visit, None),
            _image(visit.nvmm_media),
        ))

    sweep(system, ctx.trace, observe)
    assert len(swept) == schedule.visits
    for verdict, image in swept:
        system = ctx.build_system(CrashSchedule(stop_at=verdict.point))
        result = system.run(ctx.trace)
        point = result.crash_point
        replayed = _verdict(reference, verdict.point, point.site,
                            result.crash_op or 0, point.cycle,
                            system, result, None)
        assert verdict == replayed
        assert image == _image(system.nvmm_media), verdict.point


def _eager_image(media, writes):
    """The crash image merged up front: a snapshot of the media with
    every crash write laid over it in order."""
    image = media.image()
    for baddr, data in writes:
        image.setdefault(baddr, BlockData()).merge_from(data)
    return image


@pytest.mark.parametrize("scheme,mutant", TARGETS,
                         ids=[m or s for s, m in TARGETS])
@settings(max_examples=15, deadline=None)
@given(program=programs, model=st.sampled_from(sorted(MODELS)))
def test_raw_write_key_determines_the_merged_image(scheme, mutant, program,
                                                   model):
    unit = CheckUnit(
        scheme=scheme, mutant=mutant, workload="mutateNC",
        spec=WorkloadSpec(threads=2, ops=1, elements=64), entries=2,
        config=MODELS[model], program=program,
    )
    ctx = _UnitContext(unit)
    system = ctx.build_system(CrashSchedule())
    media = system.nvmm_media
    by_key = {}

    def observe(visit):
        image = visit.nvmm_media
        committed, performed = (visit.committed_persists,
                                visit.performed_persists)
        key = (len(committed), len(performed), media.total_writes,
               tuple((baddr, data.value, data.mask)
                     for baddr, data in image.writes))
        eager = _eager_image(media, image.writes)
        # Nothing has read the image yet: this read merges it.
        assert set(image.written_blocks()) == set(eager)
        for baddr, blk in eager.items():
            got = image.peek_block(baddr)
            assert (got.value, got.mask) == (blk.value, blk.mask)
            for off in range(0, 64, 8):
                for size in (1, 4, 8):
                    assert image.read_word(baddr + off, size) == \
                        blk.read_word(off, size)
        state = ({b: (d.value, d.mask) for b, d in image.overlay.items()},
                 durable_fingerprint(scheme, image, committed, performed))
        assert by_key.setdefault(key, state) == state, visit.point

    sweep(system, ctx.trace, observe)
    assert by_key
