"""The persist optimizer: pass pipeline over the unified program IR.

The BBB paper's core claim is that battery-backed persist buffers make
the persistence domain equal the coherence domain, so the clwb/sfence
discipline naive persistent programming inherits from the pmem/ADR era
is *redundant by construction*.  This package turns that claim into a
checkable, measurable compiler-style transformation:

- :mod:`repro.opt.ir` — one canonical :class:`~repro.opt.ir.Program`
  representation (per-op provenance + durable-location metadata),
  lowered from executable traces, workloads and litmus tests;
- :mod:`repro.opt.passes` — the removal-only passes, one ``{name: fn}``
  table (:data:`~repro.opt.passes.PASSES`): scheme-independent
  redundancy elimination plus elision gated purely on
  :attr:`~repro.core.registry.SchemeInfo.ordering_contract`;
- :mod:`repro.opt.pipeline` — ordered pass application that audits every
  removal as it applies it, with predicates independent of the passes;
- :mod:`repro.opt.verify` — the dynamic evidence: final durable images,
  exhaustive crash-checker equivalence, and litmus-model gating, with
  ddmin-minimized counterexamples on regression;
- :mod:`repro.opt.report` — the fig7-style naive-vs-optimized grid, the
  CI smoke gate, and replayable ``repro.optreport/v1`` artifacts.

Everything dispatches on registered scheme *capabilities*, never scheme
names — a plugin scheme that declares its ``ordering_contract`` gets the
whole pipeline, verifier included, with zero core edits (see
``examples/custom_scheme.py``).
"""

from repro.opt.ir import (
    INSTRUMENT_FENCE,
    INSTRUMENT_FLUSH,
    Op,
    Program,
    instrument_naive,
)
from repro.opt.passes import (
    DEFAULT_PIPELINE,
    MUTANT_PIPELINE,
    PASSES,
    PassContext,
    removed_positions,
)
from repro.opt.pipeline import (
    PipelineResult,
    fence_is_redundant,
    flush_is_redundant,
    removal_justified,
    run_pipeline,
    store_is_coalescible,
)
from repro.opt.report import (
    OPT_SCHEMA,
    compare_cell,
    opt_compare,
    render_compare_table,
    replay_report,
    smoke_opt,
)
from repro.opt.verify import (
    OptimizedLitmus,
    OptimizedWorkload,
    final_image_fingerprint,
    optimize_litmus,
    optimize_workload,
    verify_litmus_cell,
    verify_optimized,
    verify_workload_cell,
)

__all__ = [
    "DEFAULT_PIPELINE",
    "INSTRUMENT_FENCE",
    "INSTRUMENT_FLUSH",
    "MUTANT_PIPELINE",
    "OPT_SCHEMA",
    "Op",
    "OptimizedLitmus",
    "OptimizedWorkload",
    "PASSES",
    "PassContext",
    "PipelineResult",
    "Program",
    "compare_cell",
    "fence_is_redundant",
    "final_image_fingerprint",
    "flush_is_redundant",
    "instrument_naive",
    "opt_compare",
    "optimize_litmus",
    "optimize_workload",
    "removal_justified",
    "removed_positions",
    "render_compare_table",
    "replay_report",
    "run_pipeline",
    "smoke_opt",
    "store_is_coalescible",
    "verify_litmus_cell",
    "verify_optimized",
    "verify_workload_cell",
]
