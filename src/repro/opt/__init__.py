"""The persist optimizer: pass pipeline over the unified program IR.

The BBB paper's core claim is that battery-backed persist buffers make
the persistence domain equal the coherence domain, so the clwb/sfence
discipline naive persistent programming inherits from the pmem/ADR era
is *redundant by construction*.  This package turns that claim into a
checkable, measurable compiler-style transformation:

- :mod:`repro.opt.ir` — one canonical :class:`~repro.opt.ir.Program`
  representation (per-op provenance + durable-location metadata),
  lossless to and from executable traces, workloads and litmus tests;
- :mod:`repro.opt.passes` — registered removal-only passes:
  scheme-independent redundancy elimination plus elision gated purely on
  :attr:`~repro.core.registry.SchemeInfo.ordering_contract`;
- :mod:`repro.opt.pipeline` — ordered pass application with per-pass
  elision accounting;
- :mod:`repro.opt.verify` — the trust layer: an independent per-removal
  audit, exhaustive crash-checker equivalence, and litmus-model gating,
  with ddmin-minimized counterexamples on regression;
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
    PassContext,
    PassInfo,
    apply_pass,
    iter_passes,
    pass_info,
    pass_names,
    register_pass,
    removed_positions,
)
from repro.opt.pipeline import (
    DEFAULT_PIPELINE,
    MUTANT_PIPELINE,
    PassApplication,
    PipelineResult,
    run_pipeline,
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
    AuditResult,
    audit_pipeline,
    fence_is_redundant,
    final_image_fingerprint,
    flush_is_redundant,
    removal_justified,
    store_is_coalescible,
    verify_litmus_cell,
    verify_workload_cell,
)

__all__ = [
    "AuditResult",
    "DEFAULT_PIPELINE",
    "INSTRUMENT_FENCE",
    "INSTRUMENT_FLUSH",
    "MUTANT_PIPELINE",
    "OPT_SCHEMA",
    "Op",
    "PassApplication",
    "PassContext",
    "PassInfo",
    "PipelineResult",
    "Program",
    "apply_pass",
    "audit_pipeline",
    "compare_cell",
    "fence_is_redundant",
    "final_image_fingerprint",
    "flush_is_redundant",
    "instrument_naive",
    "iter_passes",
    "opt_compare",
    "pass_info",
    "pass_names",
    "register_pass",
    "removal_justified",
    "removed_positions",
    "render_compare_table",
    "replay_report",
    "run_pipeline",
    "smoke_opt",
    "store_is_coalescible",
    "verify_litmus_cell",
    "verify_workload_cell",
]
