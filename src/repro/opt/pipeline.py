"""The pass pipeline: ordered pass application with elision accounting.

:func:`run_pipeline` applies a sequence of registered passes
(:mod:`repro.opt.passes`) to an IR program under one scheme's capability
descriptor and returns a :class:`PipelineResult`: the optimized program
plus per-pass, per-kind removal counts — the raw material of the
"elided-instruction percentage" the paper's simplification claim turns
into (``repro opt --compare``).

The default pipeline runs the scheme-independent redundancy passes
first (so even flush-keeping schemes shed dead clwbs and no-op sfences),
then the contract-gated elision passes, which consult
:attr:`~repro.core.registry.SchemeInfo.ordering_contract` and remove
only the kinds the scheme's hardware subsumes.  Pipelines are just name
tuples — callers can reorder, subset, or extend them with their own
registered passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.registry import scheme_info
from repro.opt.ir import Program
from repro.opt.passes import PassContext, apply_pass, pass_info

__all__ = [
    "DEFAULT_PIPELINE",
    "MUTANT_PIPELINE",
    "PassApplication",
    "PipelineResult",
    "run_pipeline",
]

#: The canonical sound pipeline: scheme-independent redundancy removal
#: first, then contract-gated elision.
DEFAULT_PIPELINE: Tuple[str, ...] = (
    "coalesce-stores",
    "drop-dead-flush",
    "weaken-fence",
    "elide-flush",
    "elide-fence",
    "elide-epoch",
)

#: The deliberately broken pipeline (verifier teeth): drops fences and
#: epoch boundaries regardless of the scheme's ordering contract.
MUTANT_PIPELINE: Tuple[str, ...] = ("opt-drop-epoch-fence",)

#: The instrumentation kinds elision percentages are quoted over.
_FLUSH_FENCE = ("flush", "fence")


@dataclass(frozen=True)
class PassApplication:
    """One pass's effect: ops removed, by kind and in total."""

    name: str
    removed_by_kind: Tuple[Tuple[str, int], ...]

    @property
    def removed(self) -> int:
        return sum(n for _, n in self.removed_by_kind)


@dataclass(frozen=True)
class PipelineResult:
    """The outcome of one (program x scheme x pipeline) optimization."""

    scheme: str
    program: Program          # the input (naive) program
    optimized: Program
    passes: Tuple[PassApplication, ...]

    @property
    def input_counts(self) -> Dict[str, int]:
        return self.program.kind_counts()

    @property
    def output_counts(self) -> Dict[str, int]:
        return self.optimized.kind_counts()

    def removed_of(self, kind: str) -> int:
        inc, outc = self.input_counts, self.output_counts
        return inc.get(kind, 0) - outc.get(kind, 0)

    def elision_pct(self, kinds: Sequence[str] = _FLUSH_FENCE) -> float:
        """Percentage of the input's ``kinds`` ops the pipeline removed
        (0.0 when the input had none — nothing to elide)."""
        inc, outc = self.input_counts, self.output_counts
        total = sum(inc.get(k, 0) for k in kinds)
        if not total:
            return 0.0
        kept = sum(outc.get(k, 0) for k in kinds)
        return 100.0 * (total - kept) / total

    @property
    def flush_fence_elision_pct(self) -> float:
        """The headline number: % of clwb+sfence instrumentation elided."""
        return self.elision_pct(_FLUSH_FENCE)


def run_pipeline(
    program: Program,
    scheme: str,
    passes: Optional[Sequence[str]] = None,
    block_size: int = 64,
) -> PipelineResult:
    """Apply ``passes`` (default :data:`DEFAULT_PIPELINE`) to ``program``
    under ``scheme``'s capability descriptor."""
    info = scheme_info(scheme)
    ctx = PassContext(scheme=info, block_size=block_size)
    names = tuple(passes if passes is not None else DEFAULT_PIPELINE)
    for name in names:
        pass_info(name)  # fail fast on unknown pass names
    current = program
    applications = []
    for name in names:
        before = current.kind_counts()
        current = apply_pass(current, name, ctx)
        after = current.kind_counts()
        removed = tuple(
            (kind, before[kind] - after[kind])
            for kind in sorted(before)
            if before[kind] != after[kind]
        )
        applications.append(PassApplication(name=name,
                                            removed_by_kind=removed))
    return PipelineResult(
        scheme=info.name, program=program, optimized=current,
        passes=tuple(applications),
    )
