"""Exhaustive crash-state exploration with differential oracles.

The model checker turns the crash-schedule hooks
(:mod:`repro.check.schedule`) into a systematic search over every
micro-step crash point ``1..T`` a workload run reaches (mid-drain, the
L1D-visible/bbPB-allocated window, the coherence forced-drain channel,
WPQ acceptance, and every op boundary).  It executes the workload once:
the single-pass kernel (:func:`repro.check.explore.sweep`) hands it the
durable image a crash at each point would leave, the same image a fresh
system crashed with ``stop_at=k`` recovers (:func:`replay_points` is that
reference, and the smoke gate diffs sampled points against it).

Each recovered durable image is checked against three oracles:

1. the scheme's declared contract (:func:`repro.core.recovery.
   check_scheme_contract`) over the persists the scheme *claims* durable
   (:func:`repro.core.recovery.claimed_persists` — strict-persistency
   schemes claim only WPQ-accepted stores);
2. for exact-contract schemes, a *golden differential*: the durable image
   must equal, byte for byte over every written offset, the image an
   idealised eADR machine would leave (initial seeds plus an in-order
   replay of the claimed persists);
3. the workload's structural invariant checker, when it defines one.

State-space pruning fingerprints the durable state (media image plus the
committed and performed persist logs).  A verdict is a pure function of
that fingerprint, so two crash points with equal fingerprints must
agree — the second skips the oracles and reuses the verdict.  Pruned and
unpruned runs therefore report identical per-point verdicts and
fingerprints; the smoke check (:func:`smoke_check`) asserts exactly
that, and also that a deliberately broken scheme mutant
(:mod:`repro.check.mutants`) is caught.

A pruned sweep pays per visit for what changed since the previous
visit (:class:`_SweepOracles`): fingerprints are memoized on an exact
key of log lengths, media write count and the raw crash writes (so a
known state merges no image), a key miss re-encodes only the blocks
written since, and one golden image per unit grows with the claimed
persists.  The from-scratch functions
(:func:`durable_fingerprint` and :func:`durability_violations`, which
combines the contract check with :func:`diff_golden` against
:func:`golden_expected`) stay the reference: unpruned runs,
:func:`replay_points`, the minimizer and ``check --replay`` call them.
"""

from __future__ import annotations

import hashlib
from dataclasses import astuple, dataclass, replace
from typing import (Any, Callable, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.check.schedule import SITE_OP, CrashSchedule
from repro.core.recovery import (
    CONTRACT_DOCS,
    check_scheme_contract,
    claimed_persists,
    exact_durability_violations,
)
from repro.core.registry import DEFAULT_SCHEME, MODEL_EPOCH, scheme_info
from repro.mem.block import BlockData, block_address, block_offset

#: Versioned schema identifier of the model-checker report / artifact.
CHECK_SCHEMA = "repro.crashcheck/v1"

#: Scope of the prune cache in :func:`run_check_unit`: a fresh cache every
#: this many consecutive checked points (the shard size of the per-point
#: replay checker, kept so ``pruned`` flags and report counts stay
#: comparable across revisions).
POINTS_PER_SHARD = 64

#: The smoke gate replays every non-``engine.op`` point and every this-th
#: ``engine.op`` point through a real crash, against the sweep's verdict.
SMOKE_REPLAY_OP_STRIDE = 16

#: Violations recorded per point / per report before truncation.
MAX_VIOLATIONS_PER_POINT = 8
MAX_VIOLATIONS_PER_REPORT = 32


# ----------------------------------------------------------------------
# Check units
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckUnit:
    """One (scheme, workload) model-checking job.

    ``scheme`` is always the *canonical* scheme name (a member of
    :data:`repro.api.SCHEMES`) — when ``mutant`` names a broken variant
    from :data:`repro.check.mutants.MUTANTS`, ``scheme`` must be the
    mutant's base scheme so contract lookup still applies the contract
    the mutant pretends to honour.  ``sites`` restricts the schedule to a
    subset of :data:`repro.check.schedule.ALL_SITES`; ``max_points``
    caps exploration by seeded sampling (``sample_seed``) instead of
    enumerating all of ``1..T``.  ``prune`` toggles fingerprint reuse.
    """

    scheme: str
    workload: str = "hashmap"
    spec: Any = None          # Optional[WorkloadSpec]; None = default
    entries: int = 8
    mutant: Optional[str] = None
    prune: bool = True
    sites: Optional[Tuple[str, ...]] = None
    max_points: Optional[int] = None
    sample_seed: int = 0
    config: Any = None        # Optional[SystemConfig]; None = default_sim_config
    #: Optional IR program (a :class:`repro.opt.ir.Program`).  When set,
    #: the unit executes this program instead of the workload's own
    #: build; ``workload`` still names the media seeds and structural
    #: checker that apply.  The optimizer uses this to run a *rewritten*
    #: form of the workload's program against the same oracles the naive
    #: form faces.
    program: Any = None

    def __post_init__(self) -> None:
        if self.max_points is not None and self.max_points < 1:
            raise ValueError(
                f"max_points must be >= 1, got {self.max_points}")

    def describe(self) -> str:
        tag = f"{self.mutant} (as {self.scheme})" if self.mutant else self.scheme
        return f"{self.workload} under {tag}"


class PointVerdict(NamedTuple):
    """The outcome of crashing at micro-step visit ``point``."""

    point: int
    site: str
    crash_op: int
    cycle: int
    consistent: bool
    violations: Tuple[str, ...]
    fingerprint: str
    pruned: bool


class _UnitContext:
    """Per-worker build of everything a unit's runs share: the resolved
    config, the workload's trace, its initial persistent words, and the
    structural checker."""

    def __init__(self, unit: CheckUnit) -> None:
        from repro.analysis.experiments import default_sim_config
        from repro.workloads.base import WorkloadSpec, make_workload

        self.unit = unit
        self.config = unit.config or default_sim_config()
        self.spec = unit.spec or WorkloadSpec()
        self.workload = make_workload(unit.workload, self.config.mem, self.spec)
        if unit.program is not None:
            self.trace = unit.program.to_trace()
        else:
            self.trace = self.workload.build()
        self.seed_words: Dict[int, int] = dict(self.workload.initial_words)
        self.structural = self.workload.make_checker()
        self.info = scheme_info(unit.scheme)

    def build_system(self, schedule: CrashSchedule):
        from repro.check.mutants import build_crash_system

        unit = self.unit
        return build_crash_system(
            unit.scheme, mutant=unit.mutant, entries=unit.entries,
            config=self.config, crash_schedule=schedule,
            seed_words=self.seed_words,
        )


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def golden_expected(
    seed_words: Dict[int, int],
    persists: Sequence,
    block_size: int = 64,
) -> Dict[int, BlockData]:
    """The durable image an idealised eADR machine leaves: the workload's
    pre-seeded words overlaid with an in-order replay of ``persists``."""
    image: Dict[int, BlockData] = {}
    for addr, value in seed_words.items():
        baddr = block_address(addr, block_size)
        image.setdefault(baddr, BlockData()).write_word(
            block_offset(addr, block_size), value, 8
        )
    for rec in persists:
        baddr = block_address(rec.addr, block_size)
        image.setdefault(baddr, BlockData()).write_word(
            block_offset(rec.addr, block_size), rec.value, rec.size
        )
    return image


def diff_golden(
    media,
    expected: Dict[int, BlockData],
    is_persistent: Callable[[int], bool],
    block_size: int = 64,
    max_violations: int = MAX_VIOLATIONS_PER_POINT,
) -> List[str]:
    """Byte-for-byte differential between the actual durable image and the
    golden expectation, restricted to the persistent region.

    Both directions are checked over the union of written offsets: a
    missing byte (claimed durable, reads as unwritten 0) and an extra byte
    (durable but never claimed) are both mismatches.  One violation is
    reported per differing block to keep reports readable.
    """
    blocks = set(expected)
    blocks.update(b for b in media.written_blocks() if is_persistent(b))
    return _diff_blocks(media, expected, sorted(blocks), is_persistent,
                        max_violations)


def _diff_blocks(media, expected, blocks, is_persistent,
                 max_violations=MAX_VIOLATIONS_PER_POINT) -> List[str]:
    """:func:`diff_golden` over ``blocks`` (ascending) only."""
    violations: List[str] = []
    for baddr in blocks:
        if not is_persistent(baddr):
            continue
        exp = expected.get(baddr)
        want = exp.value if exp is not None else 0
        got = media.peek_block(baddr).value
        diff = want ^ got
        if not diff:
            continue
        # One per block: the lowest differing byte.
        shift = ((diff & -diff).bit_length() - 1) & ~7
        violations.append(
            f"golden mismatch at 0x{baddr + (shift >> 3):x}: eADR-golden "
            f"byte 0x{(want >> shift) & 0xFF:02x}, durable byte "
            f"0x{(got >> shift) & 0xFF:02x}"
        )
        if len(violations) >= max_violations:
            break
    return violations


def durability_violations(
    scheme: str,
    seed_words: Dict[int, int],
    is_persistent: Callable[[int], bool],
    media,
    claimed: Sequence,
) -> List[str]:
    """The crash oracle over one durable image ``media``: the violations
    of ``scheme``'s contract over the ``claimed`` persists (at most
    :data:`MAX_VIOLATIONS_PER_POINT`), then, for exact-durability schemes,
    the golden differential's.  Computed from scratch: the checker's
    reference path, the minimizer and ``check --replay`` all call it."""
    contract = check_scheme_contract(scheme, media, claimed)
    violations = contract.violations[:MAX_VIOLATIONS_PER_POINT]
    if scheme_info(scheme).exact_durability:
        violations.extend(diff_golden(
            media, golden_expected(seed_words, claimed), is_persistent,
        ))
    return violations


def _block_bytes(baddr: int, data: BlockData) -> bytes:
    """One written block's share of the fingerprint stream: ``B``, the
    block address (8 bytes, little-endian), then an (offset, byte) pair
    per written byte in offset order."""
    return b"B" + baddr.to_bytes(8, "little") + data.pairs()


def _record_bytes(rec) -> bytes:
    """One persist record's share of the fingerprint stream."""
    return repr((rec.core, rec.addr, rec.size, rec.value, rec.seq)).encode()


def durable_fingerprint(scheme: str, media, committed, performed) -> str:
    """SHA-256 over everything the verdict depends on: the scheme name,
    the durable media image (every written block in address order), and
    both persist logs (``|c`` then the committed records, ``|p`` then the
    performed ones).  Equal fingerprints imply equal verdicts (the
    pruning soundness invariant).

    This is the from-scratch reference: it rehashes the whole image and
    both logs.  A pruned sweep hashes the same byte stream through
    :class:`_SweepOracles`, which rebuilds only what changed since the
    previous visit; ``prune=False`` runs and :func:`replay_points` call
    this function."""
    h = hashlib.sha256(scheme.encode())
    for baddr in sorted(media.written_blocks()):
        h.update(_block_bytes(baddr, media.peek_block(baddr)))
    for tag, records in ((b"|c", committed), (b"|p", performed)):
        h.update(tag)
        for rec in records:
            h.update(_record_bytes(rec))
    return h.hexdigest()


class _ReferenceOracles:
    """Fingerprint and durability oracles computed from scratch at every
    crash state: the reference path of ``prune=False`` runs and
    :func:`replay_points`, which the pruned path must match."""

    def __init__(self, ctx: _UnitContext) -> None:
        self.ctx = ctx

    def fingerprint(self, media, run) -> str:
        return durable_fingerprint(self.ctx.unit.scheme, media,
                                   run.committed_persists,
                                   run.performed_persists)

    def durability_violations(self, media, claimed) -> List[str]:
        ctx = self.ctx
        return durability_violations(ctx.unit.scheme, ctx.seed_words,
                                     ctx.config.mem.is_persistent, media,
                                     claimed)


class _SweepOracles(_ReferenceOracles):
    """The same oracles over the visits of one sweep, at a cost
    proportional to what changed since the previous visit.

    * **Fingerprint memo.**  Both persist logs are append-only, and the
      media changes only by counted writes (seeding precedes the sweep),
      so ``(len(committed), len(performed), media.total_writes, crash
      writes)`` determines the durable state: the raw crash writes, in
      drain order, determine their merge onto that media, so equal keys
      have equal fingerprints.  The key is read before the image merges
      anything, and a hit merges nothing.  A key miss hashes the
      :func:`durable_fingerprint` stream, joined from per-block chunks
      cached by the block's write count and from log records encoded
      once.
    * **One golden image.**  The seeded image is built once and extended
      with newly claimed persists, which also only grow.  It serves the
      exact-durability contract and the golden differential; the diff
      visits only the blocks the run touched (media blocks with a nonzero
      write count, overlay blocks, the claimed footprint), because every
      other block holds its seed on both sides.

    ``media`` is the swept system's live NVMM media.
    """

    def __init__(self, ctx: _UnitContext, media) -> None:
        super().__init__(ctx)
        self.media = media
        self._fingerprints: Dict[tuple, str] = {}
        #: block address -> (its media write count, its stream chunk)
        self._chunks: Dict[int, Tuple[int, bytes]] = {}
        self._records: Tuple[List[bytes], List[bytes]] = ([], [])
        self._golden = golden_expected(ctx.seed_words, ())
        #: block address -> claimed offsets, in first-write order
        self._footprint: Dict[int, Dict[int, None]] = {}
        self._replayed = 0

    def fingerprint(self, image, run) -> str:
        committed, performed = run.committed_persists, run.performed_persists
        key = (len(committed), len(performed), self.media.total_writes,
               tuple([(baddr, data.value, data.mask)
                      for baddr, data in image.writes]))
        fp = self._fingerprints.get(key)
        if fp is None:
            fp = self._fingerprints[key] = self._hash(image, committed,
                                                      performed)
        return fp

    def _hash(self, image, committed, performed) -> str:
        media, counts = self.media, self.media.write_counts
        chunks, overlay = self._chunks, image.overlay
        parts = [self.ctx.unit.scheme.encode()]
        for baddr in sorted(image.written_blocks()):
            blk = overlay.get(baddr)
            if blk is not None:
                parts.append(_block_bytes(baddr, blk))
                continue
            n = counts[baddr]
            cached = chunks.get(baddr)
            if cached is None or cached[0] != n:
                cached = chunks[baddr] = (
                    n, _block_bytes(baddr, media.peek_block(baddr)))
            parts.append(cached[1])
        for tag, log, encoded in ((b"|c", committed, self._records[0]),
                                  (b"|p", performed, self._records[1])):
            encoded.extend(map(_record_bytes, log[len(encoded):]))
            parts.append(tag)
            parts.extend(encoded[:len(log)])
        return hashlib.sha256(b"".join(parts)).hexdigest()

    def durability_violations(self, image, claimed) -> List[str]:
        ctx = self.ctx
        if not ctx.info.exact_durability:
            return super().durability_violations(image, claimed)
        golden, footprint = self._golden, self._footprint
        # Visits come in run order and the claim only grows, so the
        # records past ``_replayed`` are exactly the new ones.
        for rec in claimed[self._replayed:]:
            baddr = block_address(rec.addr, 64)
            off = block_offset(rec.addr, 64)
            golden.setdefault(baddr, BlockData()).write_word(
                off, rec.value, rec.size)
            footprint.setdefault(baddr, {}).update(
                dict.fromkeys(range(off, off + rec.size)))
        self._replayed = len(claimed)
        violations = exact_durability_violations(
            image, golden, footprint)[:MAX_VIOLATIONS_PER_POINT]
        touched = footprint.keys() | image.overlay.keys()
        touched.update(b for b, n in self.media.write_counts.items() if n)
        violations.extend(_diff_blocks(image, golden, sorted(touched),
                                       ctx.config.mem.is_persistent))
        return violations


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------

def _count(ctx: _UnitContext) -> Tuple[int, Dict[str, int]]:
    schedule = CrashSchedule(stop_at=None, sites=ctx.unit.sites)
    result = ctx.build_system(schedule).run(ctx.trace)
    if result.crashed:
        raise RuntimeError(
            "counting run crashed — an unbounded CrashSchedule must never fire"
        )
    return schedule.visits, dict(schedule.site_counts)


def count_micro_points(unit: CheckUnit) -> Tuple[int, Dict[str, int]]:
    """Counting run: execute the unit's workload once under an unbounded
    schedule and return ``(total visits, per-site visit counts)``."""
    return _count(_UnitContext(unit))


def _verdict(
    oracles: _ReferenceOracles,
    point: int,
    site: str,
    crash_op: int,
    cycle: int,
    crashed,
    run,
    cache: Optional[Dict[str, Tuple[bool, Tuple[str, ...]]]],
) -> PointVerdict:
    """Judge one crash state: ``crashed.nvmm_media`` is its durable image
    and ``run`` carries its persist logs (a crashed system and its
    ``RunResult``, or one :class:`~repro.check.explore.Visit` as both).
    ``oracles`` computes the fingerprint and the contract and golden
    violations, from scratch or incrementally within one sweep."""
    ctx = oracles.ctx
    media = crashed.nvmm_media
    fp = oracles.fingerprint(media, run)

    hit = cache.get(fp) if cache is not None else None
    if hit is not None:
        consistent, violations = hit
        return PointVerdict(point, site, crash_op, cycle,
                            consistent, violations, fp, pruned=True)

    violations = oracles.durability_violations(
        media, claimed_persists(ctx.unit.scheme, run))
    if (ctx.structural is not None
            and ctx.info.persistency_model != MODEL_EPOCH):
        # Structural workload invariants (e.g. "a published pointer's
        # target node is initialised") follow from per-core persist order,
        # which prefix-or-stronger contracts promise.  Epoch-model
        # schemes legitimately break them mid-epoch, so the invariant is
        # not an oracle for them.
        ok, struct_violations = ctx.structural(crashed, run)
        if not ok:
            violations.extend(struct_violations[:MAX_VIOLATIONS_PER_POINT])

    verdict = PointVerdict(
        point, site, crash_op, cycle,
        not violations, tuple(violations[:MAX_VIOLATIONS_PER_POINT]), fp,
        pruned=False,
    )
    if cache is not None:
        cache[fp] = (verdict.consistent, verdict.violations)
    return verdict


def _explore(
    unit: CheckUnit, prune_scope: Optional[int] = None
) -> Tuple[List[PointVerdict], int, Dict[str, int]]:
    """Check the unit's selected crash points in one sweep; the prune
    cache starts afresh every ``prune_scope`` points (``None``: never)."""
    from repro.check.explore import sample_points, sweep

    ctx = _UnitContext(unit)
    points = None
    if unit.max_points is not None:
        # Sampling needs the size of the space before the pass.
        total, _ = _count(ctx)
        points = sample_points(total, unit.max_points, unit.sample_seed)
    schedule = CrashSchedule(stop_at=None, sites=unit.sites)
    system = ctx.build_system(schedule)
    cache: Optional[Dict] = None
    oracles = _ReferenceOracles(ctx)
    if unit.prune:
        cache, oracles = {}, _SweepOracles(ctx, system.nvmm_media)
    verdicts: List[PointVerdict] = []

    def observe(visit) -> None:
        if cache and prune_scope and len(verdicts) % prune_scope == 0:
            cache.clear()
        verdicts.append(_verdict(
            oracles, visit.point, visit.site, visit.crash_op, visit.cycle,
            visit, visit, cache,
        ))

    sweep(system, ctx.trace, observe, points)
    return verdicts, schedule.visits, dict(schedule.site_counts)


def explore(unit: CheckUnit) -> Tuple[List[PointVerdict], int, Dict[str, int]]:
    """Serial in-process exploration of every reachable crash point, one
    prune cache for the whole unit.  Returns ``(verdicts, total_points,
    site_counts)`` — the test-friendly core that :func:`run_check_unit`
    wraps with reporting."""
    return _explore(unit)


def replay_points(unit: CheckUnit, points: Sequence[int]) -> List[PointVerdict]:
    """The reference for each point ``k``: crash a fresh system with
    ``stop_at=k`` (the scheme's real ``crash_drain``) and judge the
    recovered image, unpruned."""
    ctx = _UnitContext(unit)
    oracles = _ReferenceOracles(ctx)
    verdicts = []
    for k in points:
        system = ctx.build_system(CrashSchedule(stop_at=k, sites=unit.sites))
        result = system.run(ctx.trace)
        point = result.crash_point
        if point is None:
            raise RuntimeError(f"{unit.describe()}: point {k} did not fire")
        verdicts.append(_verdict(oracles, k, point.site, result.crash_op or 0,
                                 point.cycle, system, result, None))
    return verdicts


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------

def _unit_payload(unit: CheckUnit) -> Dict[str, Any]:
    return {
        "scheme": unit.scheme,
        "mutant": unit.mutant,
        "workload": unit.workload,
        "spec": list(astuple(unit.spec)) if unit.spec is not None else None,
        "entries": unit.entries,
        "prune": unit.prune,
        "sites": list(unit.sites) if unit.sites is not None else None,
        "max_points": unit.max_points,
        "sample_seed": unit.sample_seed,
        # An IR program is reported by name, not by its ops.
        "program": unit.program.name if unit.program is not None else None,
    }


def build_report(
    unit: CheckUnit,
    verdicts: Sequence[PointVerdict],
    total_points: int,
    site_counts: Dict[str, int],
) -> Dict[str, Any]:
    """Fold per-point verdicts into the ``repro.crashcheck/v1`` report."""
    bad = [v for v in verdicts if not v.consistent]
    contract = scheme_info(unit.scheme).contract
    return {
        "schema": CHECK_SCHEMA,
        "unit": _unit_payload(unit),
        "contract": contract,
        "contract_doc": CONTRACT_DOCS[contract],
        "total_points": total_points,
        "checked_points": len(verdicts),
        "site_counts": dict(site_counts),
        "explored": sum(1 for v in verdicts if not v.pruned),
        "pruned": sum(1 for v in verdicts if v.pruned),
        "unique_states": len({v.fingerprint for v in verdicts}),
        "num_violations": len(bad),
        "consistent": not bad,
        "violations": [v._asdict() for v in bad[:MAX_VIOLATIONS_PER_REPORT]],
    }


def run_check_unit(
    unit: CheckUnit, jobs: Optional[int] = None,
) -> Tuple[Dict[str, Any], List[PointVerdict]]:
    """Full model-checking run for one unit: one in-process sweep, folded
    into a report.  Returns ``(report, verdicts)``; verdicts come back in
    point order.  The prune cache is scoped to :data:`POINTS_PER_SHARD`
    points.  ``jobs`` is ignored, since a unit is one sweep; it stays for
    callers that pass it."""
    verdicts, total, site_counts = _explore(unit, POINTS_PER_SHARD)
    return build_report(unit, verdicts, total, site_counts), verdicts


# ----------------------------------------------------------------------
# Smoke check (CI gate)
# ----------------------------------------------------------------------

def _smoke_spec():
    from repro.workloads.base import WorkloadSpec

    return WorkloadSpec(threads=2, ops=6, elements=128, seed=11)


def _replay_mismatches(unit: CheckUnit, verdicts: Sequence[PointVerdict]
                       ) -> List[str]:
    """Diff the sweep's verdicts against real crashes: every
    non-``engine.op`` point and every :data:`SMOKE_REPLAY_OP_STRIDE`-th
    ``engine.op`` point is replayed through ``stop_at=k``."""
    ops = [v for v in verdicts if v.site == SITE_OP]
    sampled = {v.point for v in ops[::SMOKE_REPLAY_OP_STRIDE]}
    chosen = [v for v in verdicts if v.site != SITE_OP or v.point in sampled]
    replayed = replay_points(unit, [v.point for v in chosen])
    return [
        f"{unit.describe()}: point {v.point} ({v.site}): the single-pass "
        f"verdict differs from a real crash there"
        for v, ref in zip(chosen, replayed)
        if v._replace(pruned=False) != ref
    ]


def smoke_check(progress=None) -> Dict[str, Any]:
    """The CI gate: exhaustively check one small workload under every
    shipped scheme (zero violations expected), diff sampled single-pass
    verdicts of every unit against real crashes, assert the pruned run of
    ``bbb`` reports the same per-point verdicts and fingerprints as the
    unpruned run, and assert the broken mutant is caught and minimizes to
    a tiny repro.

    Returns ``{"ok", "failures", "reports"}``; ``ok`` is False on any
    violation, sweep/replay or prune/exhaustive mismatch, or missed
    mutant.  ``progress(done, total)`` is called after each unit.
    """
    from repro.api import SCHEMES

    spec = _smoke_spec()
    failures: List[str] = []
    reports: List[Dict[str, Any]] = []

    units = len(SCHEMES) + 1  # every scheme, then the mutant
    for scheme in SCHEMES:
        unit = CheckUnit(scheme=scheme, spec=spec)
        report, verdicts = run_check_unit(unit)
        reports.append(report)
        if progress is not None:
            progress(len(reports), units)
        failures.extend(_replay_mismatches(unit, verdicts))
        if report["num_violations"]:
            first = report["violations"][0]["violations"][0]
            failures.append(
                f"{unit.describe()}: {report['num_violations']} of "
                f"{report['checked_points']} crash points inconsistent "
                f"(first: {first})"
            )

    pruned_unit = CheckUnit(scheme=DEFAULT_SCHEME, spec=spec, prune=True)
    plain_unit = replace(pruned_unit, prune=False)
    pruned_v, _, _ = explore(pruned_unit)
    plain_v, _, _ = explore(plain_unit)
    if [v._replace(pruned=False) for v in pruned_v] != plain_v:
        failures.append(
            f"{DEFAULT_SCHEME}: pruned run verdicts differ from exhaustive run"
        )

    mutant_unit = CheckUnit(scheme=DEFAULT_SCHEME, mutant="bbb-delayed-alloc",
                            spec=spec)
    mutant_report, mutant_verdicts = run_check_unit(mutant_unit)
    reports.append(mutant_report)
    if progress is not None:
        progress(units, units)
    failures.extend(_replay_mismatches(mutant_unit, mutant_verdicts))
    if not mutant_report["num_violations"]:
        failures.append("mutant bbb-delayed-alloc: no violation found")
    else:
        from repro.check.minimize import minimize_counterexample

        first_bad = next(v for v in mutant_verdicts if not v.consistent)
        cex = minimize_counterexample(mutant_unit, first_bad)
        if cex.num_ops > 6:
            failures.append(
                f"mutant bbb-delayed-alloc: minimized repro has "
                f"{cex.num_ops} ops (> 6)"
            )

    return {"ok": not failures, "failures": failures, "reports": reports}
