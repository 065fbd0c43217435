"""Crash recovery: golden-model construction and consistency checking.

The engine records every *committed* persisting store (store-buffer
allocation, i.e. the PoP under BBB with a battery-backed SB) and every
*performed* one (L1D write = PoV).  After a crash + battery drain, the
durable NVMM image must satisfy the active scheme's contract:

* **Strict persistency, PoV==PoP closed** (BBB, eADR): the persistent
  region must equal the replay of *all committed* persisting stores —
  nothing in the persistence domain can be lost.
* **Strict persistency at the performed level** (BBB with a *volatile*
  store buffer under relaxed consistency — the broken ablation): only
  performed stores survive, and because they may be out of program order,
  the committed-replay check fails.  That failure is the Section III-C
  motivation for battery-backing the SB.
* **Prefix consistency** (per-core): every durable store implies all
  program-order-earlier stores of the same core are durable.  Volatile-
  cache systems (NoPersistency) violate this because persist order follows
  cache replacement.
* **Epoch consistency** (BEP): the durable image must lie between two
  consecutive epoch-boundary images.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.registry import (
    CONTRACT_EPOCH,
    CONTRACT_EXACT,
    CONTRACT_PREFIX,
    scheme_info,
)
from repro.mem.block import BlockData, block_address, block_offset
from repro.mem.nvmm import NVMMedia
from repro.sim.engine import PersistRecord


@dataclass
class ConsistencyResult:
    """Outcome of a consistency check."""

    consistent: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.consistent

    @staticmethod
    def ok() -> "ConsistencyResult":
        return ConsistencyResult(True)

    @staticmethod
    def fail(*violations: str) -> "ConsistencyResult":
        return ConsistencyResult(False, list(violations))


def replay_image(
    persists: Iterable[PersistRecord], block_size: int = 64
) -> Dict[int, BlockData]:
    """Apply persisting stores in sequence, producing the expected durable
    image (block address -> block data)."""
    image: Dict[int, BlockData] = {}
    for rec in persists:
        baddr = block_address(rec.addr, block_size)
        off = block_offset(rec.addr, block_size)
        image.setdefault(baddr, BlockData()).write_word(off, rec.value, rec.size)
    return image


def _written_offsets(
    persists: Iterable[PersistRecord], block_size: int
) -> Dict[int, Dict[int, None]]:
    """Byte offsets ever written per block — the comparable footprint —
    with blocks and offsets in first-write order."""
    footprint: Dict[int, Dict[int, None]] = {}
    for rec in persists:
        baddr = block_address(rec.addr, block_size)
        off = block_offset(rec.addr, block_size)
        footprint.setdefault(baddr, {}).update(
            dict.fromkeys(range(off, off + rec.size)))
    return footprint


def check_exact_durability(
    media: NVMMedia,
    persists: Sequence[PersistRecord],
    block_size: int = 64,
) -> ConsistencyResult:
    """Strict check: *every* persisting store in ``persists`` is durable.

    This is the contract of schemes with a closed PoV/PoP gap (BBB, eADR)
    and of hardware-strict PMEM at op granularity: a crash plus battery
    drain preserves the complete committed prefix.
    """
    violations = exact_durability_violations(
        media, replay_image(persists, block_size),
        _written_offsets(persists, block_size),
    )
    if violations:
        return ConsistencyResult(False, violations)
    return ConsistencyResult.ok()


def exact_durability_violations(
    media: NVMMedia,
    expected: Dict[int, BlockData],
    footprint: Dict[int, Iterable[int]],
) -> List[str]:
    """The mismatches :func:`check_exact_durability` reports: for each
    block of ``footprint`` (block address -> the offsets the persists
    wrote, in first-write order), the first offset whose durable byte
    differs from ``expected``.  ``expected`` may hold more than the
    replay (the crash checker passes its seeded golden image, which
    agrees with the replay on every footprint byte)."""
    violations: List[str] = []
    for baddr, offsets in footprint.items():
        want = expected[baddr]
        got = media.peek_block(baddr)
        if got.value == want.value:
            continue
        for off in offsets:
            if got.read(off) != want.read(off):
                violations.append(
                    f"block 0x{baddr:x}+{off}: durable={got.read(off):#x} "
                    f"expected={want.read(off):#x}"
                )
                break
    return violations


def check_prefix_consistency(
    media: NVMMedia,
    persists: Sequence[PersistRecord],
    block_size: int = 64,
) -> ConsistencyResult:
    """Per-core prefix check: if a store is durable, all program-order
    earlier persisting stores of the same core must be durable too.

    The check requires each byte to be written at most once per core (the
    canonical write-once recovery pattern — e.g. appending nodes then
    publishing a pointer); re-written bytes are skipped because an older
    value being overwritten is not observable.  It is exactly the property
    a volatile cache hierarchy violates when a later store (the "head
    pointer") is evicted — and thus persisted — before an earlier one (the
    "node").
    """
    per_core: Dict[int, List[PersistRecord]] = {}
    for rec in persists:
        per_core.setdefault(rec.core, []).append(rec)

    write_counts: Dict[Tuple[int, int], int] = {}
    for rec in persists:
        baddr = block_address(rec.addr, block_size)
        off = block_offset(rec.addr, block_size)
        for i in range(rec.size):
            key = (baddr, off + i)
            write_counts[key] = write_counts.get(key, 0) + 1

    def durable(rec: PersistRecord) -> Optional[bool]:
        """True/False if determinable; None if indeterminate.

        Indeterminate cases: any byte multi-written (an older value being
        overwritten is unobservable), or an all-zero stored value (media
        reads unwritten bytes as zero, so a zero store "matching" proves
        nothing).
        """
        value = rec.value & ((1 << (8 * rec.size)) - 1)
        if value == 0:
            return None
        baddr = block_address(rec.addr, block_size)
        off = block_offset(rec.addr, block_size)
        for i in range(rec.size):
            if write_counts[(baddr, off + i)] > 1:
                return None
        return media.read_word(rec.addr, rec.size) == value

    violations: List[str] = []
    for core, recs in per_core.items():
        seen_missing: Optional[PersistRecord] = None
        for rec in recs:
            d = durable(rec)
            if d is None:
                continue
            if not d:
                if seen_missing is None:
                    seen_missing = rec
            elif seen_missing is not None:
                violations.append(
                    f"core {core}: store seq={rec.seq} (addr 0x{rec.addr:x}) is "
                    f"durable but earlier seq={seen_missing.seq} "
                    f"(addr 0x{seen_missing.addr:x}) is not — persist order "
                    f"violated"
                )
    if violations:
        return ConsistencyResult(False, violations)
    return ConsistencyResult.ok()


def check_epoch_consistency(
    media: NVMMedia,
    epochs: Sequence[Sequence[PersistRecord]],
    block_size: int = 64,
) -> ConsistencyResult:
    """Epoch-granularity check for BEP (single-threaded form).

    The durable image must be explainable as: all epochs ``< k`` fully
    durable, plus an arbitrary per-block subset of epoch ``k``, for some
    ``k``.  Each durable block value must therefore match the replay image
    at epoch boundary ``k-1`` or ``k``.
    """
    boundary_images: List[Dict[int, BlockData]] = [{}]
    acc: List[PersistRecord] = []
    for epoch in epochs:
        acc.extend(epoch)
        boundary_images.append(replay_image(acc, block_size))

    footprint = _written_offsets(acc, block_size)

    def block_matches(baddr: int, image: Dict[int, BlockData]) -> bool:
        got = media.peek_block(baddr)
        exp = image.get(baddr, BlockData())
        return all(got.read(off) == exp.read(off) for off in footprint[baddr])

    for k in range(len(boundary_images)):
        lo = boundary_images[max(0, k - 1)]
        hi = boundary_images[k]
        if all(
            block_matches(baddr, lo) or block_matches(baddr, hi)
            for baddr in footprint
        ):
            return ConsistencyResult.ok()
    return ConsistencyResult.fail(
        "durable image does not match any epoch boundary (± one epoch's "
        "partial drain)"
    )


# ----------------------------------------------------------------------
# Fault-campaign outcome taxonomy
# ----------------------------------------------------------------------

class Outcome(str, enum.Enum):
    """Classification of one crash recovery under (possible) fault
    injection — the vocabulary of the ``repro faults`` campaign.

    * ``CONSISTENT`` — the durable image satisfies the scheme's contract;
      the fault (if any fired) was absorbed.
    * ``DETECTED_INCONSISTENT`` — the contract is violated, but at least
      one modelled hardware channel (ECC, parity, brown-out, machine
      check) flagged a fault: recovery *knows* the state is damaged.
    * ``SILENT_CORRUPTION`` — the contract is violated and nothing
      noticed.  The worst case; only reachable when a plan disables a
      detection channel, and never for battery-domain faults under the
      default channels.
    * ``BASELINE_INCONSISTENT`` — the same (scheme, workload, crash
      point) violates the contract *without* any fault injected: the
      scheme simply does not provide this consistency level (``none``,
      ``bep`` mid-epoch), so the faulted run's failure says nothing about
      fault handling.
    """

    CONSISTENT = "consistent"
    DETECTED_INCONSISTENT = "detected-inconsistent"
    SILENT_CORRUPTION = "silent-corruption"
    BASELINE_INCONSISTENT = "baseline-inconsistent"


#: Contract name -> one-paragraph description of what the contract
#: promises, embedded into fault-campaign and model-checker reports so a
#: report file is self-describing.
CONTRACT_DOCS: Dict[str, str] = {
    CONTRACT_EXACT: (
        "Every committed persisting store is durable byte-for-byte after a "
        "crash (PoV == PoP: battery-backed buffers or synchronous flushes "
        "close the visibility/persistence gap)."
    ),
    CONTRACT_PREFIX: (
        "Per-core prefix consistency only: each core's persisting stores "
        "reach NVMM in order, but an arbitrary suffix may be lost and "
        "cross-core interleavings are unconstrained.  Write-once locations "
        "must hold either the written value or indeterminate zeros."
    ),
    CONTRACT_EPOCH: (
        "Epoch-granularity consistency (buffered epoch persistency): all "
        "epochs before some k are fully durable plus an arbitrary per-block "
        "subset of epoch k.  Within an epoch, coalescing may persist stores "
        "out of program order — no prefix guarantee.  Epoch boundaries are "
        "not recorded per persist, so the checker conservatively treats the "
        "whole run as one epoch."
    ),
}


def claimed_persists(scheme_name: str, result) -> list:
    """The persist records a scheme *claims* are durable at a crash point.

    Most schemes place the point of persistence at store commit (battery
    covers the rest), so their claim is ``result.committed_persists``.
    Schemes whose registry descriptor says ``pop_at_flush`` (strict
    persistency via hardware flushes) instead place PoP at WPQ acceptance:
    a store that has committed but whose flush has not been accepted by
    the ADR domain is *not* yet claimed durable, so their claim is
    ``result.performed_persists``.  Checking a strict scheme against its
    committed set at an arbitrary micro-step would report the current
    in-flight store as "lost" when the scheme never promised it.
    """
    if scheme_info(scheme_name).pop_at_flush:
        return list(result.performed_persists)
    return list(result.committed_persists)


def check_scheme_contract(
    scheme_name: str,
    media: NVMMedia,
    committed_persists: Sequence[PersistRecord],
    block_size: int = 64,
) -> ConsistencyResult:
    """Apply the contract checker the scheme registry declares for
    ``scheme_name`` to a crashed run's durable image."""
    try:
        info = scheme_info(scheme_name)
    except ValueError:
        raise ValueError(
            f"no consistency contract registered for scheme {scheme_name!r}"
        ) from None
    if info.exact_durability:
        return check_exact_durability(media, committed_persists, block_size)
    if info.contract == CONTRACT_EPOCH:
        # PersistRecord carries no epoch id, so the whole run is one
        # epoch: the image must be a per-block subset of the final replay
        # (see CONTRACT_DOCS["epoch"] for the conservativeness argument).
        return check_epoch_consistency(
            media, [list(committed_persists)], block_size
        )
    return check_prefix_consistency(media, committed_persists, block_size)


def classify_outcome(
    contract: ConsistencyResult,
    detected: bool,
    baseline_consistent: bool = True,
) -> Outcome:
    """Fold a contract check, the detection evidence, and the fault-free
    baseline into one :class:`Outcome` (see the enum for semantics)."""
    if contract.consistent:
        return Outcome.CONSISTENT
    if not baseline_consistent:
        return Outcome.BASELINE_INCONSISTENT
    if detected:
        return Outcome.DETECTED_INCONSISTENT
    return Outcome.SILENT_CORRUPTION


# ----------------------------------------------------------------------
# Request-level durability taxonomy (crash-recovery drills)
# ----------------------------------------------------------------------

#: Classification of one client request against the post-crash durable
#: image — the serving-layer analog of the contract checks above.  The
#: axes are what the *client* observed (acked or not) crossed with what
#: the *media* retained (the request's persisting effects durable or not):
#:
#: * ``acked-durable`` — the client saw a completion and every persisting
#:   effect survived.  The only acceptable fate for an acked request
#:   under a PoV==PoP scheme.
#: * ``acked-lost`` — the client saw a completion but some persisting
#:   effect did NOT survive the crash.  This is the RPO violation: data a
#:   client was told is safe is gone.  Battery-domain schemes (bbb, eadr)
#:   must never produce it.
#: * ``unacked-lost`` — the client never saw a completion and the
#:   request's effects are (at least partially) gone.  Expected: the
#:   client will retry against the recovered service.
#: * ``retried-duplicate`` — the client never saw a completion yet every
#:   persisting effect IS durable: a retry after recovery would re-apply
#:   an already-persisted update.  Not a durability loss, but the reason
#:   real services need idempotent request ids.
ACKED_DURABLE = "acked-durable"
ACKED_LOST = "acked-lost"
UNACKED_LOST = "unacked-lost"
RETRIED_DUPLICATE = "retried-duplicate"
REQUEST_OUTCOMES = (ACKED_DURABLE, ACKED_LOST, UNACKED_LOST,
                    RETRIED_DUPLICATE)


@dataclass(frozen=True)
class RequestVerdict:
    """One request's fate across a crash: client-visible acknowledgement
    vs. media-level durability, plus the lost persisting stores (the RPO
    evidence) when the two disagree."""

    request_id: int
    tenant: str
    op: str
    acked: bool
    outcome: str
    lost_stores: Tuple[Tuple[int, int, int], ...] = ()  # (addr, size, value)

    @property
    def lost_bytes(self) -> int:
        return sum(size for _, size, _ in self.lost_stores)


def classify_request(
    acked: bool, durable: bool, persisted_effects: bool
) -> str:
    """Fold the 2x2 of (client acked, effects durable) into a request
    outcome.  ``persisted_effects`` distinguishes a vacuously "durable"
    request with no persisting stores at all (reads, never-dispatched
    requests) from one whose stores genuinely all survived: only the
    latter can be a ``retried-duplicate``."""
    if acked:
        return ACKED_DURABLE if durable else ACKED_LOST
    if durable and persisted_effects:
        return RETRIED_DUPLICATE
    return UNACKED_LOST


def lost_request_stores(
    media: NVMMedia,
    stores: Sequence[Tuple[int, int, int]],
    request_id: int,
    last_writer: Dict[int, int],
) -> List[Tuple[int, int, int]]:
    """The subset of a request's persisting stores provably lost by a
    crash.

    ``stores`` is the request's persisting footprint as ``(addr, size,
    value)`` word stores; ``last_writer`` maps each address to the request
    that issued the last *committed* write to it (commit order — under
    TSO, per-address commit order equals per-core program order, and the
    KV service routes every writer of an address to the same core).  Only
    addresses where *this* request is the last committed writer are
    checkable: anything later overwritten is unobservable, exactly like
    the multi-written-byte skip in :func:`check_prefix_consistency`.  An
    address this request wrote but never committed is not claimed by any
    scheme and therefore not evidence of loss.
    """
    lost: List[Tuple[int, int, int]] = []
    for addr, size, value in stores:
        if last_writer.get(addr) != request_id:
            continue
        mask = (1 << (8 * size)) - 1
        if media.read_word(addr, size) != (value & mask):
            lost.append((addr, size, value))
    return lost
