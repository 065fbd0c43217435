"""Deterministic fault plans for the persistence domain.

A :class:`FaultPlan` is plain, hashable, picklable data describing *which*
adversarial perturbations a run is subjected to and *when* they fire.  The
runtime counterpart, :class:`~repro.fault.injector.FaultInjector`, consumes
a plan and is consulted at the named injection sites; everything about a
plan is reproducible from its fields (no hidden RNG state), so a fault
campaign can ship plans to worker processes and replay any outcome exactly.

Injection sites (see docs/robustness.md for the full fault model):

=======================  =================================================
site                     faults
=======================  =================================================
``battery.crash_drain``  ``exhaustion`` — the flush-on-fail battery dies
                         after draining ``blocks`` units (or a ``fraction``
                         of the resident total); the rest never reach NVMM.
``nvmm.write``           ``torn`` — the ``nth`` accepted block write lands
                         only its first ``keep_bytes`` bytes (detected by
                         media ECC unless ``ecc`` is disabled);
                         ``transient`` — the write fails ``failures`` times
                         before succeeding; the controller retries up to
                         its bounded retry limit and reports a detected
                         write failure if the retries are exhausted.
``coherence.forced_drain``  ``drop`` — the LLC->bbPB forced-drain message
                         is lost (the entry stays battery-backed);
                         ``delay`` — delivery is postponed ``cycles``.
``bbpb.entry``           ``corrupt`` — one bit of a resident entry flips;
                         per-entry parity (on unless ``parity`` is
                         disabled) detects it at drain time.
=======================  =================================================

``nth``/``count`` select which visits of a site fire: the fault is active
from the ``nth`` visit (1-based) for ``count`` consecutive visits
(``count=0`` means every visit from ``nth`` on).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Injection-site names (the vocabulary of :class:`FaultSpec.site`).
SITE_BATTERY = "battery.crash_drain"
SITE_NVMM_WRITE = "nvmm.write"
SITE_FORCED_DRAIN = "coherence.forced_drain"
SITE_BBPB_ENTRY = "bbpb.entry"

SITES: Tuple[str, ...] = (
    SITE_BATTERY,
    SITE_NVMM_WRITE,
    SITE_FORCED_DRAIN,
    SITE_BBPB_ENTRY,
)

#: site -> the fault kinds it understands.
SITE_FAULTS: Dict[str, Tuple[str, ...]] = {
    SITE_BATTERY: ("exhaustion",),
    SITE_NVMM_WRITE: ("torn", "transient"),
    SITE_FORCED_DRAIN: ("drop", "delay"),
    SITE_BBPB_ENTRY: ("corrupt",),
}

#: Faults whose *site* lies inside the battery-backed persistence domain
#: (the battery itself, the forced-drain path, the bbPB entries).  The
#: paper's claim is that this domain is safe; under the default detection
#: channels (brown-out flag, parity) the campaign checks that none of
#: these ever produce *silent* corruption.  ``nvmm.write`` is outside the
#: domain: media failures are the NVMM's problem (ECC), not the battery's.
BATTERY_DOMAIN_SITES: Tuple[str, ...] = (
    SITE_BATTERY,
    SITE_FORCED_DRAIN,
    SITE_BBPB_ENTRY,
)


@dataclass(frozen=True)
class FaultSpec:
    """One fault at one site: what fires, when, and with what parameters.

    ``params`` is a tuple of (name, value) pairs so the spec stays hashable
    and picklable; :meth:`param` reads one with a default.
    """

    site: str
    fault: str
    nth: int = 1
    count: int = 1
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.site not in SITE_FAULTS:
            raise ValueError(
                f"unknown fault site {self.site!r}; valid sites: {SITES}"
            )
        if self.fault not in SITE_FAULTS[self.site]:
            raise ValueError(
                f"site {self.site!r} has no fault {self.fault!r}; valid: "
                f"{SITE_FAULTS[self.site]}"
            )
        if self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.count < 0:
            raise ValueError("count must be >= 0 (0 = every visit from nth)")

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    def active_at(self, visit: int) -> bool:
        """Whether the fault fires at the ``visit``-th site visit (1-based)."""
        if visit < self.nth:
            return False
        return self.count == 0 or visit < self.nth + self.count

    def to_dict(self) -> Dict[str, Any]:
        return {
            "site": self.site,
            "fault": self.fault,
            "nth": self.nth,
            "count": self.count,
            "params": {k: v for k, v in self.params},
        }


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of faults applied to one run.

    ``seed`` feeds the injector's private RNG (bit selection for
    corruption); the plan's *structure* is entirely explicit in ``faults``.
    An empty plan is valid and injects nothing.
    """

    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    label: str = ""

    def for_site(self, site: str) -> List[FaultSpec]:
        return [f for f in self.faults if f.site == site]

    def touches_battery_domain_only(self) -> bool:
        return all(f.site in BATTERY_DOMAIN_SITES for f in self.faults)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "seed": self.seed,
            "faults": [f.to_dict() for f in self.faults],
        }


# ----------------------------------------------------------------------
# Seeded plan generation (campaign sweeps, property tests)
# ----------------------------------------------------------------------

def _random_spec(rng: random.Random, site: str) -> FaultSpec:
    fault = rng.choice(SITE_FAULTS[site])
    nth = rng.randint(1, 24)
    count = rng.choice((1, 1, 2, 0))
    params: List[Tuple[str, Any]] = []
    if fault == "exhaustion":
        # Die after a small absolute number of drained units, or a fraction
        # of whatever is resident at crash time.
        if rng.random() < 0.5:
            params.append(("blocks", rng.randint(0, 12)))
        else:
            params.append(("fraction", round(rng.uniform(0.0, 0.9), 2)))
        nth, count = 1, 1  # one battery per crash
    elif fault == "torn":
        params.append(("keep_bytes", rng.randrange(8, 64, 8)))
    elif fault == "transient":
        params.append(("failures", rng.randint(1, 4)))
    elif fault == "delay":
        params.append(("cycles", rng.randint(10, 400)))
    elif fault == "corrupt":
        params.append(("bit", rng.randint(0, 511)))
    return FaultSpec(site=site, fault=fault, nth=nth, count=count,
                     params=tuple(params))


def random_plan(
    seed: int,
    sites: Optional[Sequence[str]] = None,
    max_faults: int = 3,
    label: str = "",
) -> FaultPlan:
    """A deterministic pseudo-random plan: 1..``max_faults`` faults over
    distinct ``sites`` (default: all).  Identical ``(seed, sites,
    max_faults)`` always produce the identical plan."""
    rng = random.Random(seed)
    pool = list(sites if sites is not None else SITES)
    n = rng.randint(1, max(1, min(max_faults, len(pool))))
    chosen = rng.sample(pool, n)
    faults = tuple(_random_spec(rng, site) for site in chosen)
    return FaultPlan(faults=faults, seed=seed,
                     label=label or f"random-{seed}")
