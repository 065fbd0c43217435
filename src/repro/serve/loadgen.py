"""Synthetic client-session load generation.

Produces :class:`Request` streams shaped like serving traffic rather than
batch traces:

* **Key skew** — :class:`ZipfSampler` implements the constant-time
  Zipfian generator of Gray et al. ("Quickly Generating Billion-Record
  Synthetic Databases", SIGMOD'94), the same construction YCSB uses, so
  a small set of hot keys absorbs most of the traffic.
* **Operation mix** — YCSB-style read/update/insert fractions per
  tenant.
* **Arrival process** — open loop (Poisson arrivals at a configured
  offered load, independent of completions) or closed loop (a fixed
  client population with exponential think times; issue rate adapts to
  service capacity).  Open-loop is what saturation/tail-latency curves
  require; closed-loop is what an interactive service sees.
* **Bursts** — a periodic multiplicative rate surge (open loop), the
  classic diurnal/batch-arrival overload shape.
* **Tenants** — weighted namespaces; each request belongs to one tenant
  and reports latency under it.

Everything derives from ``TrafficSpec.seed`` via one ``random.Random``;
generation order is the only consumption contract (requests are yielded
in arrival order for open loop and issue order for closed loop).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = [
    "OP_INSERT",
    "OP_KINDS",
    "OP_READ",
    "OP_UPDATE",
    "Request",
    "TenantSpec",
    "TrafficSpec",
    "ZipfSampler",
    "iter_requests",
]

OP_READ = "read"
OP_UPDATE = "update"
OP_INSERT = "insert"
OP_KINDS = (OP_READ, OP_UPDATE, OP_INSERT)

ARRIVAL_OPEN = "open"
ARRIVAL_CLOSED = "closed"
_ARRIVALS = (ARRIVAL_OPEN, ARRIVAL_CLOSED)


@dataclass(frozen=True)
class TenantSpec:
    """One namespace of the service."""

    name: str
    #: Relative share of the request stream.
    weight: float = 1.0
    #: Keyspace size (insert keys are drawn beyond it, growing the space).
    keys: int = 1024
    #: YCSB-style mix; the three must sum to 1 (within float tolerance).
    read_fraction: float = 0.70
    update_fraction: float = 0.25
    insert_fraction: float = 0.05

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be > 0")
        if self.keys < 1:
            raise ValueError(f"tenant {self.name!r}: keys must be >= 1")
        total = self.read_fraction + self.update_fraction + self.insert_fraction
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(
                f"tenant {self.name!r}: read+update+insert fractions must "
                f"sum to 1, got {total}"
            )


@dataclass(frozen=True)
class TrafficSpec:
    """Everything that defines one synthetic traffic run."""

    #: Total requests to issue across all tenants.
    requests: int = 200
    tenants: Tuple[TenantSpec, ...] = (TenantSpec("default"),)
    #: Zipf skew parameter theta in [0, 1): 0 = uniform, 0.99 = YCSB hot.
    zipf_theta: float = 0.9
    #: ``open`` (Poisson arrivals at ``offered_load``) or ``closed``
    #: (``clients`` with exponential ``think_cycles`` think time).
    arrival: str = ARRIVAL_OPEN
    #: Open loop: mean offered load, requests per 1000 cycles.
    offered_load: float = 1.0
    #: Closed loop: client population size.
    clients: int = 8
    #: Closed loop: mean think time between a completion and the client's
    #: next request, in cycles.
    think_cycles: int = 500
    #: Open-loop burst phases: every ``burst_every`` cycles the arrival
    #: rate is multiplied by ``burst_factor`` for ``burst_len`` cycles
    #: (0 = no bursts).
    burst_every: int = 0
    burst_len: int = 0
    burst_factor: float = 4.0
    seed: int = 42

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if not 0.0 <= self.zipf_theta < 1.0:
            raise ValueError(
                f"zipf_theta must be in [0, 1), got {self.zipf_theta}"
            )
        if self.arrival not in _ARRIVALS:
            raise ValueError(
                f"arrival must be one of {_ARRIVALS}, got {self.arrival!r}"
            )
        if self.offered_load <= 0:
            raise ValueError("offered_load must be > 0")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.think_cycles < 0:
            raise ValueError("think_cycles must be >= 0")
        if self.burst_every < 0 or self.burst_len < 0:
            raise ValueError("burst_every/burst_len must be >= 0")
        if self.burst_every and self.burst_len >= self.burst_every:
            raise ValueError("burst_len must be shorter than burst_every")
        if self.burst_factor <= 0:
            raise ValueError("burst_factor must be > 0")

    @property
    def open_loop(self) -> bool:
        return self.arrival == ARRIVAL_OPEN

    def with_load(self, offered_load: float) -> "TrafficSpec":
        """The same spec at a different offered load (curve sweeps)."""
        import dataclasses
        return dataclasses.replace(self, offered_load=offered_load)


@dataclass(frozen=True)
class Request:
    """One client request (no memory ops yet — the service lowers it)."""

    request_id: int
    tenant: str
    op: str
    key: int
    #: Open loop: absolute arrival cycle.  Closed loop: 0 (the client's
    #: issue time emerges from completions; the frontend stamps it).
    arrival: int = 0
    #: Closed loop: issuing client index (open loop: -1).
    client: int = -1


class ZipfSampler:
    """Constant-time Zipfian ranks over ``[0, n)`` (Gray et al.).

    ``theta = 0`` degenerates to uniform.  The zeta constants cost one
    O(n) pass at construction; each sample is O(1) after that.
    """

    def __init__(self, n: int, theta: float) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0.0 <= theta < 1.0:
            raise ValueError(f"theta must be in [0, 1), got {theta}")
        self.n = n
        self.theta = theta
        if theta == 0.0 or n == 1:
            self._uniform = True
            return
        self._uniform = False
        self._alpha = 1.0 / (1.0 - theta)
        self._zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5 ** theta
        self._eta = (
            (1.0 - (2.0 / n) ** (1.0 - theta))
            / (1.0 - zeta2 / self._zetan)
        )

    def sample(self, rng: random.Random) -> int:
        """Draw a rank in ``[0, n)``; rank 0 is the hottest."""
        if self._uniform:
            return rng.randrange(self.n)
        u = rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        rank = int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)
        return min(rank, self.n - 1)


class _TenantState:
    """Per-tenant sampling state shared by both arrival modes."""

    __slots__ = ("spec", "zipf", "next_key")

    def __init__(self, spec: TenantSpec, theta: float) -> None:
        self.spec = spec
        self.zipf = ZipfSampler(spec.keys, theta)
        #: Inserts allocate fresh keys above the initial keyspace.
        self.next_key = spec.keys

    def draw(self, rng: random.Random) -> Tuple[str, int]:
        """(op kind, key) for one request of this tenant."""
        r = rng.random()
        if r < self.spec.read_fraction:
            return OP_READ, self.zipf.sample(rng)
        if r < self.spec.read_fraction + self.spec.update_fraction:
            return OP_UPDATE, self.zipf.sample(rng)
        key = self.next_key
        self.next_key += 1
        return OP_INSERT, key


def _pick_tenant(
    rng: random.Random, states: List[_TenantState], cumulative: List[float]
) -> _TenantState:
    r = rng.random() * cumulative[-1]
    for i, bound in enumerate(cumulative):
        if r < bound:
            return states[i]
    return states[-1]


def _burst_rate(spec: TrafficSpec, now: float) -> float:
    """Offered load (requests/kilocycle) in effect at cycle ``now``."""
    rate = spec.offered_load
    if spec.burst_every and spec.burst_len:
        if (now % spec.burst_every) < spec.burst_len:
            rate *= spec.burst_factor
    return rate


def iter_requests(spec: TrafficSpec) -> Iterator[Request]:
    """The request stream of ``spec``, in arrival order (open loop) or
    draw order (closed loop — the frontend stamps issue times as clients
    become ready)."""
    rng = random.Random(spec.seed)
    states = [_TenantState(t, spec.zipf_theta) for t in spec.tenants]
    cumulative: List[float] = []
    acc = 0.0
    for t in spec.tenants:
        acc += t.weight
        cumulative.append(acc)

    if spec.open_loop:
        now = 0.0
        for rid in range(spec.requests):
            # Poisson process with a piecewise-constant (burst) rate:
            # exponential gap at the rate in effect when the gap starts.
            rate = _burst_rate(spec, now) / 1000.0
            now += rng.expovariate(rate)
            state = _pick_tenant(rng, states, cumulative)
            op, key = state.draw(rng)
            yield Request(
                request_id=rid,
                tenant=state.spec.name,
                op=op,
                key=key,
                arrival=int(now),
            )
    else:
        for rid in range(spec.requests):
            client = rid % spec.clients
            state = _pick_tenant(rng, states, cumulative)
            op, key = state.draw(rng)
            yield Request(
                request_id=rid,
                tenant=state.spec.name,
                op=op,
                key=key,
                client=client,
            )


def think_time(spec: TrafficSpec, rng: random.Random) -> int:
    """One exponential closed-loop think-time draw (mean
    ``spec.think_cycles``)."""
    if spec.think_cycles == 0:
        return 0
    return int(rng.expovariate(1.0 / spec.think_cycles))
