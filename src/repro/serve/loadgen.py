"""Synthetic client-session load generation.

Produces :class:`Request` streams shaped like serving traffic rather than
batch traces:

* **Key skew** — :class:`ZipfSampler` implements the constant-time
  Zipfian generator of Gray et al. ("Quickly Generating Billion-Record
  Synthetic Databases", SIGMOD'94), the same construction YCSB uses, so
  a small set of hot keys absorbs most of the traffic.
* **Operation mix** — YCSB-style read/update/insert fractions per
  tenant.
* **Arrival process** — open loop: Poisson arrivals at a configured
  offered load, independent of completions, which is what
  saturation/tail-latency curves require.
* **Tenants** — weighted namespaces; each request belongs to one tenant
  and reports latency under it.

Everything derives from ``TrafficSpec.seed`` via one ``random.Random``;
generation order is the only consumption contract (requests are yielded
in arrival order).
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
    #: Mean offered load of the Poisson arrivals, requests per 1000
    #: cycles.
    offered_load: float = 1.0
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
        if self.offered_load <= 0:
            raise ValueError("offered_load must be > 0")

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
    #: Absolute arrival cycle.
    arrival: int


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
    """Per-tenant sampling state."""

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


def iter_requests(spec: TrafficSpec) -> Iterator[Request]:
    """The request stream of ``spec``, in arrival order."""
    rng = random.Random(spec.seed)
    states = [_TenantState(t, spec.zipf_theta) for t in spec.tenants]
    cumulative: List[float] = []
    acc = 0.0
    for t in spec.tenants:
        acc += t.weight
        cumulative.append(acc)

    # Poisson process: exponential gaps at the offered load.
    rate = spec.offered_load / 1000.0
    now = 0.0
    for rid in range(spec.requests):
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
