"""A tenant-namespaced persistent KV store that lowers requests to ops.

This is the "server" the traffic frontend drives: a chained hashmap per
tenant over the persistent heap (the same structure as the ``hashmap``
workload, which is what makes the serving results comparable to the
batch results), plus the request -> memory-op lowering a server thread
would execute:

* ``read`` — parse scratch traffic, load the bucket head, walk the chain
  (key load per hop, value load on hit).  No persisting stores.
* ``update`` — walk like a read; on hit one persisting store to the
  node's value word.  A miss upserts (falls through to insert).
* ``insert`` — load the head, initialise a fresh node (three persisting
  stores), publish it with a head store — the publish-after-init
  ordering whose crash safety the schemes differ on.

Routing is deterministic: ``key -> bucket`` by hash within the tenant,
``bucket -> core`` by bucket index modulo cores — so a key always lands
on the same core (as a partitioned server would shard it) and repeated
runs of one spec produce identical per-core op streams.

The service keeps a Python-side model (bucket heads, node contents) so
op values are exact, and :meth:`KVService.recovery_scan` walks the
durable chains against it with the same invariant as the hashmap
workload's checker.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.serve.loadgen import (
    OP_INSERT,
    OP_READ,
    OP_UPDATE,
    Request,
    TrafficSpec,
)
from repro.sim.config import MemConfig
from repro.sim.trace import OpKind, TraceOp
from repro.workloads.alloc import PersistentHeap, VolatileHeap
from repro.workloads.base import WORD

__all__ = ["KVService"]

#: node layout: key @0, value @8, next @16 (hashmap workload layout).
_NODE_SIZE = 3 * WORD
#: Volatile request-parsing/serialisation stores per request.
_PARSE_STORES = 4
#: Scratch slots per core.
_SCRATCH_SLOTS = 32
#: The parse step's busy time; ``TraceOp`` is frozen, so one op serves
#: every request.
_PARSE_COMPUTE = TraceOp.compute(4)


class _TenantStore:
    """One tenant's chained hashmap: persistent layout + Python model."""

    __slots__ = ("name", "index", "buckets", "bucket_base", "heads", "nodes")

    def __init__(self, name: str, index: int, buckets: int,
                 pheap: PersistentHeap) -> None:
        self.name = name
        #: Position in the spec's tenant list: offsets the tenant's
        #: bucket -> core placement.
        self.index = index
        self.buckets = buckets
        self.bucket_base = pheap.alloc(buckets * WORD)
        #: bucket index -> newest node addr (0 = empty chain).
        self.heads: Dict[int, int] = {}
        #: node addr -> (key, value, next addr).
        self.nodes: Dict[int, Tuple[int, int, int]] = {}

    def bucket_of(self, key: int) -> int:
        # A deterministic integer mix (not ``hash``: Python randomises
        # str hashes, and determinism across processes is part of the
        # traffic contract).
        mixed = (key * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        return (mixed >> 17) % self.buckets

    def bucket_addr(self, bucket: int) -> int:
        return self.bucket_base + bucket * WORD


class KVService:
    """Request -> (core, ops) lowering over per-tenant chained hashmaps."""

    def __init__(
        self,
        mem: MemConfig,
        spec: TrafficSpec,
        num_cores: int,
    ) -> None:
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        self.mem = mem
        self.spec = spec
        self.num_cores = num_cores
        self.pheap = PersistentHeap(mem)
        self.vheap = VolatileHeap(mem)
        self._scratch = [
            self.vheap.alloc(_SCRATCH_SLOTS * WORD) for _ in range(num_cores)
        ]
        self._stores: Dict[str, _TenantStore] = {}
        for i, tenant in enumerate(spec.tenants):
            buckets = max(8, tenant.keys // 4)
            self._stores[tenant.name] = _TenantStore(
                tenant.name, i, buckets, self.pheap
            )
        #: addr -> the one (frozen) load op of that word, shared by every
        #: request that reads it.
        self._loads: Dict[int, TraceOp] = {}
        self.requests_lowered = 0
        self.persisting_stores = 0
        #: request id -> [(addr, size, value)] persisting footprint, in
        #: lowering (= feed) order; None until enabled (the drill's
        #: acked-durability classifier needs it, plain traffic does not).
        self.persist_log: Optional[Dict[int, List[Tuple[int, int, int]]]] = \
            None

    def enable_persist_log(self) -> None:
        """Record each request's persisting-store footprint as it lowers
        (crash-recovery drills classify requests against it)."""
        self.persist_log = {}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def core_of(self, request: Request) -> int:
        """Deterministic key -> bucket -> core placement."""
        store = self._stores[request.tenant]
        return self._core(store, store.bucket_of(request.key))

    def _core(self, store: _TenantStore, bucket: int) -> int:
        return (bucket + store.index) % self.num_cores

    def _load(self, addr: int) -> TraceOp:
        op = self._loads.get(addr)
        if op is None:
            op = self._loads[addr] = TraceOp(OpKind.LOAD, addr)
        return op

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def ops_for(self, request: Request) -> List[TraceOp]:
        """The memory-op sequence serving ``request`` on its core.

        Mutates the model (inserts/updates), so each request must be
        lowered exactly once, in issue order — the frontend lowers at
        feed time, when the request's position in the global order is
        already fixed.

        Only the stores are built per request, untagged: the load of a
        word and the parse step's compute op are immutable, so one
        instance of each is shared by every request.
        """
        store = self._stores[request.tenant]
        key = request.key
        bucket = store.bucket_of(key)
        scratch = self._scratch[self._core(store, bucket)]
        rid = request.request_id

        # Request parsing / response serialisation: volatile traffic.
        ops = [
            TraceOp(OpKind.STORE,
                    scratch + ((rid + i) % _SCRATCH_SLOTS) * WORD, WORD,
                    (key + i) & 0xFFFFFFFF)
            for i in range(_PARSE_STORES)
        ]
        ops.append(_PARSE_COMPUTE)

        # Every op starts at the bucket head.
        ops.append(self._load(store.bucket_addr(bucket)))

        if request.op == OP_READ:
            self._walk(store, bucket, key, ops)
        elif request.op == OP_UPDATE:
            found = self._walk(store, bucket, key, ops)
            if found is not None:
                value = self._value_of(request)
                ops.append(TraceOp(OpKind.STORE, found + 8, WORD, value))
                _, _, nxt = store.nodes[found]
                store.nodes[found] = (key, value, nxt)
                self.persisting_stores += 1
            else:
                self._insert(store, bucket, request, ops)
        elif request.op == OP_INSERT:
            self._insert(store, bucket, request, ops)
        else:
            raise ValueError(f"unknown request op {request.op!r}")

        self.requests_lowered += 1
        if self.persist_log is not None:
            self.persist_log[rid] = [
                (op.addr, op.size, op.value) for op in ops
                if op.kind is OpKind.STORE and self.mem.is_persistent(op.addr)
            ]
        return ops

    def _value_of(self, request: Request) -> int:
        return ((request.key << 20) ^ request.request_id) & 0xFFFFFFFFFFFF

    def _walk(
        self, store: _TenantStore, bucket: int, key: int, ops: List[TraceOp]
    ) -> Optional[int]:
        """Chain walk: key load per node, value load on the hit.  Returns
        the matching node addr (None = miss)."""
        load = self._load
        nodes = store.nodes
        addr = store.heads.get(bucket, 0)
        while addr:
            node_key, _, nxt = nodes[addr]
            ops.append(load(addr))
            if node_key == key:
                ops.append(load(addr + 8))
                return addr
            ops.append(load(addr + 16))
            addr = nxt
        return None

    def _insert(
        self,
        store: _TenantStore,
        bucket: int,
        request: Request,
        ops: List[TraceOp],
    ) -> None:
        old_head = store.heads.get(bucket, 0)
        node = self.pheap.alloc(_NODE_SIZE)
        value = self._value_of(request)
        ops += (
            TraceOp(OpKind.STORE, node + 0, WORD, request.key),
            TraceOp(OpKind.STORE, node + 8, WORD, value),
            TraceOp(OpKind.STORE, node + 16, WORD, old_head),
            TraceOp(OpKind.STORE, store.bucket_addr(bucket), WORD, node),
        )
        store.heads[bucket] = node
        store.nodes[node] = (request.key, value, old_head)
        self.persisting_stores += 4

    # ------------------------------------------------------------------
    # Recovery (same invariant as the hashmap workload)
    # ------------------------------------------------------------------
    def recovery_scan(self, media) -> Dict[str, object]:
        """The chain-walk repair pass a recovery procedure performs over
        the durable image, as work counters.

        Walks every bucket chain exactly as recovery would: one NVMM read
        per bucket head, three per visited node (key/value/next).  A
        reachable node that is dangling or half-initialised (pointer
        persisted before node contents) ends its chain there and counts
        one *repair* — the head/next rewrite that truncates the chain at
        the last good link.  The scan is read-only (the drill classifies
        requests against the same image afterwards); the counters price
        the pass into RTO:

        ``reads``   NVMM word reads performed,
        ``nodes``   nodes visited,
        ``repairs`` truncating writes a repair pass would issue,
        ``broken``  human-readable descriptions of each truncation.
        """
        buckets = 0
        nodes = 0
        reads = 0
        repairs = 0
        broken: List[str] = []
        for store in self._stores.values():
            for b in range(store.buckets):
                buckets += 1
                baddr = store.bucket_addr(b)
                node = media.read_word(baddr)
                reads += 1
                hops = 0
                while node and hops <= len(store.nodes) + 1:
                    nodes += 1
                    reads += 3
                    model = store.nodes.get(node)
                    if (model is None
                            or media.read_word(node + 0) != model[0]
                            or media.read_word(node + 8) != model[1]):
                        repairs += 1
                        broken.append(
                            f"tenant {store.name}: bucket 0x{baddr:x} chain "
                            f"truncated at 0x{node:x} "
                            f"({'dangling' if model is None else 'uninitialised'})"
                        )
                        break
                    node = media.read_word(node + 16)
                    hops += 1
        return {
            "buckets": buckets,
            "nodes": nodes,
            "reads": reads,
            "repairs": repairs,
            "broken": broken,
        }
