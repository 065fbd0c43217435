"""Load-generator tests: spec validation, determinism, skew, mixes,
Poisson arrivals."""

import random
from collections import Counter

import pytest

from repro.serve.loadgen import (OP_KINDS, Request, TenantSpec, TrafficSpec,
                                 ZipfSampler, iter_requests)


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------

def test_tenant_fractions_must_sum_to_one():
    with pytest.raises(ValueError, match="sum to 1"):
        TenantSpec("t", read_fraction=0.5, update_fraction=0.5,
                   insert_fraction=0.5)


@pytest.mark.parametrize("kwargs", [
    {"requests": 0},
    {"tenants": ()},
    {"tenants": (TenantSpec("a"), TenantSpec("a"))},
    {"zipf_theta": 1.0},
    {"offered_load": 0.0},
])
def test_traffic_spec_validation(kwargs):
    with pytest.raises(ValueError):
        TrafficSpec(**kwargs)


def test_with_load_replaces_only_the_load():
    spec = TrafficSpec(requests=10, seed=3)
    hot = spec.with_load(8.0)
    assert hot.offered_load == 8.0
    assert hot.requests == spec.requests and hot.seed == spec.seed


# ----------------------------------------------------------------------
# Determinism and shape
# ----------------------------------------------------------------------

def _spec(**kw):
    defaults = dict(requests=400, seed=11)
    defaults.update(kw)
    return TrafficSpec(**defaults)


def test_iter_requests_is_deterministic():
    spec = _spec()
    assert list(iter_requests(spec)) == list(iter_requests(spec))
    assert list(iter_requests(spec)) != list(
        iter_requests(_spec(seed=12))
    )


def test_open_loop_arrivals_are_monotone():
    reqs = list(iter_requests(_spec()))
    assert len(reqs) == 400
    assert all(isinstance(r, Request) for r in reqs)
    arrivals = [r.arrival for r in reqs]
    assert arrivals == sorted(arrivals)
    assert {r.op for r in reqs} <= set(OP_KINDS)


def test_offered_load_scales_arrival_density():
    slow = list(iter_requests(_spec(offered_load=0.5)))[-1].arrival
    fast = list(iter_requests(_spec(offered_load=8.0)))[-1].arrival
    # 16x the load should compress the span by an order of magnitude.
    assert fast * 4 < slow


def test_tenant_weights_shape_the_mix():
    spec = _spec(requests=2000, tenants=(
        TenantSpec("big", weight=9.0), TenantSpec("small", weight=1.0),
    ))
    counts = Counter(r.tenant for r in iter_requests(spec))
    assert counts["big"] > counts["small"] * 4


def test_op_mix_tracks_fractions():
    spec = _spec(requests=3000, tenants=(
        TenantSpec("t", read_fraction=0.9, update_fraction=0.1,
                   insert_fraction=0.0),
    ))
    counts = Counter(r.op for r in iter_requests(spec))
    assert counts["read"] > counts["update"] * 5
    assert counts.get("insert", 0) == 0


def test_insert_keys_grow_the_keyspace():
    spec = _spec(requests=500, tenants=(
        TenantSpec("t", keys=64, read_fraction=0.0, update_fraction=0.0,
                   insert_fraction=1.0),
    ))
    keys = [r.key for r in iter_requests(spec)]
    assert keys == list(range(64, 64 + 500))


# ----------------------------------------------------------------------
# Zipf sampler
# ----------------------------------------------------------------------

def test_zipf_skew_concentrates_on_hot_ranks():
    rng = random.Random(7)
    sampler = ZipfSampler(1000, 0.99)
    draws = Counter(sampler.sample(rng) for _ in range(5000))
    hot = sum(draws[r] for r in range(10))
    assert hot > 5000 * 0.4           # top-1% of keys absorb >40%
    assert max(draws) < sampler.n     # in range


def test_zipf_theta_zero_is_uniform():
    rng = random.Random(7)
    sampler = ZipfSampler(100, 0.0)
    draws = Counter(sampler.sample(rng) for _ in range(10000))
    assert max(draws.values()) < 10000 * 0.05


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0, 0.5)
    with pytest.raises(ValueError):
        ZipfSampler(10, 1.0)
