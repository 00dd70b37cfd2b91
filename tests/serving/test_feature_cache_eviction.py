"""Byte-level pin of the per-chip feature caches under eviction pressure.

The default ``feature_cache_size`` (8,192 entries) exceeds every vertex
count the serving fixtures use (IB has 2,647), so no other committed test
ever evicts a feature-cache entry.  Each case below shrinks the cache until
it does -- including below the size of one fused batch, where a batch
evicts its own earlier vertices -- and hashes the JSON report, whose
latencies, per-chip feature hits and consistency counters all depend on
which entries survived and in what LRU order.

Regenerate (only for an intentional change of the numbers) with::

    PYTHONPATH=src python tests/serving/test_feature_cache_eviction.py
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.graphs import load_dataset
from repro.models.model_zoo import clear_workloads_cache
from repro.serving.fleet import FleetConfig, clear_probe_cache, run_serving
from repro.serving.sharding import ShardingConfig, clear_shard_plan_cache
from repro.serving.streaming import clear_update_stream_cache
from repro.serving.tenancy import load_tenant_specs, run_multi_tenant

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "fixtures", "feature_cache_eviction_digests.json")
TENANTS_JSON = os.path.join(HERE, os.pardir, os.pardir, "examples",
                            "tenants.json")
REQUESTS = 1500
#: examples/tenants.json scaled to 1,500 requests per shared run
TENANT_REQUESTS = {"recsys": 1200, "citations": 300}


def _single(feature_cache_size, seed, **kwargs):
    config = FleetConfig(num_chips=kwargs.pop("num_chips", 2),
                         batch_policy="fifo", cache_size=0,
                         feature_cache_size=feature_cache_size,
                         sharding=kwargs.pop("sharding", None))
    return run_serving(dataset="IB", num_requests=REQUESTS, config=config,
                       seed=seed, **kwargs)


def _tenants(feature_cache_size):
    specs = [dataclasses.replace(spec,
                                 num_requests=TENANT_REQUESTS[spec.name])
             for spec in load_tenant_specs(TENANTS_JSON)]
    return run_multi_tenant(
        specs, FleetConfig(num_chips=2,
                           feature_cache_size=feature_cache_size),
        include_isolation_baseline=False)


CASES = {
    # evicting, but every fused batch fits in the cache
    "single-1024": lambda: _single(1024, seed=1),
    # a fused batch (~500 vertices) overflows the cache by itself
    "single-300": lambda: _single(300, seed=2),
    "sharded-locality-256": lambda: _single(
        256, seed=3, sharding=ShardingConfig(num_shards=2,
                                             partitioner="locality")),
    # (tenant, vertex) keys of two graphs competing for one LRU order
    "tenants-512": lambda: _tenants(512),
    # version stamps, targeted invalidation and stale-feature lag sums
    "streaming-targeted-512": lambda: _single(
        512, seed=4, update_rate=0.2, invalidation="targeted"),
    "streaming-none-512": lambda: _single(
        512, seed=5, update_rate=0.2, invalidation="none"),
}


def _digest(case: str) -> str:
    """Run ``case`` from cold process memos and hash its report."""
    for clear in (clear_probe_cache, clear_workloads_cache,
                  clear_shard_plan_cache, clear_update_stream_cache,
                  load_dataset.cache_clear):
        clear()
    report = CASES[case]().to_dict()
    text = json.dumps(report, sort_keys=True, indent=2, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_feature_cache_eviction_matches_golden_digest(case):
    with open(FIXTURE) as handle:
        expected = json.load(handle)[case]
    assert _digest(case) == expected, (
        f"{case}: the feature-cache eviction run diverged from the "
        f"committed digest")


if __name__ == "__main__":
    payload = {case: _digest(case) for case in sorted(CASES)}
    with open(FIXTURE, "w") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {FIXTURE} ({len(payload)} cases)")
