"""Byte-level pin of the serving event loop over a small scenario matrix.

Every case below runs one single-tenant (``run_serving``) or multi-tenant
(``run_multi_tenant``, ``examples/tenants.json`` scaled down) scenario and
hashes what it produced: the JSON report, and for instrumented runs the
``trace_report`` of the span trace plus the scraped metric rows.  The
digests committed in ``fixtures/loop_golden_digests.json`` must match
bit for bit, so a refactor of the event loop, its dispatch stages or any
hook it drives (control plane, heterogeneous dispatch, sharding,
streaming updates, observability) cannot shift a number unnoticed.

When a change *intentionally* alters the numbers, regenerate with::

    PYTHONPATH=src python tests/serving/test_loop_golden.py

and commit the diff alongside the change that explains it.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.graphs import load_dataset
from repro.models.model_zoo import clear_workloads_cache
from repro.serving.control import ControlConfig
from repro.serving.fleet import FleetConfig, clear_probe_cache, run_serving
from repro.serving.hetero import FleetSpec, ShapeSpec
from repro.serving.observe import Instrumentation, trace_report
from repro.serving.sharding import ShardingConfig, clear_shard_plan_cache
from repro.serving.streaming import clear_update_stream_cache
from repro.serving.tenancy import load_tenant_specs, run_multi_tenant

HERE = os.path.dirname(__file__)
FIXTURE = os.path.join(HERE, "fixtures", "loop_golden_digests.json")
TENANTS_JSON = os.path.join(HERE, os.pardir, os.pardir, "examples",
                            "tenants.json")

MIXED = FleetSpec(shapes=(ShapeSpec(preset="agg_heavy", count=1),
                          ShapeSpec(preset="comb_heavy", count=1)))
#: a twitchy autoscaler plus the admission/degradation gate
ELASTIC = ControlConfig(autoscale="threshold", min_chips=1, max_chips=4,
                        admission=True, degrade=True,
                        policy_params={"patience": 1})
#: one small cache-free chip under a tight SLO, so a ramp overloads it
OVERLOADED = FleetConfig(num_chips=1, num_hops=1, fanout=4, max_batch_size=16,
                         cache_size=0, reuse_discount=0.0, slo_s=3e-6)
SHARDED = ShardingConfig(num_shards=2, partitioner="locality")
#: examples/tenants.json scaled to 160 requests per shared run
TENANT_REQUESTS = {"recsys": 120, "citations": 40}


def _single(config, seed, observe=None, **kwargs):
    return run_serving(dataset="IB", num_requests=kwargs.pop("requests", 160),
                       config=config, seed=seed, observe=observe, **kwargs)


def _tenants(fleet, observe=None, policies=None, **kwargs):
    specs = [dataclasses.replace(
        spec, num_requests=TENANT_REQUESTS[spec.name],
        batch_policy=(policies or {}).get(spec.name, spec.batch_policy))
        for spec in load_tenant_specs(TENANTS_JSON)]
    return run_multi_tenant(specs, fleet, observe=observe, **kwargs)


#: case name -> (runner, instrumented).  Each runner takes the observe hub
#: (``None`` for uninstrumented cases) and returns the report.
CASES = {
    "single-fifo": (lambda obs: _single(
        FleetConfig(num_chips=2, batch_policy="fifo", cache_size=0),
        seed=1), False),
    "single-continuous-cached": (lambda obs: _single(
        FleetConfig(num_chips=2, batch_policy="continuous",
                    batch_timeout_s=5e-7), seed=2,
        popularity_skew=1.2, utilization_target=1.2), False),
    "single-elastic": (lambda obs: _single(
        OVERLOADED, seed=3, requests=200, arrival="ramp", peak_factor=6.0,
        utilization_target=2.0, control=ELASTIC), False),
    "single-shape-aware": (lambda obs: _single(
        FleetConfig(fleet_spec=MIXED, dispatch="shape-aware", cache_size=0),
        seed=4), False),
    "single-sharded-locality": (lambda obs: _single(
        FleetConfig(num_chips=2, sharding=SHARDED), seed=5), False),
    "single-streaming-targeted": (lambda obs: _single(
        FleetConfig(num_chips=2), seed=6, update_rate=0.2,
        invalidation="targeted"), False),
    "single-instrumented": (lambda obs: _single(
        dataclasses.replace(OVERLOADED, batch_policy="overlap"), seed=7,
        observe=obs, arrival="ramp", peak_factor=6.0,
        utilization_target=2.0, control=ELASTIC), True),
    "tenants-wfq": (lambda obs: _tenants(FleetConfig(num_chips=2)), False),
    "tenants-continuous": (lambda obs: _tenants(
        FleetConfig(num_chips=2), utilization_target=2.0,
        policies={"recsys": "continuous", "citations": "continuous"}),
        False),
    "tenants-elastic": (lambda obs: _tenants(
        FleetConfig(num_chips=1), utilization_target=1.5,
        control=ELASTIC), False),
    "tenants-shape-aware": (lambda obs: _tenants(
        FleetConfig(fleet_spec=MIXED, dispatch="shape-aware")), False),
    "tenants-sharded": (lambda obs: _tenants(
        FleetConfig(num_chips=2, sharding=SHARDED)), False),
    "tenants-streaming": (lambda obs: _tenants(
        FleetConfig(num_chips=2), update_rate=0.2,
        invalidation="targeted"), False),
    "tenants-instrumented": (lambda obs: _tenants(
        FleetConfig(num_chips=1), observe=obs, utilization_target=1.5,
        control=ELASTIC), True),
}


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, indent=2, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(case: str) -> dict:
    """Run ``case`` from cold process memos and hash what it produced."""
    for clear in (clear_probe_cache, clear_workloads_cache,
                  clear_shard_plan_cache, clear_update_stream_cache,
                  load_dataset.cache_clear):
        clear()
    runner, instrumented = CASES[case]
    observe = Instrumentation() if instrumented else None
    report = runner(observe)
    digests = {"report": _sha256(report.to_dict())}
    if observe is not None:
        events = observe.trace_payload()["traceEvents"]
        digests["trace_report"] = _sha256(trace_report(events))
        digests["metrics"] = _sha256(observe.samples)
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_loop_matches_golden_digests(case):
    with open(FIXTURE) as handle:
        expected = json.load(handle)[case]
    assert _digests(case) == expected, (
        f"{case}: the event loop's output diverged from the committed "
        f"digests; if the change is intentional, regenerate via "
        f"`PYTHONPATH=src python tests/serving/test_loop_golden.py`")


if __name__ == "__main__":
    payload = {case: _digests(case) for case in sorted(CASES)}
    with open(FIXTURE, "w") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"wrote {FIXTURE} ({len(payload)} cases)")
