"""The benchmark's four workloads: set-up, timed phase and output checks.

Every workload is split into ``setup(seed, scale)``, the host work a user
pays before the event loop or grid starts, and ``run(state)``, the timed
phase, which returns an :class:`Outcome`.  The split repeats, step by step,
what the library's one-call drivers do (``run_serving``,
``run_multi_tenant``, ``PlatformComparison.compare``) so the two halves can
be timed apart; ``selftest.py`` proves at smoke size that the split path
produces the same report digest as the one-call driver.

``scale`` shrinks the request counts (the self-test runs at a small
fraction); the benchmark always runs at ``scale=1``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import PlatformComparison
from repro.graphs.datasets import load_dataset
from repro.models.model_zoo import build_model
from repro.serving.fleet import FleetConfig, ServingSimulator
from repro.serving.stats import percentile
from repro.serving.streaming import UpdateStream, generate_update_stream
from repro.serving.tenancy import MultiTenantSimulator, TenantConfig
from repro.serving.workload import (RequestGenerator, WorkloadConfig,
                                    merge_tenant_streams)

#: Fleet size and load level shared by the serving workloads: arrivals are
#: pre-generated, open loop in simulated time, at 70% of probe capacity.
NUM_CHIPS = 4
UTILIZATION = 0.7

#: Single-tenant serving workloads: IB graph, GCN, Zipf-like skew 0.8.
#: The dataset is fixed data (seed 0, like the paper grid's default); the
#: workload seed drives the request stream and the sampler.
SINGLE_DATASET = "IB"
SINGLE_MODEL = "GCN"
REQUESTS = {"fifo": 12_000, "continuous": 16_000}
POPULARITY_SKEW = 0.8

#: ``examples/tenants.json`` with ``num_requests`` scaled 1.2x, embedded so
#: a change to the example file cannot silently change the benchmark.
TENANT_SPECS = (
    dict(name="recsys", model="GSC", dataset="IB", weight=2.0,
         num_requests=1920, arrival="bursty", popularity_skew=0.6,
         num_hops=2, fanout=6, batch_policy="timeout", max_batch_size=32),
    dict(name="citations", model="GCN", dataset="CR", weight=1.0,
         num_requests=192, arrival="poisson", popularity_skew=0.8,
         num_hops=2, fanout=6, batch_policy="slo", max_batch_size=24),
)
UPDATE_RATIO = 0.05
INVALIDATION = "targeted"

#: The evaluation grid of the paper (``benchmarks/conftest.py::GRID``)
#: without Reddit: generating RD costs ~14 s in every cold set-up, which at
#: three set-ups per run made paper-grid cost ~70 s a run, three times any
#: other workload, and left the serving workloads too few repetitions.
GRID = {
    "GCN": ("IB", "CR", "CS", "CL", "PB"),
    "GSC": ("IB", "CR", "CS", "CL", "PB"),
    "GIN": ("IB", "CR", "CS", "CL", "PB"),
    "DFP": ("IB", "CL"),
}
#: The grid the self-test runs at smoke size (small datasets only).
SMOKE_GRID = {"GCN": ("IB", "CR"), "GSC": ("IB", "CR"), "GIN": ("IB", "CR"),
              "DFP": ("IB",)}
#: The Fig. 10c and Fig. 11 gates of the paper-figure benches.
MIN_GEOMEAN_SPEEDUP = 50.0
MIN_GEOMEAN_ENERGY_REDUCTION = 500.0


@dataclass
class Outcome:
    """What one timed phase produced, in a form every workload shares."""

    payload: Dict            # canonical JSON-able report (digest input)
    offered: int             # operations offered (requests or inferences)
    completed: int           # operations answered
    #: Simulated latencies of the operations a chip served, of the tenant
    #: with the most of them where there are several.  Result-cache hits are
    #: left out: their latency is the configured ``cache_hit_latency_s``,
    #: which would pin the median of a mostly-hit workload to a constant.
    latencies_s: np.ndarray
    busy_s: float            # simulated chip-busy seconds
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: Program counters the trace reports beside its spans.
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        text = json.dumps(self.payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, float], object]
    run: Callable[[object], Outcome]


def _scaled(count: int, scale: float) -> int:
    return max(1, int(round(count * scale)))


# --------------------------------------------------------------------------- #
# Report helpers
# --------------------------------------------------------------------------- #
def _serving_counters(reports, chips, batching) -> Dict[str, float]:
    """Result/feature cache hit ratios and batching figures of a run."""
    hits = sum(r.cache.hits for r in reports)
    lookups = sum(r.cache.lookups for r in reports)
    f_hits = sum(c.feature_hits for c in chips)
    f_lookups = sum(c.feature_lookups for c in chips)
    batches = sum(b.batches for b in batching)
    requests = sum(b.batched_requests for b in batching)
    naive = sum(b.naive_vertices for b in batching)
    fused = sum(b.fused_vertices for b in batching)
    return {
        "cache.result.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.feature.hit_ratio": f_hits / f_lookups if f_lookups else 0.0,
        "batching.mean_batch_size": requests / batches if batches else 0.0,
        "batching.overlap_ratio": 1.0 - fused / naive if naive else 0.0,
    }


def _served_latencies_s(report) -> np.ndarray:
    return np.array([r.latency_s for r in report.records if not r.cache_hit])


def _conservation(offered: int, completed: int, what: str
                  ) -> Tuple[str, bool, str]:
    return (f"conservation.{what}", completed == offered,
            f"completed {completed} of {offered} offered")


# --------------------------------------------------------------------------- #
# fifo-uncached / continuous-cached: one tenant on a 4-chip fleet
# --------------------------------------------------------------------------- #
@dataclass
class _SingleState:
    simulator: ServingSimulator
    requests: list
    rate_rps: float


def single_tenant_config(seed: int, batch_policy: str,
                         cache_size: Optional[int]) -> FleetConfig:
    kwargs = {} if cache_size is None else {"cache_size": cache_size}
    return FleetConfig(num_chips=NUM_CHIPS, batch_policy=batch_policy,
                       seed=seed, **kwargs)


def _setup_single(seed: int, scale: float, batch_policy: str,
                  cache_size: Optional[int]) -> _SingleState:
    # the steps of repro.serving.fleet.run_serving, minus the final run
    config = single_tenant_config(seed, batch_policy, cache_size)
    graph = load_dataset(SINGLE_DATASET, seed=0)
    model = build_model(SINGLE_MODEL, input_length=graph.feature_length)
    simulator = ServingSimulator(graph, model, config,
                                 dataset_name=SINGLE_DATASET)
    rate_rps = simulator.calibrate_rate(UTILIZATION)
    workload = WorkloadConfig(num_requests=_scaled(REQUESTS[batch_policy],
                                                   scale),
                              rate_rps=rate_rps, arrival="poisson",
                              popularity_skew=POPULARITY_SKEW, seed=seed)
    requests = RequestGenerator(graph.num_vertices, workload).generate()
    return _SingleState(simulator, requests, rate_rps)


def _run_single(state: _SingleState) -> Outcome:
    report = state.simulator.run(state.requests, rate_rps=state.rate_rps)
    payload = report.to_dict()
    outcome = Outcome(
        payload=payload, offered=len(state.requests),
        completed=report.completed,
        latencies_s=_served_latencies_s(report),
        busy_s=report.total_busy_s,
        counters=_serving_counters([report], report.chips,
                                    [report.batching]))
    outcome.checks.append(_conservation(outcome.offered, report.completed,
                                        "requests"))
    return outcome


# --------------------------------------------------------------------------- #
# tenants-stream: two WFQ tenants, 5% streaming updates, solo baselines
# --------------------------------------------------------------------------- #
@dataclass
class _TenantsState:
    tenants: List[TenantConfig]
    fleet: FleetConfig
    updates: UpdateStream
    shared: MultiTenantSimulator
    rates: Dict[str, float]
    streams: Dict[str, list]
    requests: list


def tenant_configs(scale: float) -> List[TenantConfig]:
    # the seeds a fleet seeded 0 derives (fleet.seed + 101 * (index + 1)),
    # pinned so the tenants' graphs are fixed data like the other workloads'
    return [TenantConfig(**dict(spec, seed=101 * (i + 1),
                                num_requests=_scaled(spec["num_requests"],
                                                     scale)))
            for i, spec in enumerate(TENANT_SPECS)]


def _setup_tenants(seed: int, scale: float) -> _TenantsState:
    # the steps of repro.serving.tenancy.run_multi_tenant, minus the runs;
    # the workload seed offsets each tenant's traffic and update seeds, so
    # seed 0 reproduces run_multi_tenant exactly
    tenants = tenant_configs(scale)
    fleet = FleetConfig(num_chips=NUM_CHIPS, seed=0)
    updates = UpdateStream(events=(), policy=INVALIDATION)
    shared = MultiTenantSimulator(tenants, fleet, updates=updates)
    rates = shared.calibrate_rates(UTILIZATION)
    streams = {}
    merged = []
    for name in shared.tenant_names:
        rt = shared.runtimes[name]
        cfg = rt.config
        workload = WorkloadConfig(
            num_requests=cfg.num_requests, rate_rps=rates[name],
            arrival=cfg.arrival, popularity_skew=cfg.popularity_skew,
            burst_factor=cfg.burst_factor, on_fraction=cfg.on_fraction,
            peak_factor=cfg.peak_factor, ramp_fraction=cfg.ramp_fraction,
            peak_fraction=cfg.peak_fraction, seed=rt.seed + seed)
        streams[name] = RequestGenerator(rt.graph.num_vertices,
                                         workload).generate()
        merged.extend(generate_update_stream(
            rt.graph.num_vertices,
            num_updates=int(round(UPDATE_RATIO * cfg.num_requests)),
            rate_ups=UPDATE_RATIO * rates[name], seed=rt.seed + seed,
            tenant=name))
    requests = merge_tenant_streams(streams)
    merged.sort(key=lambda e: (e.arrival_time_s, e.tenant))
    updates.events = [replace(e, update_id=i) for i, e in enumerate(merged)]
    return _TenantsState(tenants, fleet, updates, shared, rates, streams,
                         requests)


def _run_tenants(state: _TenantsState) -> Outcome:
    shared = state.shared
    report = shared.run(state.requests, state.rates)
    # isolation baselines: each tenant alone on an identical fleet
    for tenant in state.tenants:
        pinned = replace(tenant, seed=shared.runtimes[tenant.name].seed)
        solo_sim = MultiTenantSimulator(
            [pinned], state.fleet,
            updates=state.updates.for_tenant(tenant.name))
        solo_stream = merge_tenant_streams(
            {tenant.name: state.streams.get(tenant.name, [])})
        solo = solo_sim.run(solo_stream,
                            {tenant.name: state.rates[tenant.name]})
        report.solo[tenant.name] = solo.reports[tenant.name]
    payload = report.to_dict()
    reports = [report.reports[n] for n in report.tenants]
    # the busiest tenant's latencies: merging tenants whose service times
    # differ tenfold puts the merged p99 on the boundary between them, and
    # the CR tenant serves too few requests (~150) to support a p99
    latencies = max((_served_latencies_s(r) for r in reports), key=len)
    consistency = report.consistency
    counters = _serving_counters(
        reports, report.chips, [r.batching for r in reports])
    counters["streaming.invalidations"] = consistency.total_invalidations
    counters["streaming.stale_serves"] = consistency.stale_serves
    outcome = Outcome(payload=payload, offered=len(state.requests),
                      completed=report.completed, latencies_s=latencies,
                      busy_s=report.total_busy_s, counters=counters)
    outcome.checks.append(_conservation(outcome.offered, report.completed,
                                        "requests"))
    for name, solo in report.solo.items():
        outcome.checks.append(_conservation(
            len(state.streams.get(name, [])), solo.completed,
            f"solo.{name}"))
    outcome.checks.append((
        "streaming.stale_serves", consistency.stale_serves == 0,
        f"{consistency.stale_serves} stale serves under {INVALIDATION}"))
    return outcome


# --------------------------------------------------------------------------- #
# paper-grid: the 20 (model, dataset) pairs of the paper's evaluation
# --------------------------------------------------------------------------- #
@dataclass
class _GridState:
    comparison: PlatformComparison
    grid: Dict[str, Tuple[str, ...]]


def _setup_grid(seed: int, scale: float) -> _GridState:
    grid = GRID if scale >= 1 else SMOKE_GRID
    comparison = PlatformComparison(seed=seed)
    # load_dataset's lru_cache is keyed on call spelling: this must match
    # PlatformComparison.compare's ``load_dataset(dataset, seed=self.seed)``
    # or the grid pays every generation a second time
    for dataset in dict.fromkeys(d for ds in grid.values() for d in ds):
        load_dataset(dataset, seed=comparison.seed)
    return _GridState(comparison, grid)


def _run_grid(state: _GridState) -> Outcome:
    comparison = state.comparison
    results = [comparison.compare(model, dataset)
               for model, datasets in state.grid.items()
               for dataset in datasets]
    summary = PlatformComparison.summarize(results)
    payload = {
        "kind": "paper_grid",
        "summary": summary,
        "pairs": [{
            "model": r.model_name, "dataset": r.dataset_name,
            "row": r.as_row(),
            "hygcn": r.hygcn.summary(),
            "hygcn_time_s": r.hygcn.execution_time_s,
            "cpu": r.cpu.summary(), "cpu_optimized": r.cpu_optimized.summary(),
            "gpu": r.gpu.summary(),
        } for r in results],
    }
    times = np.array([r.hygcn.execution_time_s for r in results])
    outcome = Outcome(payload=payload, offered=len(results),
                      completed=len(results), latencies_s=times,
                      busy_s=float(times.sum()))
    speedup = summary["geomean_speedup_vs_cpu"]
    energy = summary["geomean_energy_reduction_vs_cpu"]
    outcome.checks.append((
        "fig10c.geomean_speedup_vs_cpu", speedup > MIN_GEOMEAN_SPEEDUP,
        f"{speedup:.1f}x (gate > {MIN_GEOMEAN_SPEEDUP:g}x)"))
    outcome.checks.append((
        "fig11.geomean_energy_reduction_vs_cpu",
        energy > MIN_GEOMEAN_ENERGY_REDUCTION,
        f"{energy:.0f}x (gate > {MIN_GEOMEAN_ENERGY_REDUCTION:g}x)"))
    return outcome


#: name -> (setup, run); the names, seeds and reasons live in ``spec.py``.
WORKLOADS: Dict[str, Workload] = {
    "fifo-uncached": Workload(
        setup=lambda seed, scale: _setup_single(seed, scale, "fifo", 0),
        run=_run_single),
    "continuous-cached": Workload(
        setup=lambda seed, scale: _setup_single(seed, scale, "continuous",
                                                None),
        run=_run_single),
    "tenants-stream": Workload(setup=_setup_tenants, run=_run_tenants),
    "paper-grid": Workload(setup=_setup_grid, run=_run_grid),
}


def sim_latency_us(outcome: Outcome) -> Tuple[float, float]:
    """Simulated p50 and p99 latency of one outcome, in microseconds."""
    lat = outcome.latencies_s
    return percentile(lat, 50) * 1e6, percentile(lat, 99) * 1e6
