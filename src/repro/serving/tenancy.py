"""Multi-tenant serving: several models/datasets share one accelerator fleet.

Each :class:`TenantConfig` binds a model from the model zoo, a
dataset/graph, an arrival process and a latency SLO.  Every tenant becomes
one :class:`TenantRuntime` lane of the serving event loop in
:mod:`repro.serving.fleet` (single-tenant serving is the one-lane case), so
all tenants' request streams share one simulated clock and compete for the
same chips.  Three mechanisms keep the sharing honest:

* **per-tenant batch formation** -- every tenant owns its own batcher
  (:mod:`repro.serving.batcher`) and result cache, so batches never mix
  graphs and one tenant's batching policy cannot delay another's flushes;
* **weighted fair queueing** -- the loop's dispatch stage is the
  deficit-round-robin :class:`~repro.serving.fleet.WFQScheduler` instead of
  per-chip queues: formed batches join per-tenant queues, priced at their
  estimated service time on the batch's **deduped fused size** (a
  per-tenant EWMA of seconds per fused vertex, seeded by a probe batch,
  re-priced when continuous batching admits a late join), and free chips
  pull from it, so chip *time* is shared in proportion to the configured
  weights and an overlap-aware tenant (:mod:`repro.serving.batching`) is
  billed for the union its batches actually execute;
* **isolation metrics** -- the run rolls up into a
  :class:`~repro.serving.stats.MultiTenantReport` with per-tenant latency
  percentiles and SLO-violation rates, measured contended service shares vs.
  weights, and cross-tenant p99 inflation against each tenant running alone
  on an identical fleet.

Key entry points: :func:`run_multi_tenant` (spec list -> report),
:func:`load_tenant_specs` (JSON file -> specs, used by
``python -m repro serve --tenants``) and :class:`MultiTenantSimulator` for
programmatic control.  Everything is deterministic under the fleet seed.

The control plane, heterogeneous fleets, sharded execution, streaming
updates, capture/replay and observability all live in the shared loop and
apply here unchanged.  Per tenant: the control plane polices a token bucket
sized to the tenant's weight share; each tenant learns its own
per-(shape, profile-bucket) service rates (service cost is
model/dataset-specific), and under ``dispatch="shape-aware"`` each released
batch lands on the idle chip whose shape serves that tenant's profile
fastest.
"""

from __future__ import annotations

import json
import logging
import math

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..graphs.datasets import DATASETS, load_dataset
from ..graphs.delta import DeltaGraph
from ..models.model_zoo import MODEL_NAMES, build_model
from .batcher import Batch, positive_finite
from .batching import ALL_BATCH_POLICIES
from .control import ControlConfig, TenantBinding
from .fleet import (
    _COST_EWMA_ALPHA,
    Chip,
    FleetConfig,
    FleetSimulator,
    Lane,
    WFQScheduler,
    _EventLoop,
)
from .sampler import SubgraphSampler
from .stats import HeteroStats, MultiTenantReport, ServingReport
from .streaming import (
    UpdateStream,
    generate_update_stream,
    open_update_stream,
    parse_update_mix,
    stamp_update_meta,
)
from .workload import (
    Request,
    RequestGenerator,
    WorkloadConfig,
    merge_tenant_streams,
    split_tenant_stream,
)

__all__ = [
    "TenantConfig",
    "TenantRuntime",
    "MultiTenantSimulator",
    "load_tenant_specs",
    "run_multi_tenant",
]

logger = logging.getLogger("repro.serving.tenancy")


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's binding of model, graph, traffic, SLO and fair share.

    ``weight`` is the tenant's WFQ share: under contention a tenant receives
    ``weight / sum(weights)`` of the fleet's chip-seconds.  ``rate_rps=None``
    spreads the tenant's requests over a window shared with the other
    calibrated tenants, sized so the fleet runs at the run's utilisation
    target (see :meth:`MultiTenantSimulator.calibrate_rates`); ``slo_s=None``
    and
    ``batch_timeout_s=None`` derive adaptive values from a probe batch, like
    the single-tenant fleet does.  ``seed=None`` derives a per-tenant seed
    from the fleet seed, keeping whole multi-tenant runs reproducible.

    ``batch_policy`` accepts the flush triggers (``size``/``timeout``/
    ``slo``) *and* the formation policies (``fifo``/``overlap``/
    ``continuous``, :mod:`repro.serving.batching`); each tenant forms its
    own batches, so tenants can mix policies.  The overlap tuning knobs
    (``overlap_k``, ``min_overlap``, ``pool_factor``, ``join_window_s``,
    ``staleness_s``) are fleet-level
    (:class:`~repro.serving.fleet.FleetConfig`) and apply to every tenant
    that opts into an overlap-aware policy.
    """

    name: str
    model: str = "GCN"
    dataset: str = "CR"
    weight: float = 1.0
    num_requests: int = 500
    rate_rps: Optional[float] = None
    arrival: str = "poisson"
    popularity_skew: float = 0.8
    burst_factor: float = 5.0
    on_fraction: float = 0.1
    peak_factor: float = 4.0
    ramp_fraction: float = 0.25
    peak_fraction: float = 0.2
    num_hops: int = 2
    fanout: int = 8
    batch_policy: str = "timeout"
    max_batch_size: int = 32
    batch_timeout_s: Optional[float] = None
    slo_s: Optional[float] = None
    cache_size: int = 4096
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        object.__setattr__(self, "model", str(self.model).upper())
        object.__setattr__(self, "dataset", str(self.dataset).upper())
        if self.model not in MODEL_NAMES:
            raise ValueError(f"model must be one of {MODEL_NAMES}, "
                             f"got {self.model!r}")
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {sorted(DATASETS)}, "
                             f"got {self.dataset!r}")
        if self.weight <= 0:
            raise ValueError("weight must be positive")
        if self.num_requests < 0:
            raise ValueError("num_requests must be >= 0")
        if self.rate_rps is not None and not (
                math.isfinite(self.rate_rps) and self.rate_rps > 0):
            raise ValueError("rate_rps must be positive and finite when set")
        if self.arrival not in ("poisson", "bursty", "ramp"):
            raise ValueError(
                "per-tenant arrival must be 'poisson', 'bursty' or 'ramp' "
                "(to replay a captured multi-tenant run, pass the whole "
                "trace: `serve --tenants ... --replay trace.bin`)")
        if self.batch_policy not in ALL_BATCH_POLICIES:
            raise ValueError(f"batch_policy must be one of {ALL_BATCH_POLICIES}, "
                             f"got {self.batch_policy!r}")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.num_hops < 0:
            raise ValueError("num_hops must be >= 0")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        for name in ("batch_timeout_s", "slo_s"):
            if getattr(self, name) is not None:
                positive_finite(name, getattr(self, name))
        if self.cache_size < 0:
            raise ValueError("cache_size must be >= 0")


def load_tenant_specs(source: Union[str, Sequence[Mapping], Mapping]
                      ) -> List[TenantConfig]:
    """Parse tenant specs from a JSON file path, a list of dicts, or a dict.

    The JSON shape is either a bare list of tenant objects or
    ``{"tenants": [...]}``; object keys mirror :class:`TenantConfig` fields
    (``slo_s`` in seconds).  Unknown keys are rejected so a typo in a spec
    fails loudly instead of silently falling back to a default.
    """
    if isinstance(source, str):
        with open(source) as handle:
            data = json.load(handle)
    else:
        data = source
    if isinstance(data, Mapping):
        if "tenants" not in data:
            raise ValueError("tenant spec object must have a 'tenants' list")
        data = data["tenants"]
    if not isinstance(data, Sequence) or isinstance(data, (str, bytes)):
        raise ValueError("tenant spec must be a list of tenant objects")
    known = {f.name for f in fields(TenantConfig)}
    specs: List[TenantConfig] = []
    for i, entry in enumerate(data):
        if not isinstance(entry, Mapping):
            raise ValueError(f"tenant #{i} is not an object")
        unknown = set(entry) - known
        if unknown:
            raise ValueError(f"tenant #{i} has unknown keys {sorted(unknown)}; "
                             f"valid keys are {sorted(known)}")
        try:
            specs.append(TenantConfig(**entry))
        except TypeError as exc:  # e.g. a string where a number belongs
            raise ValueError(f"tenant #{i} is malformed: {exc}") from exc
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"tenant names must be unique, got {names}")
    if not specs:
        raise ValueError("tenant spec must name at least one tenant")
    return specs


class TenantRuntime(Lane):
    """One tenant's lane of the shared loop: its graph, model, sampler,
    batcher, result cache and probe-calibrated time scales (see
    :class:`~repro.serving.fleet.Lane`), plus WFQ pricing and fairness
    accounting.

    The WFQ batch-cost model prices a batch by its **deduped fused size**
    (:meth:`~repro.serving.sampler.SubgraphSampler.fused_size`) times an
    EWMA of observed service seconds per fused vertex, seeded from the
    probe batch -- so a batch of heavily-overlapping requests is billed
    for the union it actually executes, and an overlap-aware tenant cannot
    be overcharged (nor cheat) relative to a FIFO tenant.  Unlike the
    single-tenant lane, a tenant builds its batcher once, for the
    simulator's lifetime.
    """

    def __init__(self, config: TenantConfig, fleet: FleetConfig, index: int,
                 updates: Optional[UpdateStream] = None):
        self.config = config
        seed = config.seed if config.seed is not None \
            else fleet.seed + 101 * (index + 1)
        graph = load_dataset(config.dataset, seed=seed)
        if updates is not None:
            # mutating run: every tenant serves its own delta overlay, so
            # streaming inserts never touch the shared memoised base graph
            graph = DeltaGraph(graph, compact_every=updates.compact_every)
        model = build_model(config.model, input_length=graph.feature_length)
        sampler = SubgraphSampler(graph, num_hops=config.num_hops,
                                  fanout=config.fanout, seed=seed)
        super().__init__(
            config.name, graph, model, sampler, config.dataset, fleet,
            seed=seed, max_batch_size=config.max_batch_size,
            batch_policy=config.batch_policy, cache_size=config.cache_size,
            slo_s=config.slo_s, batch_timeout_s=config.batch_timeout_s)
        self.reset()
        # WFQ batch-cost model: EWMA of service seconds per *fused* vertex,
        # seeded by the probe batch's measured fused size.
        probe_fused, probe_naive = self.probe_fused_size()
        self.cost_per_vertex_s = self.probe_service_s / max(probe_fused, 1)
        if self.shape_scorer is not None:
            self.seed_scorer(probe_fused, probe_naive)
        # Accounting
        self.busy_s = 0.0
        self.contended_busy_s = 0.0
        self.queued_batches = 0  # scheduler-backlog view, kept by the loop

    def estimate_cost_s(self, batch: Batch) -> float:
        """Estimated fused service time: EWMA seconds/vertex x fused size.

        The fused size is the deduped union of the batch members' sampled
        neighbourhoods (memoised lookups, no graph built), so overlapping
        batches are priced at the work they will actually do.
        """
        fused, _ = self.sampler.fused_size(
            (r.target_vertex, r.degrade_hops, r.degrade_fanout)
            for r in batch.requests)
        return self.cost_per_vertex_s * max(fused, 1)

    def observe_cost(self, batch: Batch, service_s: float) -> None:
        """Fold an observed batch service time back into the cost models.

        ``batch.fused_vertices`` was stamped by the service model just
        before this call, so the per-vertex EWMA tracks the measured fused
        size, not a re-estimate.
        """
        if batch.fused_vertices > 0:
            a = _COST_EWMA_ALPHA
            observed = service_s / batch.fused_vertices
            self.cost_per_vertex_s = a * observed \
                + (1 - a) * self.cost_per_vertex_s
        super().observe_cost(batch, service_s)

    @property
    def demanding(self) -> bool:
        """True while the tenant still has work that wants chip time."""
        return (self.arrivals_left > 0 or self.batcher.pending_count > 0
                or self.queued_batches > 0)


class _WFQLoop(_EventLoop):
    """Multi-tenant dispatch stage: formed batches join per-tenant queues of
    the deficit-round-robin :class:`~repro.serving.fleet.WFQScheduler`, and
    every time a chip frees up it pulls the next batch in fair-share order
    (chips hold no private queues).  A finishing chip retires if draining,
    then the stage pulls."""

    def __init__(self, sim: "MultiTenantSimulator",
                 requests: Sequence[Request],
                 hetero_stats: Optional[HeteroStats]):
        super().__init__(sim, requests, hetero_stats)
        self.scheduler = sim.scheduler
        self.shape_aware = sim.fleet.dispatch == "shape-aware"
        self.max_backlog_batches = 0

    def enqueue(self, lane: TenantRuntime, batch: Batch, now: float) -> None:
        self.scheduler.enqueue(lane.name, batch, lane.estimate_cost_s(batch))
        lane.queued_batches += 1
        self.queued_s[(lane.name, batch.batch_id)] = now
        self.max_backlog_batches = max(self.max_backlog_batches,
                                       self.scheduler.pending_batches)

    def pick_chip(self, idle: List[Chip], lane: TenantRuntime,
                  batch: Batch) -> Chip:
        """Which idle chip serves this batch.

        Shape-oblivious dispatch takes the first idle chip in chip-id
        order (with zero outstanding work everywhere this *is*
        least-loaded).  ``shape-aware`` scores the idle chips with the
        tenant's learned per-(shape, bucket) rates and falls back to
        first-idle while any candidate shape is cold.
        """
        scorer = lane.shape_scorer
        if not self.shape_aware or scorer is None:
            return idle[0]
        if batch.profile is None:
            batch.profile = lane.profile_fn(batch)
        bucket = batch.profile.bucket
        scorer.note_demand(bucket)
        if not scorer.warm(sorted({c.shape for c in idle}), bucket):
            self.hetero_stats.fallback_batches += 1
            return idle[0]
        self.hetero_stats.scored_batches += 1
        return min(idle, key=lambda c: (
            scorer.rate(c.shape, bucket) * batch.profile.est_fused_vertices,
            c.chip_id))

    def pump(self, now: float) -> None:
        """Release WFQ batches onto free chips until one side runs dry."""
        while self.scheduler.pending_batches:
            idle = [c for c in self.chips if c.schedulable and not c.busy]
            if not idle:
                return
            contended = all(lane.demanding for lane in self.lanes)
            released = self.scheduler.next_batch()
            if released is None:  # pragma: no cover - guarded above
                return
            name, batch, _cost = released
            lane = self.by_name[name]
            lane.queued_batches -= 1
            # seal before costing: no joins once a chip owns the batch,
            # and the service time must cover its final membership
            lane.batcher.on_service_start(batch)
            chip = self.pick_chip(idle, lane, batch)
            service_s = self.begin_service(chip, lane, batch, now)
            lane.busy_s += service_s
            if contended:
                lane.contended_busy_s += service_s

    def on_join(self, lane: TenantRuntime, batch: Batch) -> None:
        # reprice so the DRR deficit bills the post-join fused size
        self.scheduler.reprice(lane.name, batch.batch_id,
                               lane.estimate_cost_s(batch))

    def after_completion(self, chip: Chip, now: float) -> None:
        if chip.state == "draining":
            self.scaler.retire(chip, now)
        self.pump(now)

    def drain_victim(self, actives: List[Chip]) -> Chip:
        # chips hold no private queues here (the WFQ stage does), so
        # prefer an idle chip, newest first
        idle = [c for c in actives if not c.busy]
        return max(idle or actives, key=lambda c: c.chip_id)

    def control_bindings(self) -> Tuple[List[TenantBinding], float]:
        return ([TenantBinding(
                    name=lane.name, slo_s=lane.slo_s,
                    num_hops=lane.config.num_hops, fanout=lane.config.fanout,
                    weight=lane.config.weight,
                    capacity_per_chip_rps=lane.probe_batch_size
                    / max(lane.probe_service_s, 1e-12))
                 for lane in self.lanes],
                1.0 / max(self.fleet_cost_per_request_s, 1e-12))

    def stage_gauges(self) -> Dict:
        gauges: Dict = {
            "repro_queue_depth": sum(lane.batcher.pending_count
                                     for lane in self.lanes),
            "repro_in_flight_requests": self.in_flight,
            "repro_in_flight_batches": self.scheduler.pending_batches
            + sum(1 for c in self.chips if c.busy),
        }
        for lane in self.lanes:
            gauges[("repro_tenant_queue_depth",
                    (("tenant", lane.name),))] = lane.batcher.pending_count
            gauges[("repro_overlap_ratio_ewma",
                    (("tenant", lane.name),))] = lane.overlap_ewma
        return gauges


class MultiTenantSimulator(FleetSimulator):
    """Discrete-event simulation of tenants sharing one chip fleet via WFQ.

    One :class:`TenantRuntime` lane per tenant feeds the shared event loop
    (:class:`~repro.serving.fleet.FleetSimulator`); its dispatch stage is
    the deficit-round-robin :class:`~repro.serving.fleet.WFQScheduler`
    between per-tenant batch formation and the chips.  Chips hold no
    private queues: every time a chip frees up it pulls the next batch in
    fair-share order.
    """

    def __init__(self, tenants: Sequence[TenantConfig],
                 fleet: Optional[FleetConfig] = None,
                 control: Optional[ControlConfig] = None,
                 observe=None, capture=None, updates=None):
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        fleet = fleet or FleetConfig()
        self.runtimes: Dict[str, TenantRuntime] = {
            t.name: TenantRuntime(t, fleet, i, updates=updates)
            for i, t in enumerate(tenants)}
        self.tenant_names = names
        super().__init__(fleet, list(self.runtimes.values()), control,
                         observe, capture, updates)
        quantum_s = 0.5 * min(rt.probe_service_s
                              for rt in self.runtimes.values())
        self.scheduler = WFQScheduler(
            {t.name: t.weight for t in tenants}, quantum_s=max(quantum_s, 1e-12))

    # ------------------------------------------------------------------ #
    # Traffic
    # ------------------------------------------------------------------ #
    def calibrate_rates(self, utilization_target: float = 0.7
                        ) -> Dict[str, float]:
        """Resolve every tenant's arrival rate (explicit or calibrated).

        Calibrated tenants (``rate_rps=None``) all spread their requests over
        one shared arrival window, sized so the fleet's aggregate offered
        chip-time (each calibrated tenant's request count times its
        probe-measured per-request cost, on top of whatever load the
        explicit-rate tenants already offer) equals ``utilization_target`` of
        fleet capacity.  Sharing one window keeps the calibrated tenants
        contending for the whole run -- weights decide who wins that
        contention, not who arrives when.  Raises when the explicit-rate
        tenants alone already offer the whole target (the calibrated tenants
        would have no budget left).
        """
        if not 0 < utilization_target:
            raise ValueError("utilization_target must be positive")

        def cost_per_request_s(rt: TenantRuntime) -> float:
            return rt.probe_service_s / rt.probe_batch_size

        rates: Dict[str, float] = {
            name: rt.config.rate_rps for name, rt in self.runtimes.items()
            if rt.config.rate_rps is not None}
        calibrated = [rt for rt in self.runtimes.values()
                      if rt.config.rate_rps is None]
        if not calibrated:
            return rates
        # chip-seconds per second the explicit-rate tenants already claim
        explicit_load = sum(rates[rt.name] * cost_per_request_s(rt)
                            for rt in self.runtimes.values()
                            if rt.config.rate_rps is not None)
        budget = utilization_target * self.fleet.num_chips - explicit_load
        if budget <= 0:
            raise ValueError(
                f"explicit-rate tenants already offer "
                f"{explicit_load / self.fleet.num_chips:.2f}x fleet capacity, "
                f">= the utilization target {utilization_target:g}; raise the "
                f"target or give every tenant an explicit rate_rps")
        demand_s = sum(rt.config.num_requests * cost_per_request_s(rt)
                       for rt in calibrated)
        window_s = demand_s / budget
        for rt in calibrated:
            rates[rt.name] = max(rt.config.num_requests, 1) \
                / max(window_s, 1e-12)
        return rates

    def tenant_streams(self, rates: Mapping[str, float]
                       ) -> Dict[str, List[Request]]:
        """Generate each tenant's (untagged) request stream at its rate."""
        streams: Dict[str, List[Request]] = {}
        for name, rt in self.runtimes.items():
            cfg = rt.config
            workload = WorkloadConfig(
                num_requests=cfg.num_requests, rate_rps=rates[name],
                arrival=cfg.arrival, popularity_skew=cfg.popularity_skew,
                burst_factor=cfg.burst_factor, on_fraction=cfg.on_fraction,
                peak_factor=cfg.peak_factor, ramp_fraction=cfg.ramp_fraction,
                peak_fraction=cfg.peak_fraction, seed=rt.seed)
            streams[name] = RequestGenerator(rt.graph.num_vertices,
                                             workload).generate()
        return streams

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[Request],
            rates: Optional[Mapping[str, float]] = None) -> MultiTenantReport:
        """Serve a merged, tenant-tagged stream and return the shared report."""
        fleet = self.fleet
        rates = dict(rates or {})
        report = MultiTenantReport(
            num_chips=len(self.chips),
            tenants=list(self.tenant_names),
            weights={n: self.runtimes[n].config.weight
                     for n in self.tenant_names},
            reports={},
        )
        hetero_stats: Optional[HeteroStats] = None
        if self._track_shapes:
            hetero_stats = HeteroStats(
                dispatch_policy="shape-aware"
                if fleet.dispatch == "shape-aware" else "wfq-first-idle")
        loop = _WFQLoop(self, requests, hetero_stats)
        loop.run()

        # ------------------------------------------------------------------
        # Roll the tagged records up into per-tenant report slices
        # ------------------------------------------------------------------
        records = loop.records
        report.max_backlog_batches = loop.max_backlog_batches
        report.avg_in_flight = loop.avg_in_flight
        logger.info("served %d requests for %d tenants on %d chips in "
                    "%.6f s simulated", len(requests),
                    len(self.tenant_names), len(self.chips),
                    loop.last_t - loop.t0)
        report.chips = [chip.stats for chip in self.chips]
        if hetero_stats is not None:
            for name in self.tenant_names:
                scorer = self.runtimes[name].shape_scorer
                if scorer is not None:
                    hetero_stats.rates.update(
                        {f"{name}/{key}": rate
                         for key, rate in scorer.snapshot().items()})
            report.hetero = hetero_stats
        if loop.control is not None:
            report.control = loop.control.finalize(loop.last_t, self.chips)
        report.sharding = self.sharding_stats
        report.consistency = self.consistency
        for name in self.tenant_names:
            rt = self.runtimes[name]
            slice_report = ServingReport(
                model_name=rt.config.model,
                dataset_name=rt.config.dataset,
                num_chips=fleet.num_chips,
                batch_policy=rt.config.batch_policy,
                dispatch_policy="wfq-drr",
                rate_rps=rates.get(name, 0.0),
                slo_s=rt.slo_s,
            )
            slice_report.records = [r for r in records if r.tenant == name]
            slice_report.cache = rt.result_cache.stats
            rt.batching.late_join_rejects = rt.batcher.late_join_rejects
            slice_report.batching = rt.batching
            report.reports[name] = slice_report
            report.busy_s[name] = rt.busy_s
            report.contended_busy_s[name] = rt.contended_busy_s
        return report


def run_multi_tenant(
    tenants: Sequence[TenantConfig],
    fleet: Optional[FleetConfig] = None,
    utilization_target: float = 0.7,
    include_isolation_baseline: bool = True,
    control: Optional[ControlConfig] = None,
    observe=None,
    capture=None,
    replay=None,
    update_rate: float = 0.0,
    update_mix: Optional[str] = None,
    invalidation: str = "targeted",
    staleness_budget: int = 0,
    updates=None,
) -> MultiTenantReport:
    """End-to-end multi-tenant run: specs -> shared fleet -> report.

    Rates are resolved once (explicit or calibrated to each tenant's weight
    share of fleet capacity) and reused for the shared run *and* the optional
    isolation baselines, so every tenant sees byte-identical traffic alone
    and shared -- which is what makes the p99-inflation metric meaningful.
    Baselines re-simulate each tenant alone on an identical fresh fleet; skip
    them (``include_isolation_baseline=False``) when only fairness matters.

    ``control`` arms the elastic control plane for the *shared* run only: the
    isolation baselines stay fixed-fleet, so p99 inflation keeps comparing
    against the uncontrolled contract the tenant was promised.  ``observe``
    likewise instruments only the shared run -- the solo baselines would
    otherwise emit duplicate spans for the same request ids.

    ``capture`` threads a :class:`~repro.serving.trace.TraceWriter` through
    the *shared* run (tenant-tagged requests plus the resolved per-tenant
    rates in ``capture.meta``); ``replay`` takes a multi-tenant
    :class:`~repro.serving.trace.RequestTrace` and serves its exact merged
    stream against the same tenant specs -- calibration is skipped (rates
    come from the capture's metadata) and the isolation baselines replay
    each tenant's slice of the stream, so the whole report reproduces the
    captured run bit-for-bit.
    """
    fleet = fleet or FleetConfig()
    # streaming updates: the stream must exist before the simulator (it
    # wraps every tenant's graph), but its events need the resolved
    # per-tenant rates, so they are filled in below
    fill_update_events = updates is None
    if fill_update_events:
        updates = open_update_stream(
            update_rate, [t.num_requests for t in tenants], replay,
            invalidation, staleness_budget)
    shared = MultiTenantSimulator(tenants, fleet, control=control,
                                  observe=observe, capture=capture,
                                  updates=updates)
    if replay is not None:
        requests, rates = _replay_stream(replay, shared)
        streams = split_tenant_stream(requests)
    else:
        rates = shared.calibrate_rates(utilization_target)
        streams = shared.tenant_streams(rates)
        requests = merge_tenant_streams(streams)
    if fill_update_events and updates is not None:
        if replay is not None and replay.num_updates > 0:
            updates.events = replay.to_update_events()
        else:
            mix = parse_update_mix(update_mix) if update_mix else None
            merged: List = []
            for name in shared.tenant_names:
                rt = shared.runtimes[name]
                merged.extend(generate_update_stream(
                    rt.graph.num_vertices,
                    num_updates=int(round(
                        update_rate * rt.config.num_requests)),
                    rate_ups=update_rate * rates[name], mix=mix,
                    seed=rt.seed, tenant=name))
            merged.sort(key=lambda e: (e.arrival_time_s, e.tenant))
            # renumber in merged arrival order so the captured trace's
            # update ids are the offered sequence, like request ids
            updates.events = [replace(e, update_id=i)
                              for i, e in enumerate(merged)]
    if capture is not None:
        capture.meta.update({
            "kind": "serve-tenants", "fleet_seed": fleet.seed,
            "num_chips": fleet.num_chips,
            "rates": {name: rates[name] for name in shared.tenant_names},
            "tenants": [{
                "name": t.name, "dataset": t.dataset, "model": t.model,
                "num_hops": t.num_hops, "fanout": t.fanout,
                "popularity_skew": t.popularity_skew,
                "seed": shared.runtimes[t.name].seed,
                "slo_s": shared.runtimes[t.name].slo_s,
            } for t in tenants],
        })
        stamp_update_meta(capture.meta, updates, update_rate, update_mix,
                          replay)
    report = shared.run(requests, rates)
    if include_isolation_baseline:
        for tenant in tenants:
            # pin the seed the shared run derived for this tenant, so the
            # solo baseline sees the identical graph, sampler, probe and SLO
            pinned = replace(tenant,
                             seed=shared.runtimes[tenant.name].seed)
            # a mutating run's baseline replays the tenant's own slice of
            # the update stream, so solo and shared serve the same graph
            # history (p99 inflation compares like with like)
            solo_sim = MultiTenantSimulator(
                [pinned], fleet,
                updates=updates.for_tenant(tenant.name)
                if updates is not None else None)
            # under replay `streams` holds the shared stream's per-tenant
            # slices; re-merging renumbers them 0..n-1 in the same order the
            # generator emitted, so solo traffic matches the captured run's
            solo_stream = merge_tenant_streams(
                {tenant.name: streams.get(tenant.name, [])})
            solo = solo_sim.run(solo_stream, {tenant.name: rates[tenant.name]})
            report.solo[tenant.name] = solo.reports[tenant.name]
    return report


def _replay_stream(replay, shared: MultiTenantSimulator):
    """Validate a captured multi-tenant trace against the tenant specs and
    return its merged stream plus the per-tenant rates to report."""
    if not replay.multi_tenant:
        raise ValueError(
            "trace was captured from a single-tenant run; replay it with "
            "`serve --replay` (no --tenants)")
    unknown = [n for n in replay.tenant_names if n not in shared.runtimes]
    if unknown:
        raise ValueError(
            f"trace tenants {unknown} not in the tenant spec "
            f"(spec has: {', '.join(shared.tenant_names)})")
    requests = replay.to_requests()
    for r in requests:
        limit = shared.runtimes[r.tenant].graph.num_vertices
        if not 0 <= r.target_vertex < limit:
            raise ValueError(
                f"trace targets vertex {r.target_vertex} for tenant "
                f"{r.tenant!r}, outside its graph's {limit} vertices (was "
                f"the trace captured against a different spec?)")
    stamped = replay.meta.get("rates") or {}
    rates: Dict[str, float] = {}
    for name in shared.tenant_names:
        if name in stamped:
            rates[name] = float(stamped[name])
        else:
            # hand-built trace: report each tenant's own mean arrival rate
            times = [r.arrival_time_s for r in requests if r.tenant == name]
            span = times[-1] - times[0] if len(times) > 1 else 0.0
            rates[name] = (len(times) - 1) / span if span > 0 else 0.0
    return requests, rates
