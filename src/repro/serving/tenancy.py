"""Multi-tenant serving: several models/datasets share one accelerator fleet.

This module turns the single-stream fleet of :mod:`repro.serving.fleet` into
a shared deployment.  Each :class:`TenantConfig` binds a model from the model
zoo, a dataset/graph, an arrival process and a latency SLO; all tenants'
request streams are merged onto one simulated clock and compete for the same
chips.  Three mechanisms keep the sharing honest:

* **per-tenant batch formation** -- every tenant owns its own batcher
  (:mod:`repro.serving.batcher`) and result cache, so batches never mix
  graphs and one tenant's batching policy cannot delay another's flushes;
* **weighted fair queueing** -- formed batches are admitted into per-tenant
  dispatch queues drained by the deficit-round-robin
  :class:`~repro.serving.fleet.WFQScheduler`, with batch cost = estimated
  fused-batch service time priced on the batch's **deduped fused size**
  (a per-tenant EWMA of seconds per fused vertex, seeded by a probe
  batch, re-priced when continuous batching admits a late join), so chip
  *time* is shared in proportion to the configured weights and a tenant
  running an overlap-aware formation policy
  (:mod:`repro.serving.batching`) is billed for the union its batches
  actually execute;
* **isolation metrics** -- the run rolls up into a
  :class:`~repro.serving.stats.MultiTenantReport` with per-tenant latency
  percentiles and SLO-violation rates, measured contended service shares vs.
  weights, and cross-tenant p99 inflation against each tenant running alone
  on an identical fleet.

Key entry points: :func:`run_multi_tenant` (spec list -> report),
:func:`load_tenant_specs` (JSON file -> specs, used by
``python -m repro serve --tenants``) and :class:`MultiTenantSimulator` for
programmatic control.  Everything is deterministic under the fleet seed.

Arming a :class:`~repro.serving.control.ControlConfig` makes the shared
fleet elastic: the control plane autoscales the chip pool (warm-up on the
way up, drain-before-remove on the way down), polices each tenant with a
token bucket sized to its weight share, and sheds or degrades requests
whose queueing-delay estimate has already blown the tenant's SLO budget.

A :class:`~repro.serving.fleet.FleetConfig` carrying a
:class:`~repro.serving.hetero.FleetSpec` makes the shared fleet
*heterogeneous*: chips carry different HyGCN shapes, every tenant learns
its own per-(shape, profile-bucket) service rates (service cost is
model/dataset-specific, so scorers are never shared), and under
``dispatch="shape-aware"`` each WFQ-released batch is placed on the idle
chip whose shape serves that tenant's batch profile fastest.  Elastic
heterogeneous runs additionally choose *which shape* to add or retire
(:class:`~repro.serving.hetero.ShapeChooser`), and the report gains
per-shape utilization/service-share plus the mis-dispatch metric
(:class:`~repro.serving.stats.HeteroStats`).
"""

from __future__ import annotations

import heapq
import json
import logging
import math

import numpy as np

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..graphs.datasets import DATASETS, load_dataset
from ..graphs.delta import DeltaGraph
from ..models.model_zoo import MODEL_NAMES, build_model
from .batcher import Batch
from .batching import ALL_BATCH_POLICIES, build_batch_policy, make_signature_fn
from .cache import LRUCache
from .control import ControlConfig, ControlObservation, ControlPlane, TenantBinding
from .fleet import (
    _ARRIVAL,
    _CHIP_READY,
    _COMPLETION,
    _CONTROL,
    _FLUSH,
    _METRICS,
    _UPDATE,
    _SLO_SERVICE_MULTIPLE,
    _TIMEOUT_SERVICE_MULTIPLE,
    Chip,
    FleetConfig,
    FleetScaler,
    WFQScheduler,
    fused_batch_service_time_s,
    probe_batch_service_time_s,
    probe_targets,
)
from .hetero import (
    BatchProfile,
    ShapeChooser,
    ShapeScorer,
    account_batch_service,
    make_profile_fn,
)
from .sampler import SubgraphSampler
from .sharding import ShardExecutor, shard_plan_for
from .stats import (
    BatchingStats,
    ConsistencyStats,
    HeteroStats,
    MultiTenantReport,
    RequestRecord,
    ServingReport,
    ShardingStats,
    percentile,
)
from .streaming import (
    StreamState,
    UpdateStream,
    generate_update_stream,
    parse_update_mix,
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

#: EWMA weight for the per-tenant batch-cost estimate the WFQ stage uses.
_COST_EWMA_ALPHA = 0.3

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
        if self.batch_timeout_s is not None and self.batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be positive when set")
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError("slo_s must be positive when set")
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


class TenantRuntime:
    """Everything one tenant owns at run time: graph, model, sampler, batcher,
    result cache, probe-calibrated time scales and fairness accounting.

    The WFQ batch-cost model prices a batch by its **deduped fused size**
    (:meth:`~repro.serving.sampler.SubgraphSampler.fused_size`) times an
    EWMA of observed service seconds per fused vertex, seeded from the
    probe batch -- so a batch of heavily-overlapping requests is billed
    for the union it actually executes, and an overlap-aware tenant cannot
    be overcharged (nor cheat) relative to a FIFO tenant.
    """

    def __init__(self, config: TenantConfig, fleet: FleetConfig, index: int,
                 updates: Optional[UpdateStream] = None):
        self.config = config
        self.name = config.name
        self.seed = config.seed if config.seed is not None \
            else fleet.seed + 101 * (index + 1)
        self.graph = load_dataset(config.dataset, seed=self.seed)
        if updates is not None:
            # mutating run: every tenant serves its own delta overlay, so
            # streaming inserts never touch the shared memoised base graph
            self.graph = DeltaGraph(self.graph,
                                    compact_every=updates.compact_every)
        self.model = build_model(config.model,
                                 input_length=self.graph.feature_length)
        self.sampler = SubgraphSampler(self.graph, num_hops=config.num_hops,
                                       fanout=config.fanout, seed=self.seed)
        self.result_cache = LRUCache(config.cache_size)
        self._fleet_shapes = fleet.distinct_shapes()
        self.probe_service_s = self._probe(fleet)
        self.slo_s = config.slo_s if config.slo_s is not None \
            else _SLO_SERVICE_MULTIPLE * self.probe_service_s
        timeout_s = config.batch_timeout_s if config.batch_timeout_s is not None \
            else _TIMEOUT_SERVICE_MULTIPLE * self.probe_service_s
        self.overlap_aware = config.batch_policy in ("overlap", "continuous")
        self.batcher = build_batch_policy(
            config.batch_policy, max_batch_size=config.max_batch_size,
            timeout_s=timeout_s, slo_s=self.slo_s,
            signature_fn=make_signature_fn(
                self.sampler, config.num_hops, config.fanout,
                overlap_k=fleet.overlap_k) if self.overlap_aware else None,
            min_overlap=fleet.min_overlap,
            pool_factor=fleet.pool_factor,
            join_window_s=fleet.join_window_s if fleet.join_window_s is not None
            else timeout_s,
            staleness_s=fleet.staleness_s if fleet.staleness_s is not None
            else 0.5 * self.slo_s,
            tenant=self.name)
        self.batching = BatchingStats(policy=config.batch_policy)
        self.overlap_ewma = 0.0
        self.probe_batch_size = min(config.max_batch_size,
                                    self.graph.num_vertices)
        # WFQ batch-cost model: EWMA of service seconds per *fused* vertex,
        # seeded by the probe batch's measured fused size.
        shape = (config.num_hops, config.fanout)
        probe_fused, probe_naive = self.sampler.fused_size(
            (int(t),) + shape
            for t in probe_targets(self.graph.num_vertices,
                                   config.max_batch_size, self.seed))
        self.cost_per_vertex_s = self.probe_service_s / max(probe_fused, 1)
        # Shape-aware serving (repro.serving.hetero): this tenant's own
        # per-(shape, bucket) rate model, seeded from its per-shape probes
        # -- service rates are model/dataset-specific, so scorers are never
        # shared across tenants.
        self.shape_scorer: Optional[ShapeScorer] = None
        self.profile_fn = None
        if fleet.heterogeneous or fleet.dispatch == "shape-aware":
            self.profile_fn = make_profile_fn(self.sampler,
                                              self.graph.feature_length)
            self.shape_scorer = ShapeScorer()
            bucket = BatchProfile(
                est_fused_vertices=probe_fused,
                est_naive_vertices=probe_naive,
                batch_size=min(config.max_batch_size,
                               self.graph.num_vertices),
                feature_length=self.graph.feature_length).bucket
            for shape_name, hw in self._fleet_shapes.items():
                self.shape_scorer.seed(
                    shape_name, bucket,
                    self._probe_for_shape(hw) / max(probe_fused, 1))
        # Admission-control cost model: EWMA of service seconds per request
        # (duplicates included -- backlog accounting is per request).
        self.cost_per_request_s = self.probe_service_s / self.probe_batch_size
        # Sharded execution (repro.serving.sharding): bound by the
        # simulator when the fleet arms a ShardingConfig.
        self.shard_executor: Optional[ShardExecutor] = None
        # Accounting
        self.busy_s = 0.0
        self.contended_busy_s = 0.0
        self.arrivals_left = 0
        self.queued_batches = 0  # scheduler-backlog view, kept by the sim
        self.scheduled_flush: Optional[float] = None

    # ------------------------------------------------------------------ #
    def _probe_for_shape(self, hw) -> float:
        """Probe-batch service time on one chip shape (memoised globally)."""
        return probe_batch_service_time_s(
            hw, self.sampler, self.model, self.config.dataset,
            self.config.max_batch_size, self.graph.num_vertices, self.seed)

    def _probe(self, fleet: FleetConfig) -> float:
        """Service time of one full batch of distinct uniform targets.

        On a heterogeneous fleet this is the **slowest** shape's probe time
        (adaptive SLOs/timeouts must hold wherever a batch lands); a
        homogeneous fleet reduces to the single probe it always ran.
        """
        return max(self._probe_for_shape(hw)
                   for hw in self._fleet_shapes.values())

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
        a = _COST_EWMA_ALPHA
        if batch.fused_vertices > 0:
            observed = service_s / batch.fused_vertices
            self.cost_per_vertex_s = a * observed \
                + (1 - a) * self.cost_per_vertex_s
        self.overlap_ewma = a * batch.overlap_ratio \
            + (1 - a) * self.overlap_ewma
        self.cost_per_request_s = a * (service_s / batch.size) \
            + (1 - a) * self.cost_per_request_s

    @property
    def demanding(self) -> bool:
        """True while the tenant still has work that wants chip time."""
        return (self.arrivals_left > 0 or self.batcher.pending_count > 0
                or self.queued_batches > 0)


class MultiTenantSimulator:
    """Discrete-event simulation of tenants sharing one chip fleet via WFQ.

    The event loop mirrors :class:`~repro.serving.fleet.ServingSimulator` --
    arrivals, per-tenant flush deadlines, chip completions -- but inserts the
    deficit-round-robin :class:`~repro.serving.fleet.WFQScheduler` between
    batch formation and the chips: chips hold no private queues, and every
    time a chip frees up it pulls the next batch in fair-share order.
    """

    def __init__(self, tenants: Sequence[TenantConfig],
                 fleet: Optional[FleetConfig] = None,
                 control: Optional[ControlConfig] = None,
                 observe=None, capture=None, updates=None):
        #: Observability hub (:class:`repro.serving.observe.Instrumentation`)
        #: or ``None``; hooks are guarded so an uninstrumented run executes
        #: no observability code.
        self.observe = observe
        #: Request-trace capture hub (:class:`repro.serving.trace.TraceWriter`)
        #: or ``None``; records every offered request (tenant tag included)
        #: at its arrival event, pre-admission, like the single-tenant loop.
        self.capture = capture
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        self.fleet = fleet or FleetConfig()
        self.control_config = control if control is not None and control.active \
            else None
        #: Streaming update stream (:class:`repro.serving.streaming.
        #: UpdateStream`) or ``None``; arming it wraps every tenant's graph
        #: in a delta overlay and interleaves its events with the traffic.
        self.updates = updates
        self.runtimes: Dict[str, TenantRuntime] = {
            t.name: TenantRuntime(t, self.fleet, i, updates=updates)
            for i, t in enumerate(tenants)}
        self.tenant_names = names
        initial_chips = self.fleet.num_chips
        if self.control_config is not None \
                and self.control_config.autoscale is not None:
            # only the autoscaler's band constrains the fleet; admission/
            # degrade-only control leaves the configured size untouched
            initial_chips = max(self.control_config.min_chips,
                                min(self.control_config.max_chips,
                                    initial_chips))
        roster = self.fleet.chip_roster()
        # a min-chips band wider than the spec cycles the roster
        self.chips = [Chip(i, roster[i % len(roster)][1],
                           self.fleet.feature_cache_size,
                           shape=roster[i % len(roster)][0])
                      for i in range(initial_chips)]
        self._next_chip_id = initial_chips
        self._shapes = self.fleet.distinct_shapes()
        self._track_shapes = self.fleet.heterogeneous \
            or self.fleet.dispatch == "shape-aware"
        self._shape_aware = self.fleet.dispatch == "shape-aware"
        #: Fleet-wide sharded-execution stats (None on an unsharded fleet);
        #: per-tenant executors live on the runtimes and all fold into this
        #: one object, because the chip group is shared fleet state.
        self.sharding_stats: Optional[ShardingStats] = None
        if self.fleet.sharding is not None:
            if self.control_config is not None:
                raise ValueError(
                    "sharded execution cannot be combined with the elastic "
                    "control plane (a chip group cannot scale mid-run)")
            sharding = self.fleet.sharding
            # the group leader (chip 0) is the only schedulable chip; the
            # members execute sub-batches off the leader's clock
            for chip in self.chips[1:]:
                chip.state = "member"
            self.sharding_stats = ShardingStats(
                num_shards=sharding.num_shards,
                partitioner=sharding.partitioner)
            # one halo-cache list for the whole fleet, keyed (tenant,
            # vertex) like the feature caches; capacity is sized by the
            # largest tenant's feature vector so no tenant over-fits it
            feature_bytes = {
                name: rt.graph.feature_length
                * rt.graph.features.dtype.itemsize
                for name, rt in self.runtimes.items()}
            capacity = int(sharding.halo_cache_mb * (1 << 20)
                           / max(max(feature_bytes.values()), 1))
            halo_caches = [LRUCache(capacity)
                           for _ in range(sharding.num_shards)]
            for name, rt in self.runtimes.items():
                rt.shard_executor = ShardExecutor(
                    shard_plan_for(rt.graph, sharding), self.chips,
                    rt.sampler, rt.model, rt.config.dataset, sharding,
                    feature_bytes=feature_bytes[name],
                    stats=self.sharding_stats, halo_caches=halo_caches,
                    key_fn=lambda v, name=name: (name, v))
        #: Per-tenant update applier / consistency tracker (mutating runs);
        #: every tenant serves its own graph, so each needs its own
        #: StreamState, but they all fold into one shared ConsistencyStats.
        self.streams: Dict[str, StreamState] = {}
        self.consistency: Optional[ConsistencyStats] = None
        if updates is not None:
            self.consistency = ConsistencyStats(
                policy=updates.policy,
                budget_versions=updates.staleness_budget_versions)
            for name, rt in self.runtimes.items():
                self.streams[name] = StreamState(
                    rt.graph, rt.sampler, updates, self.consistency,
                    result_cache=rt.result_cache, chips=self.chips,
                    feature_key=lambda v, name=name: (name, v),
                    shard_executor=rt.shard_executor, observe=observe)
        quantum_s = 0.5 * min(rt.probe_service_s
                              for rt in self.runtimes.values())
        self.scheduler = WFQScheduler(
            {t.name: t.weight for t in tenants}, quantum_s=max(quantum_s, 1e-12))
        #: The control plane of the most recent :meth:`run` (None when fixed).
        self.control: Optional[ControlPlane] = None

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
    # Service-time model (per tenant, shared chips)
    # ------------------------------------------------------------------ #
    def _service_time_s(self, chip: Chip, rt: TenantRuntime,
                        batch: Batch, now: float = 0.0) -> float:
        """Fused-batch execution time on ``chip`` for ``rt``'s model/graph.

        The shared single-tenant model, except the chip's feature cache is
        keyed by ``(tenant, vertex)``: vertex ids from different tenants'
        graphs alias numerically but never share features.  On a sharded
        fleet the tenant's executor runs the batch across the chip group
        instead (``chip`` is always the group leader there); a one-shard
        plan keeps this path verbatim so its report stays bit-for-bit
        identical to an unsharded run.
        """
        if rt.shard_executor is not None \
                and rt.shard_executor.plan.num_shards > 1:
            return rt.shard_executor.service_time_s(
                batch, reuse_discount=self.fleet.reuse_discount, now=now)
        return fused_batch_service_time_s(
            chip, rt.sampler, rt.model, batch,
            dataset_name=rt.config.dataset,
            reuse_discount=self.fleet.reuse_discount,
            cache_key=lambda v: (rt.name, v),
            stream=self.streams.get(rt.name), now=now)

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[Request],
            rates: Optional[Mapping[str, float]] = None) -> MultiTenantReport:
        """Serve a merged, tenant-tagged stream and return the shared report."""
        fleet = self.fleet
        rates = dict(rates or {})
        records: List[RequestRecord] = []
        report = MultiTenantReport(
            num_chips=len(self.chips),
            tenants=list(self.tenant_names),
            weights={n: self.runtimes[n].config.weight
                     for n in self.tenant_names},
            reports={},
        )
        observe = self.observe
        for rt in self.runtimes.values():
            rt.arrivals_left = 0
            if observe is not None:
                rt.batcher.instrumentation = observe
        for request in requests:
            if request.tenant not in self.runtimes:
                raise ValueError(f"request tagged with unknown tenant "
                                 f"{request.tenant!r}")
            self.runtimes[request.tenant].arrivals_left += 1

        events: List[Tuple[float, int, int, object]] = []
        seq = 0
        for request in requests:
            heapq.heappush(events, (request.arrival_time_s, seq, _ARRIVAL,
                                    request))
            seq += 1
        if self.updates is not None:
            # updates enter the same heap; requests pushed first, so a
            # request at the identical timestamp wins the tie (a query
            # races an update: the query is served, then the graph moves)
            for event in self.updates.events:
                if event.tenant not in self.runtimes:
                    raise ValueError(f"update tagged with unknown tenant "
                                     f"{event.tenant!r}")
                heapq.heappush(events, (event.arrival_time_s, seq, _UPDATE,
                                        event))
                seq += 1

        admit_meta: Dict[Tuple[str, int], float] = {}   # batch -> admit time
        start_meta: Dict[Tuple[str, int], float] = {}   # batch -> start time
        in_flight = 0
        t0 = requests[0].arrival_time_s if requests else 0.0
        last_t = t0
        in_flight_area = 0.0
        chip_batch: Dict[int, Tuple[TenantRuntime, Batch]] = {}
        hetero_stats: Optional[HeteroStats] = None
        if self._track_shapes:
            hetero_stats = HeteroStats(
                dispatch_policy="shape-aware" if self._shape_aware
                else "wfq-first-idle")

        # ---------------- control plane (elastic runs only) --------------- #
        control: Optional[ControlPlane] = None
        scaler: Optional[FleetScaler] = None
        backlog_cost_s = 0.0
        request_cost_s: Dict[int, float] = {}
        arrivals_interval = completions_interval = 0
        violations_interval = shed_interval = 0
        busy_snapshot_s = 0.0
        # fleet-wide per-request cost EWMA for the sizing policies
        fleet_cost_per_request_s = float(np.mean(
            [rt.cost_per_request_s for rt in self.runtimes.values()]))
        for chip in self.chips:
            chip.added_s = t0
            chip.ready_s = t0
        if self.control_config is not None and requests:
            control = ControlPlane(self.control_config)
            if observe is not None:
                control.instrumentation = observe
            min_probe_s = min(rt.probe_service_s
                              for rt in self.runtimes.values())
            control.bind(
                [TenantBinding(
                    name=rt.name, slo_s=rt.slo_s,
                    num_hops=rt.config.num_hops, fanout=rt.config.fanout,
                    weight=rt.config.weight,
                    capacity_per_chip_rps=rt.probe_batch_size
                    / max(rt.probe_service_s, 1e-12))
                 for rt in self.runtimes.values()],
                initial_chips=len(self.chips),
                probe_service_s=min_probe_s,
                capacity_per_chip_rps=1.0
                / max(fleet_cost_per_request_s, 1e-12))
            self.control = control
            heapq.heappush(events, (t0 + control.control_interval_s, seq,
                                    _CONTROL, None))
            seq += 1

            def new_chip(shape: Optional[str] = None) -> Chip:
                if shape is None:
                    shape, hw = fleet.base_shape, fleet.hw
                else:
                    hw = self._shapes[shape]
                chip = Chip(self._next_chip_id, hw,
                            fleet.feature_cache_size, shape=shape)
                self._next_chip_id += 1
                return chip

            def schedule_ready(chip: Chip) -> None:
                nonlocal seq
                heapq.heappush(events, (chip.ready_s, seq, _CHIP_READY, chip))
                seq += 1

            def drain_victim(actives: List[Chip]) -> Chip:
                # chips hold no private queues here (the WFQ stage does),
                # so prefer an idle chip, newest first
                idle = [c for c in actives if not c.busy]
                return max(idle or actives, key=lambda c: c.chip_id)

            chooser: Optional[ShapeChooser] = None
            if len(self._shapes) > 1:
                chooser = ShapeChooser(
                    self.control_config.scale_shape, self._shapes,
                    scorers=[rt.shape_scorer
                             for rt in self.runtimes.values()
                             if rt.shape_scorer is not None])
            scaler = FleetScaler(
                self.chips, control, new_chip, schedule_ready,
                # heterogeneous scale-downs drain the shape the demand
                # needs least; homogeneous ones an idle chip, newest first
                chooser.retire_victim if chooser is not None
                else drain_victim,
                shape_chooser=chooser)

        # ---------------- metrics scraping (instrumented runs) ------------ #
        metrics_interval_s = 0.0
        if observe is not None and observe.wants_metrics and requests:
            from .observe import METRICS_PROBE_MULTIPLE
            metrics_interval_s = observe.metrics_interval_s \
                if observe.metrics_interval_s is not None \
                else METRICS_PROBE_MULTIPLE * min(
                    rt.probe_service_s for rt in self.runtimes.values())
            heapq.heappush(events, (t0 + metrics_interval_s, seq,
                                    _METRICS, None))
            seq += 1

        def metrics_snapshot(now: float) -> Dict:
            gauges: Dict = {
                "repro_queue_depth": sum(
                    rt.batcher.pending_count
                    for rt in self.runtimes.values()),
                "repro_in_flight_requests": in_flight,
                "repro_in_flight_batches": self.scheduler.pending_batches
                + sum(1 for c in self.chips if c.busy),
            }
            for name, rt in self.runtimes.items():
                gauges[("repro_tenant_queue_depth",
                        (("tenant", name),))] = rt.batcher.pending_count
                gauges[("repro_overlap_ratio_ewma",
                        (("tenant", name),))] = rt.overlap_ewma
            if self.sharding_stats is not None:
                stats = self.sharding_stats
                gauges["repro_halo_hit_rate"] = stats.halo_hit_rate
                gauges["repro_halo_bytes_moved"] = stats.halo_bytes_moved
                gauges["repro_shard_load_imbalance"] = stats.load_imbalance
            elapsed = now - t0
            if elapsed > 0:
                for shape in self._shapes:
                    members = [c for c in self.chips if c.shape == shape]
                    busy = sum(c.stats.busy_s for c in members)
                    gauges[("repro_busy_fraction", (("shape", shape),))] = \
                        busy / (elapsed * len(members)) if members else 0.0
            return gauges

        def schedule_flush(rt: TenantRuntime, now: float) -> None:
            nonlocal seq
            deadline = rt.batcher.next_deadline(now)
            if deadline is not None and deadline != rt.scheduled_flush:
                heapq.heappush(events, (max(deadline, now), seq, _FLUSH,
                                        rt.name))
                seq += 1
                rt.scheduled_flush = deadline

        def admit(rt: TenantRuntime, batch: Batch, now: float) -> None:
            """Per-tenant admission: the batch joins the WFQ dispatch queue."""
            self.scheduler.enqueue(rt.name, batch, rt.estimate_cost_s(batch))
            rt.queued_batches += 1
            admit_meta[(rt.name, batch.batch_id)] = now
            report.max_backlog_batches = max(report.max_backlog_batches,
                                             self.scheduler.pending_batches)

        def pick_chip(idle: List[Chip], rt: TenantRuntime,
                      batch: Batch) -> Chip:
            """Which idle chip serves this batch.

            Shape-oblivious dispatch takes the first idle chip in chip-id
            order (the historical behaviour -- with zero outstanding work
            everywhere this *is* least-loaded).  ``shape-aware`` scores the
            idle chips with the tenant's learned per-(shape, bucket) rates
            and falls back to first-idle while any candidate shape is cold.
            """
            if not self._shape_aware or rt.shape_scorer is None:
                return idle[0]
            if batch.profile is None:
                batch.profile = rt.profile_fn(batch)
            bucket = batch.profile.bucket
            rt.shape_scorer.note_demand(bucket)
            shapes = sorted({c.shape for c in idle})
            if not rt.shape_scorer.warm(shapes, bucket):
                hetero_stats.fallback_batches += 1
                return idle[0]
            hetero_stats.scored_batches += 1
            return min(idle, key=lambda c: (
                rt.shape_scorer.rate(c.shape, bucket)
                * batch.profile.est_fused_vertices, c.chip_id))

        def pump(now: float) -> None:
            """Release WFQ batches onto free chips until one side runs dry."""
            nonlocal seq, fleet_cost_per_request_s
            while self.scheduler.pending_batches:
                idle = [c for c in self.chips
                        if c.schedulable and not c.busy]
                if not idle:
                    return
                contended = all(rt.demanding for rt in self.runtimes.values())
                released = self.scheduler.next_batch()
                if released is None:  # pragma: no cover - guarded above
                    return
                name, batch, _cost = released
                rt = self.runtimes[name]
                rt.queued_batches -= 1
                # seal before costing: no joins once a chip owns the batch,
                # and the service time must cover its final membership
                rt.batcher.on_service_start(batch)
                chip = pick_chip(idle, rt, batch)
                chip.current = batch
                chip_batch[chip.chip_id] = (rt, batch)
                start_meta[(name, batch.batch_id)] = now
                if self.updates is not None:
                    # differential consistency probe at the seal point --
                    # observation only, before the costed service time
                    self.streams[name].check_batch(batch, now)
                service_s = self._service_time_s(chip, rt, batch, now=now)
                if hetero_stats is not None:
                    account_batch_service(
                        rt.shape_scorer, hetero_stats, batch, rt.profile_fn,
                        chip.shape, service_s,
                        {c.shape for c in self.chips
                         if c.state == "active"},
                        # shape-aware picks already counted demand in
                        # pick_chip; oblivious pulls count it here
                        note_demand=not self._shape_aware)
                rt.observe_cost(batch, service_s)
                rt.batching.observe_batch(batch)
                rt.batcher.observe_service_time(service_s)
                a = _COST_EWMA_ALPHA
                fleet_cost_per_request_s = a * (service_s / batch.size) \
                    + (1 - a) * fleet_cost_per_request_s
                chip.stats.busy_s += service_s
                rt.busy_s += service_s
                if contended:
                    rt.contended_busy_s += service_s
                heapq.heappush(events, (now + service_s, seq, _COMPLETION,
                                        chip))
                seq += 1
                # a fresh service observation may tighten an SLO-aware
                # flush deadline for this tenant's pending requests
                schedule_flush(rt, now)

        def complete(chip: Chip, now: float) -> None:
            nonlocal in_flight, backlog_cost_s
            nonlocal completions_interval, violations_interval
            rt, batch = chip_batch.pop(chip.chip_id)
            chip.current = None
            chip.stats.batches_served += 1
            chip.stats.requests_served += batch.size
            admitted = admit_meta.pop((rt.name, batch.batch_id))
            started = start_meta.pop((rt.name, batch.batch_id))
            for request in batch.requests:
                records.append(RequestRecord(
                    request_id=request.request_id,
                    target_vertex=request.target_vertex,
                    arrival_time_s=request.arrival_time_s,
                    # a late-joined request entered after the batch was
                    # admitted: its batching wait ends at its own arrival
                    dispatch_time_s=max(admitted, request.arrival_time_s),
                    service_start_s=started,
                    completion_time_s=now,
                    cache_hit=False,
                    chip_id=chip.chip_id,
                    batch_id=batch.batch_id,
                    tenant=rt.name,
                    degrade_level=request.degrade_level,
                ))
                # degraded answers are lower fidelity: never cache them
                if request.degrade_level == 0:
                    rt.result_cache.put(request.target_vertex, now)
                    if self.updates is not None:
                        self.streams[rt.name].register_result(
                            request.target_vertex, now)
                in_flight -= 1
                completions_interval += 1
                if now - request.arrival_time_s > rt.slo_s:
                    violations_interval += 1
                backlog_cost_s -= request_cost_s.pop(request.request_id, 0.0)
            if observe is not None:
                observe.on_batch_complete(now, chip, batch, admitted,
                                          started, tenant=rt.name)
                observe.on_shard_batch_complete(now, batch, started)
            if chip.state == "draining":
                scaler.retire(chip, now)
            pump(now)

        def control_tick(now: float) -> None:
            nonlocal seq, busy_snapshot_s
            nonlocal arrivals_interval, completions_interval
            nonlocal violations_interval, shed_interval
            active, warming, draining = scaler.counts()
            busy_total_s = sum(c.stats.busy_s for c in self.chips)
            interval_s = control.control_interval_s
            utilization = (busy_total_s - busy_snapshot_s) \
                / (interval_s * max(1, active))
            # the tightest tenant SLO anchors the fleet-level delay signal
            min_slo_s = min(rt.slo_s for rt in self.runtimes.values())
            obs = ControlObservation(
                now_s=now,
                interval_s=interval_s,
                active_chips=active,
                warming_chips=warming,
                draining_chips=draining,
                queue_depth=in_flight,
                backlog_cost_s=backlog_cost_s,
                arrivals=arrivals_interval,
                completions=completions_interval,
                violations=violations_interval,
                shed=shed_interval,
                utilization=min(1.0, utilization),
                cost_per_request_s=fleet_cost_per_request_s,
                slo_s=min_slo_s,
            )
            target = control.tick(obs)
            scaler.scale_to(target, now)
            busy_snapshot_s = busy_total_s
            arrivals_interval = completions_interval = 0
            violations_interval = shed_interval = 0
            if in_flight > 0 or any(rt.arrivals_left > 0
                                    for rt in self.runtimes.values()):
                heapq.heappush(events, (now + interval_s, seq, _CONTROL, None))
                seq += 1

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == _METRICS:
                # handled before the in-flight integral update so the
                # float accounting (and hence the report) stays bit-for-bit
                # identical to an uninstrumented run
                observe.scrape(now, metrics_snapshot(now))
                if in_flight > 0 or any(rt.arrivals_left > 0
                                        for rt in self.runtimes.values()):
                    heapq.heappush(events, (now + metrics_interval_s, seq,
                                            _METRICS, None))
                    seq += 1
                continue
            in_flight_area += in_flight * (now - last_t)
            last_t = now
            if kind == _ARRIVAL:
                request: Request = payload
                rt = self.runtimes[request.tenant]
                rt.arrivals_left -= 1
                arrivals_interval += 1
                if self.capture is not None:
                    self.capture.record(request)
                if rt.result_cache.get(request.target_vertex) is not None:
                    if self.updates is not None:
                        self.streams[rt.name].on_result_hit(
                            request.target_vertex, now)
                    done = now + fleet.cache_hit_latency_s
                    records.append(RequestRecord(
                        request_id=request.request_id,
                        target_vertex=request.target_vertex,
                        arrival_time_s=request.arrival_time_s,
                        dispatch_time_s=done,
                        service_start_s=done,
                        completion_time_s=done,
                        cache_hit=True,
                        tenant=rt.name,
                    ))
                    if observe is not None:
                        observe.on_cache_hit(now, request, done,
                                             tenant=rt.name)
                else:
                    admitted = True
                    if control is not None:
                        active_count = sum(1 for c in self.chips
                                           if c.schedulable)
                        est_delay_s = backlog_cost_s / max(1, active_count)
                        decision = control.admit(
                            rt.name, now, est_delay_s, rt.cost_per_request_s,
                            overlap_ratio=rt.overlap_ewma if rt.overlap_aware
                            else 0.0)
                        admitted = decision.admitted
                        if not admitted:
                            shed_interval += 1
                        elif decision.level > 0:
                            request = replace(
                                request,
                                degrade_level=decision.level,
                                degrade_hops=decision.num_hops,
                                degrade_fanout=decision.fanout)
                        if admitted:
                            cost = rt.cost_per_request_s * decision.cost_scale
                            request_cost_s[request.request_id] = cost
                            backlog_cost_s += cost
                    if admitted:
                        in_flight += 1
                        # continuous batching: try joining a formed batch
                        # still waiting in the WFQ queue; reprice it so the
                        # DRR deficit bills the post-join fused size
                        joined = rt.batcher.try_join(request, now)
                        if joined is not None:
                            self.scheduler.reprice(rt.name, joined.batch_id,
                                                   rt.estimate_cost_s(joined))
                        else:
                            batch = rt.batcher.add(request, now)
                            if batch is not None:
                                admit(rt, batch, now)
                                pump(now)
                            # re-arm in every case: formation policies can
                            # emit a subset and leave a deadline pending
                            schedule_flush(rt, now)
                if rt.arrivals_left == 0 and rt.batcher.pending_count \
                        and rt.batcher.next_deadline(now) is None:
                    # end of this tenant's stream under a pure size cap
                    for leftover in rt.batcher.drain(now):
                        admit(rt, leftover, now)
                    pump(now)
            elif kind == _FLUSH:
                rt = self.runtimes[payload]
                rt.scheduled_flush = None
                batch = rt.batcher.flush_due(now)
                if batch is not None:
                    admit(rt, batch, now)
                    pump(now)
                schedule_flush(rt, now)
            elif kind == _COMPLETION:
                complete(payload, now)
            elif kind == _UPDATE:
                # recorded before application, mirroring request capture at
                # arrival, so a captured trace replays the offered stream
                if self.capture is not None:
                    self.capture.record_update(payload)
                self.streams[payload.tenant].apply(now, payload)
            elif kind == _CONTROL:
                control_tick(now)
            else:  # _CHIP_READY
                if scaler.mark_ready(payload, now):
                    pump(now)

        # ------------------------------------------------------------------
        # Roll the tagged records up into per-tenant report slices
        # ------------------------------------------------------------------
        if observe is not None and observe.wants_metrics and requests:
            # closing scrape (outside the loop, so it cannot perturb the
            # integral): even a run shorter than the interval gets >= 1 row
            observe.scrape(last_t, metrics_snapshot(last_t))
        span = (last_t - t0) if requests else 0.0
        report.avg_in_flight = in_flight_area / span if span > 0 else 0.0
        logger.info("served %d requests for %d tenants on %d chips in "
                    "%.6f s simulated", len(requests),
                    len(self.tenant_names), len(self.chips), span)
        report.chips = [chip.stats for chip in self.chips]
        if hetero_stats is not None:
            for chip in self.chips:
                hetero_stats.shape_counts[chip.shape] = \
                    hetero_stats.shape_counts.get(chip.shape, 0) + 1
            for name in self.tenant_names:
                scorer = self.runtimes[name].shape_scorer
                if scorer is not None:
                    hetero_stats.rates.update(
                        {f"{name}/{key}": rate
                         for key, rate in scorer.snapshot().items()})
            report.hetero = hetero_stats
        if control is not None:
            report.control = control.finalize(last_t, self.chips)
        if self.sharding_stats is not None:
            latencies = [r.latency_s for r in records]
            self.sharding_stats.p50_s = percentile(latencies, 50)
            self.sharding_stats.p95_s = percentile(latencies, 95)
            self.sharding_stats.p99_s = percentile(latencies, 99)
            report.sharding = self.sharding_stats
        if self.updates is not None:
            for state in self.streams.values():
                state.finalize()
            self.consistency.p99_s = percentile(
                [r.latency_s for r in records], 99)
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
    if not (math.isfinite(update_rate) and update_rate >= 0):
        raise ValueError(f"update_rate must be >= 0 and finite, got {update_rate}")
    # streaming updates: same deferred-fill pattern as run_serving -- the
    # stream object must exist before the simulator (it wraps every
    # tenant's graph), but its events need the resolved per-tenant rates
    fill_update_events = False
    if updates is None:
        replayed_updates = replay is not None and replay.num_updates > 0
        if update_rate > 0 or replayed_updates:
            if replayed_updates:
                invalidation = replay.meta.get("invalidation", invalidation)
                staleness_budget = int(replay.meta.get(
                    "staleness_budget", staleness_budget))
            updates = UpdateStream(events=(), policy=invalidation,
                                   staleness_budget_versions=staleness_budget)
            fill_update_events = True
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
    if fill_update_events:
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
        if updates is not None:
            capture.meta.update({
                "update_rate": update_rate,
                "invalidation": updates.policy,
                "staleness_budget": updates.staleness_budget_versions,
            })
            if update_mix:
                capture.meta["update_mix"] = update_mix
        if replay is not None:
            # re-capturing a replay keeps the original workload's update
            # provenance, so the new trace file reproduces the one replayed
            for key in ("update_rate", "update_mix", "invalidation",
                        "staleness_budget"):
                if key in replay.meta:
                    capture.meta[key] = replay.meta[key]
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
