"""Multi-accelerator fleet simulation driven by a discrete-event clock.

The fleet is ``num_chips`` :class:`~repro.core.simulator.HyGCNSimulator`
instances.  One event loop (:class:`_EventLoop`) serves every deployment:
it runs over a list of :class:`Lane` request streams -- one (``""``) for
:class:`ServingSimulator`, one per tenant for
:class:`~repro.serving.tenancy.MultiTenantSimulator` -- and advances a
simulated clock over seven event kinds: arrivals (answered by the result
cache, shed or degraded by the control plane, late-joined into a formed
batch under ``continuous`` formation, or handed to the lane's batcher),
batching flush deadlines, chip completions, streaming graph updates,
control ticks, chip warm-ups and metrics scrapes.  The only difference
between the simulators is the *dispatch stage* between batch formation
and the chips: per-chip FIFO queues fed by a dispatch policy
(:class:`_ChipQueueLoop`), or :class:`WFQScheduler` pull (multi-tenant).

A batch's *service time* is the simulated execution time reported by
:class:`~repro.core.stats.SimulationReport` for the **deduped fused
subgraph** of the batch (shared neighbourhood vertices are streamed and
aggregated once -- see
:meth:`~repro.serving.sampler.SubgraphSampler.fuse`), discounted by
per-chip feature reuse: each chip keeps an LRU of the vertex features it
recently streamed, modelling the DRAM traffic a warm chip avoids when
consecutive batches overlap (which is what the locality-aware dispatch
policy tries to maximise, and what the overlap-aware formation policies
in :mod:`repro.serving.batching` maximise *within* a batch).

Dispatch policies (per-chip queues):

* ``round-robin``  -- cycle through the chips (oblivious, perfectly fair);
* ``least-loaded`` -- pick the chip with the fewest outstanding requests;
* ``locality``     -- route by the batch's majority vertex partition, trading
  load balance for feature-cache reuse;
* ``shape-aware``  -- heterogeneous fleets (:mod:`repro.serving.hetero`):
  rank schedulable chips by predicted finish time, where each chip's
  predicted service is its shape's learned seconds-per-fused-vertex for
  the batch's profile bucket; falls back to least-loaded while any
  candidate shape is still cold for that bucket.

:class:`WFQScheduler` is deficit round-robin over per-tenant backlog
queues, with each batch's cost being its estimated fused service time, so
chip-time (not batch count) is shared in proportion to tenant weights.

With a :class:`~repro.serving.control.ControlConfig` armed the fleet becomes
*elastic*: chips move through a warming -> active -> draining -> retired
lifecycle under the control plane's autoscaling decisions, arrivals pass an
admission/degradation gate before batching, and the report carries the
scaling timeline plus chip-seconds accounting.
"""

from __future__ import annotations

import heapq
import logging
from collections import deque

import numpy as np
from dataclasses import dataclass, field, replace
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from ..core.config import HyGCNConfig
from ..core.simulator import HyGCNSimulator
from ..graphs.datasets import load_dataset
from ..graphs.delta import DeltaGraph
from ..graphs.graph import Graph
from ..models.model_zoo import build_model
from .batcher import Batch, positive_finite
from .batching import (
    ALL_BATCH_POLICIES,
    build_batch_policy,
    make_signature_fn,
    resolve_signature_hops,
)
from .cache import FeatureCache, LRUCache, feature_cache_step
from .control import ControlConfig, ControlObservation, ControlPlane, TenantBinding
from .hetero import (
    DEFAULT_SHAPE,
    BatchProfile,
    FleetSpec,
    ShapeChooser,
    ShapeScorer,
    account_batch_service,
    make_profile_fn,
)
from .sampler import SubgraphSampler
from .sharding import ShardExecutor, ShardingConfig, shard_plan_for
from .stats import (
    BatchingStats,
    ChipStats,
    ConsistencyStats,
    HeteroStats,
    RequestRecord,
    ServingReport,
    ShardingStats,
    percentile,
)
from .streaming import StreamState, generate_update_stream, \
    open_update_stream, parse_update_mix, stamp_update_meta
from .workload import Request, RequestGenerator, WorkloadConfig, trace_arrival_times

__all__ = [
    "DISPATCH_POLICIES",
    "FleetConfig",
    "Chip",
    "Lane",
    "FleetSimulator",
    "ServingSimulator",
    "WFQScheduler",
    "run_serving",
    "clear_probe_cache",
    "probe_targets",
]

#: Dispatch-policy names accepted by the CLI and :class:`FleetConfig`.
DISPATCH_POLICIES = ("round-robin", "least-loaded", "locality", "shape-aware")

_ARRIVAL, _FLUSH, _COMPLETION, _CONTROL, _CHIP_READY, _METRICS, _UPDATE = \
    0, 1, 2, 3, 4, 5, 6

logger = logging.getLogger("repro.serving.fleet")

#: EWMA weight of the cost estimates (per request for the control plane, per
#: fused vertex for WFQ pricing) and of the overlap-ratio gauge.
_COST_EWMA_ALPHA = 0.3

#: Adaptive defaults, as multiples of the probe-batch service time: a batch
#: may wait about two service times before a timeout flush, and the latency
#: SLO is ten service times (queueing + batching headroom over raw service).
_TIMEOUT_SERVICE_MULTIPLE = 2.0
_SLO_SERVICE_MULTIPLE = 10.0


@dataclass(frozen=True)
class FleetConfig:
    """Structural and policy parameters of the serving deployment.

    ``batch_timeout_s`` and ``slo_s`` default to ``None``, meaning the
    simulator derives them from a probe batch's service time so the policies
    stay meaningful across datasets whose per-batch cost varies by orders of
    magnitude; pass explicit values to pin them.

    ``batch_policy`` accepts the flush-trigger trio (``size`` / ``timeout``
    / ``slo``) and the formation trio (``fifo`` / ``overlap`` /
    ``continuous``, see :mod:`repro.serving.batching`).  The overlap knobs
    only matter for the formation policies: ``overlap_k`` is the hop depth
    of the neighbourhood signatures (``None`` = 1, capped to ``num_hops``),
    ``min_overlap`` the similarity floor for growing a group (0 disables),
    ``pool_factor`` sizes the formation pool (``pool_factor *
    max_batch_size`` pending requests before a forced flush), and
    ``join_window_s`` / ``staleness_s`` are the continuous-batching
    budgets (``None`` = adaptive: the batch timeout, and half the SLO).

    ``fleet_spec`` makes the fleet *heterogeneous*
    (:mod:`repro.serving.hetero`): each chip takes the shape the spec's
    roster assigns it, and ``num_chips`` is derived from the spec (the
    configured value is overridden).  Without a spec every chip runs
    ``hw``.  The ``shape-aware`` dispatch policy works on either -- on a
    homogeneous fleet it degenerates to backlog comparison.

    ``sharding`` turns the fleet into a *chip group* executing every batch
    across all chips (:mod:`repro.serving.sharding`): the dataset is
    partitioned one shard per chip, so ``num_chips`` must equal
    ``sharding.num_shards``; chip 0 is the group leader (the only
    schedulable chip) and the rest serve sub-batches off its clock.
    Incompatible with the elastic control plane (a group cannot grow or
    shrink mid-run).
    """

    num_chips: int = 4
    dispatch: str = "round-robin"
    batch_policy: str = "size"
    max_batch_size: int = 32
    batch_timeout_s: Optional[float] = None
    slo_s: Optional[float] = None
    cache_size: int = 4096
    num_hops: int = 2
    fanout: int = 8
    feature_cache_size: int = 8192
    reuse_discount: float = 0.35
    cache_hit_latency_s: float = 1e-6
    overlap_k: Optional[int] = None
    min_overlap: float = 0.0
    pool_factor: int = 4
    join_window_s: Optional[float] = None
    staleness_s: Optional[float] = None
    seed: int = 0
    hw: HyGCNConfig = field(default_factory=HyGCNConfig)
    fleet_spec: Optional[FleetSpec] = None
    sharding: Optional[ShardingConfig] = None

    def __post_init__(self) -> None:
        if self.fleet_spec is not None:
            # the spec's roster *is* the fleet: its size wins
            object.__setattr__(self, "num_chips", self.fleet_spec.num_chips)
        if self.num_chips < 1:
            raise ValueError("num_chips must be >= 1")
        if self.dispatch not in DISPATCH_POLICIES:
            raise ValueError(f"dispatch must be one of {DISPATCH_POLICIES}, "
                             f"got {self.dispatch!r}")
        if self.batch_policy not in ALL_BATCH_POLICIES:
            raise ValueError(f"batch_policy must be one of {ALL_BATCH_POLICIES}, "
                             f"got {self.batch_policy!r}")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.num_hops < 0:
            raise ValueError("num_hops must be >= 0")
        if self.fanout < 1:
            raise ValueError("fanout must be >= 1")
        if not 0 <= self.reuse_discount < 1:
            raise ValueError("reuse_discount must be in [0, 1)")
        if self.cache_size < 0 or self.feature_cache_size < 0:
            raise ValueError("cache sizes must be >= 0")
        for name in ("batch_timeout_s", "slo_s", "join_window_s",
                     "staleness_s"):
            if getattr(self, name) is not None:
                positive_finite(name, getattr(self, name))
        if self.overlap_k is not None and self.overlap_k < 0:
            raise ValueError("overlap_k must be >= 0 when set")
        if not 0.0 <= self.min_overlap <= 1.0:
            raise ValueError("min_overlap must be in [0, 1]")
        if self.pool_factor < 1:
            raise ValueError("pool_factor must be >= 1")
        if self.sharding is not None \
                and self.sharding.num_shards != self.num_chips:
            raise ValueError(
                f"sharded execution needs one chip per shard: "
                f"num_chips={self.num_chips} but "
                f"sharding.num_shards={self.sharding.num_shards}")

    @property
    def signature_hops(self) -> int:
        """Resolved signature depth (see
        :func:`repro.serving.batching.resolve_signature_hops`)."""
        return resolve_signature_hops(self.overlap_k, self.num_hops)

    # ------------------------------------------------------------------ #
    # Chip shapes (heterogeneous fleets, repro.serving.hetero)
    # ------------------------------------------------------------------ #
    @property
    def base_shape(self) -> str:
        """Shape label of homogeneous chips: ``balanced`` when ``hw`` is the
        Table 6 default, ``custom`` for a hand-built config."""
        return DEFAULT_SHAPE if self.hw == HyGCNConfig() else "custom"

    def chip_roster(self) -> List[Tuple[str, HyGCNConfig]]:
        """One ``(shape name, hw config)`` per chip, in chip-id order."""
        if self.fleet_spec is not None:
            return self.fleet_spec.roster()
        return [(self.base_shape, self.hw)] * self.num_chips

    def distinct_shapes(self) -> Dict[str, HyGCNConfig]:
        """Shape name -> hw config, in roster order (deterministic)."""
        if self.fleet_spec is not None:
            return self.fleet_spec.distinct_shapes()
        return {self.base_shape: self.hw}

    @property
    def heterogeneous(self) -> bool:
        """True when the roster mixes more than one chip shape."""
        return len(self.distinct_shapes()) > 1


class Chip:
    """One simulated HyGCN instance: FIFO queue, busy state, feature cache.

    Elastic runs drive a chip through a lifecycle: ``warming`` (commissioned,
    consuming chip-seconds, serving nothing) -> ``active`` (schedulable) ->
    ``draining`` (finishes outstanding work, accepts no new batches) ->
    ``retired``.  Fixed-fleet chips stay ``active`` for the whole run.
    """

    def __init__(self, chip_id: int, hw: HyGCNConfig, feature_cache_size: int,
                 shape: str = DEFAULT_SHAPE):
        self.chip_id = chip_id
        self.hw = hw
        self.shape = shape
        self.simulator = HyGCNSimulator(hw)
        self.queue: Deque[Tuple[Batch, float]] = deque()
        self.current: Optional[Batch] = None
        self.feature_cache = FeatureCache(feature_cache_size)
        self.stats = ChipStats(chip_id=chip_id, shape=shape)
        self.state = "active"
        self.added_s = 0.0
        self.ready_s = 0.0
        self.retired_s: Optional[float] = None

    @property
    def busy(self) -> bool:
        return self.current is not None

    @property
    def schedulable(self) -> bool:
        """True while the chip accepts new batches."""
        return self.state == "active"

    @property
    def outstanding_requests(self) -> int:
        queued = sum(batch.size for batch, _ in self.queue)
        return queued + (self.current.size if self.current else 0)


class _RoundRobinDispatch:
    """Cycle through the schedulable chips in call order.

    Oblivious and perfectly fair in *batch count* (not chip time).  The
    rotation counter advances over whatever chip list the event loop passes
    (draining/retired chips are already filtered out), so on an elastic
    fleet the cycle simply re-wraps over the surviving roster.
    Deterministic: the counter is the only state.
    """

    def __init__(self) -> None:
        self._next = 0

    def select(self, chips: Sequence[Chip], batch: Batch) -> Chip:
        chip = chips[self._next % len(chips)]
        self._next += 1
        return chip


class _LeastLoadedDispatch:
    """Pick the schedulable chip with the fewest outstanding *requests*.

    Outstanding = queued + in service, counted in requests (not batches,
    not estimated seconds), so a chip holding one giant batch looks as
    loaded as one holding many small ones.  Ties break on the lowest chip
    id, which is what makes the policy bit-for-bit deterministic and what
    the shape-aware policy's cold-bucket fallback inherits.
    """

    def select(self, chips: Sequence[Chip], batch: Batch) -> Chip:
        return min(chips, key=lambda c: (c.outstanding_requests, c.chip_id))


class _LocalityDispatch:
    """Route each batch to the home chip of its majority vertex partition.

    Vertices are striped into ``num_chips`` contiguous partitions of the
    base graph's id space; each batch votes with its requests' target
    vertices and goes to the partition winner's chip (ties break on the
    lower partition id).  Trades load balance for per-chip feature-cache
    reuse.  On an elastic fleet the partition map is frozen at the initial
    fleet size and out-of-range homes clamp to the last chip.
    """

    def __init__(self, num_vertices: int, num_chips: int):
        self._partition_size = max(1, -(-num_vertices // num_chips))

    def select(self, chips: Sequence[Chip], batch: Batch) -> Chip:
        votes: Dict[int, int] = {}
        for request in batch.requests:
            home = min(request.target_vertex // self._partition_size, len(chips) - 1)
            votes[home] = votes.get(home, 0) + 1
        winner = max(votes.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        return chips[winner]


class _ShapeAwareDispatch:
    """Route each batch to the chip shape that serves its profile fastest.

    Every candidate chip is scored with a predicted finish time::

        backlog(chip) + rate(chip.shape, bucket) * est_fused_vertices

    where ``bucket`` is the batch's :class:`~repro.serving.hetero.\
    BatchProfile` bucket, ``rate`` the scorer's learned seconds per fused
    vertex and ``backlog`` the same prediction summed over the chip's
    queued and in-service batches (their stamped profiles).  The minimum
    wins; ties break on outstanding requests then chip id, so a
    homogeneous fleet (all rates equal) degenerates to exactly
    least-loaded.

    While *any* candidate shape is still cold for the bucket (no probe
    seed, no observation) the whole decision falls back to least-loaded --
    scoring a partial roster would systematically favour the warmed-up
    shapes regardless of fit.  ``scored`` / ``fallback`` count both paths
    for the report's :class:`~repro.serving.stats.HeteroStats`.
    Deterministic: profiles and rates are seeded-sampler / event-order
    state, and every tie-break is total.
    """

    def __init__(self, scorer: ShapeScorer, profile_fn):
        self.scorer = scorer
        self._profile_fn = profile_fn
        self._fallback = _LeastLoadedDispatch()
        self.scored = 0
        self.fallback = 0

    def _est_s(self, chip: Chip, batch: Batch) -> float:
        """Predicted service seconds of ``batch`` on ``chip``.

        A queued batch can lose its stamp mid-queue (a continuous late
        join invalidates it); re-profile the current membership rather
        than undercounting the backlog of exactly the chips holding the
        freshest, largest batches.
        """
        profile = batch.profile
        if profile is None:
            profile = batch.profile = self._profile_fn(batch)
        return self.scorer.rate_or_default(chip.shape, profile.bucket) \
            * profile.est_fused_vertices

    def select(self, chips: Sequence[Chip], batch: Batch) -> Chip:
        if batch.profile is None:
            batch.profile = self._profile_fn(batch)
        bucket = batch.profile.bucket
        self.scorer.note_demand(bucket)
        shapes = sorted({c.shape for c in chips})
        if not self.scorer.warm(shapes, bucket):
            self.fallback += 1
            return self._fallback.select(chips, batch)
        self.scored += 1

        def predicted_finish_s(chip: Chip) -> float:
            backlog = sum(self._est_s(chip, queued) for queued, _ in chip.queue)
            if chip.current is not None:
                backlog += self._est_s(chip, chip.current)
            return backlog + self.scorer.rate(chip.shape, bucket) \
                * batch.profile.est_fused_vertices

        return min(chips, key=lambda c: (predicted_finish_s(c),
                                         c.outstanding_requests, c.chip_id))


def _build_dispatch(policy: str, num_vertices: int, num_chips: int,
                    scorer: Optional[ShapeScorer] = None,
                    profile_fn=None):
    if policy == "round-robin":
        return _RoundRobinDispatch()
    if policy == "least-loaded":
        return _LeastLoadedDispatch()
    if policy == "locality":
        return _LocalityDispatch(num_vertices, num_chips)
    if policy == "shape-aware":
        if scorer is None or profile_fn is None:
            raise ValueError("shape-aware dispatch needs a ShapeScorer and "
                             "a profile function")
        return _ShapeAwareDispatch(scorer, profile_fn)
    raise ValueError(f"unknown dispatch policy {policy!r}; "
                     f"choose from {DISPATCH_POLICIES}")


# --------------------------------------------------------------------------- #
# Shared service-time model (single- and multi-tenant paths)
# --------------------------------------------------------------------------- #
def fused_batch_service_time_s(chip: Chip, sampler, model, batch: Batch,
                               dataset_name: str, reuse_discount: float,
                               key_space="", account: bool = True,
                               stream=None, now: float = 0.0) -> float:
    """Simulated execution time of the fused subgraph batch on ``chip``.

    Requests for the same target (and sampling shape) within a batch share
    one subgraph, and distinct samples fuse into the **deduped union**
    (:meth:`~repro.serving.sampler.SubgraphSampler.fuse`): a vertex sampled
    by several members is streamed and aggregated once, which is the work
    reduction the overlap-aware formation policies exist to maximise.  The
    batch is stamped with ``fused_vertices`` / ``naive_vertices`` /
    ``overlap_ratio`` so the cost models and :class:`BatchingStats` see the
    measured dedup, not an estimate.

    The chip's feature-cache hit fraction further discounts the simulated
    time by up to ``reuse_discount`` (warm features skip their DRAM
    stream).  ``key_space`` names the lane's key space in the feature
    cache -- multi-tenant serving passes the tenant name, so
    numerically-aliasing vertex ids from different tenants' graphs never
    share cache entries.  The batch's vertices go through the cache as one
    :func:`~repro.serving.cache.feature_cache_step`, in the iteration order
    of their Python set, which fixes their LRU order.

    Degraded requests (control-plane ladder) carry per-request hop/fanout
    overrides; subgraph *sharing* requires both the target and the sampling
    shape to match, so a degraded and a full-fidelity request for the same
    vertex contribute two distinct samples -- whose union still dedups the
    neighbourhood they have in common.
    """
    request_shapes = [(r.target_vertex, r.degrade_hops, r.degrade_fanout)
                      for r in batch.requests]
    shapes = list(dict.fromkeys(request_shapes))
    samples = sampler.extract_batch(shapes)
    by_shape = dict(zip(shapes, samples))
    naive_vertices = sum(by_shape[s].num_vertices for s in request_shapes)
    if len(samples) == 1:
        fused = samples[0].graph
    else:
        prefix = f"{batch.tenant}-" if batch.tenant else ""
        fused = sampler.fuse(samples, name=f"{prefix}batch{batch.batch_id}")
    batch.fused_vertices = fused.num_vertices
    batch.naive_vertices = naive_vertices
    batch.overlap_ratio = 1.0 - fused.num_vertices / naive_vertices \
        if naive_vertices else 0.0
    report = chip.simulator.run_model(model, fused, dataset_name=dataset_name)
    # stamp the cycle-model phase breakdown for the observability layer
    # (cheap property sums over the layer reports; the batch's trace span
    # carries it -- see repro.serving.observe)
    batch.phase_cycles = {
        "total": report.total_cycles,
        "aggregation": report.aggregation_cycles,
        "combination": report.combination_cycles,
        "dram_busy": report.dram_stats.busy_cycles,
    }
    vertices: Set[int] = set()
    for sample in samples:
        vertices.update(sample.vertices)
    keys = np.fromiter(vertices, dtype=np.int64, count=len(vertices))
    hits = feature_cache_step(chip.feature_cache, keys, key_space, stream,
                              now)
    reuse_fraction = hits / len(vertices) if vertices else 0.0
    service_s = report.execution_time_s * (1.0 - reuse_discount * reuse_fraction)
    if account:
        chip.stats.vertices_simulated += fused.num_vertices
        chip.stats.feature_lookups += len(vertices)
        chip.stats.feature_hits += hits
    return service_s


#: Probe-service memo, keyed on everything that determines the probe result:
#: hardware config, model, dataset, batch shape, sampling shape and seed.
#: Multi-tenant startup probes once per tenant and every scale-up event would
#: otherwise re-run the probe for its adaptive warm-up; the memo makes those
#: lookups free.  ``clear_probe_cache`` is the test hook.
_PROBE_CACHE: Dict[Tuple, float] = {}


def clear_probe_cache() -> None:
    """Drop all memoised probe-batch service times (test isolation hook)."""
    _PROBE_CACHE.clear()


def probe_targets(num_vertices: int, max_batch_size: int,
                  seed: int) -> np.ndarray:
    """The distinct uniformly-drawn target vertices of the probe batch.

    Shared by :func:`probe_batch_service_time_s` and the tenancy layer's
    fused-size cost seeding so both always describe the *same* probe batch.
    """
    num = min(max_batch_size, num_vertices)
    rng = np.random.default_rng(seed)
    return rng.choice(num_vertices, size=num, replace=False)


def probe_batch_service_time_s(hw: HyGCNConfig, sampler, model,
                               dataset_name: str, max_batch_size: int,
                               num_vertices: int, seed: int) -> float:
    """Service time of one full batch of distinct uniformly-drawn targets.

    The probe calibrates arrival rates and resolves the adaptive timeout /
    SLO defaults; it runs on a throwaway cold chip so it never perturbs the
    fleet's caches or accounting.  Results are memoised on
    (hw, model, dataset, batch shape, sampling shape, seed) -- the probe is
    deterministic in exactly those inputs -- so repeated startups and
    scale-up events pay for it once per configuration.
    """
    num = min(max_batch_size, num_vertices)
    # the graph version belongs in the key: a mutating graph changes the
    # probe batch's neighbourhoods under a stable (dataset, shape) tuple,
    # which silently served stale probe times before streaming landed
    key = (repr(hw), getattr(model, "name", model.__class__.__name__),
           dataset_name, num, num_vertices,
           sampler.num_hops, sampler.fanout, seed,
           getattr(sampler.graph, "version", None))
    cached = _PROBE_CACHE.get(key)
    if cached is not None:
        return cached
    targets = probe_targets(num_vertices, max_batch_size, seed)
    probe = Batch(batch_id=-1, requests=[
        Request(request_id=-1 - i, target_vertex=int(t), arrival_time_s=0.0)
        for i, t in enumerate(targets)], created_time_s=0.0)
    probe_chip = Chip(-1, hw, feature_cache_size=0)
    # on a mutable graph the probe must not leave sampler-memo residue:
    # whether this call executes or hits _PROBE_CACHE would otherwise leak
    # into the run's invalidation accounting (run-to-run nondeterminism)
    mutable = getattr(sampler, "_mutable", False)
    memo_before = set(sampler._memo.keys()) | set(sampler._sig_memo.keys()) \
        if mutable else None
    service_s = fused_batch_service_time_s(probe_chip, sampler, model, probe,
                                           dataset_name=dataset_name,
                                           reuse_discount=0.0, account=False)
    if mutable:
        added = (set(sampler._memo.keys())
                 | set(sampler._sig_memo.keys())) - memo_before
        sampler.forget(added)
    _PROBE_CACHE[key] = service_s
    return service_s


class FleetScaler:
    """Executes the control plane's sizing decisions on a chip roster.

    Owns warm-up, drain-before-remove and timeline accounting.  The event
    loop stays in charge of its heap (``schedule_ready`` pushes the loop's
    ``_CHIP_READY`` event) and of which active chip a scale-in should drain
    (``drain_victim`` -- it depends on the dispatch stage: per-chip queues
    drain the emptiest queue, WFQ pull an idle chip).

    On a heterogeneous fleet a :class:`~repro.serving.hetero.ShapeChooser`
    decides *which shape* each scale-up commissions and each scale-down
    drains; homogeneous fleets pass ``None`` and every new chip takes the
    fleet's base shape.
    """

    def __init__(self, chips: List[Chip], control: ControlPlane,
                 new_chip, schedule_ready, drain_victim,
                 shape_chooser: Optional[ShapeChooser] = None):
        self.chips = chips
        self.control = control
        self._new_chip = new_chip            # (shape | None) -> Chip (unrostered)
        self._schedule_ready = schedule_ready  # (chip) -> None
        self._drain_victim = drain_victim    # (active chips) -> Chip
        self._shape_chooser = shape_chooser

    def counts(self) -> Tuple[int, int, int]:
        """(active, warming, draining) sizes of the current roster."""
        active = warming = draining = 0
        for chip in self.chips:
            if chip.state == "active":
                active += 1
            elif chip.state == "warming":
                warming += 1
            elif chip.state == "draining":
                draining += 1
        return active, warming, draining

    def _record(self, now: float, action: str, chip: Chip) -> None:
        active, warming, draining = self.counts()
        self.control.record_event(now, action, chip.chip_id,
                                  active, warming, draining)

    def retire(self, chip: Chip, now: float) -> None:
        chip.state = "retired"
        chip.retired_s = now
        self._record(now, "retire", chip)

    def mark_ready(self, chip: Chip, now: float) -> bool:
        """Flip a warming chip to active (False if it was retired meanwhile)."""
        if chip.state != "warming":
            return False
        chip.state = "active"
        self._record(now, "ready", chip)
        return True

    def scale_to(self, target: int, now: float) -> None:
        """Add warming chips / drain victims until committed capacity
        (active + warming) meets ``target``."""
        committed = sum(1 for c in self.chips
                        if c.state in ("active", "warming"))
        while committed < target:
            shape = self._shape_chooser.shape_to_add() \
                if self._shape_chooser is not None else None
            chip = self._new_chip(shape)
            chip.added_s = now
            chip.ready_s = now + self.control.warmup_s
            if self.control.warmup_s > 0:
                chip.state = "warming"
                self._schedule_ready(chip)
            else:
                chip.state = "active"
            self.chips.append(chip)
            self._record(now, "add", chip)
            committed += 1
        while committed > target:
            warming_chips = [c for c in self.chips if c.state == "warming"]
            if warming_chips:
                # cancelling a warm-up is free: the chip never served
                self.retire(max(warming_chips, key=lambda c: c.chip_id), now)
            else:
                actives = [c for c in self.chips if c.state == "active"]
                if len(actives) <= 1:
                    break  # never drain the last serving chip
                victim = self._drain_victim(actives)
                victim.state = "draining"
                self._record(now, "drain", victim)
                if not victim.busy and not victim.queue:
                    self.retire(victim, now)
            committed -= 1


class WFQScheduler:
    """Weighted fair queueing over per-tenant batch queues (deficit round-robin).

    Each tenant owns a FIFO of ``(batch, cost_s)`` entries, where ``cost_s``
    is the caller's estimate of the batch's fused service time.  The scheduler
    visits tenants in a fixed rotation; on arriving at a tenant it credits the
    tenant's *deficit counter* with ``quantum_s * weight`` once, then releases
    head batches while their cost fits the deficit.  A tenant whose queue
    drains forfeits its remaining deficit (the textbook DRR rule that stops an
    idle tenant hoarding credit), so over any contended interval each tenant's
    released service time converges to its weight share regardless of how its
    batch sizes compare to the other tenants'.

    The scheduler is release-order only: it does not know about chips.  The
    multi-tenant event loop calls :meth:`next_batch` once per free chip and
    stops pulling when the fleet is saturated, which keeps the DRR state
    consistent no matter how many chips drain it.
    """

    def __init__(self, weights: Dict[str, float], quantum_s: float):
        if not weights:
            raise ValueError("WFQScheduler needs at least one tenant")
        if any(w <= 0 for w in weights.values()):
            raise ValueError("tenant weights must be positive")
        if quantum_s <= 0:
            raise ValueError("quantum_s must be positive")
        self._order = list(weights)
        self._weights = dict(weights)
        self._quantum_s = float(quantum_s)
        self._queues: Dict[str, Deque[Tuple[Batch, float]]] = {
            name: deque() for name in self._order}
        self._deficit_s: Dict[str, float] = {name: 0.0 for name in self._order}
        self._cursor = 0
        self._credited = False  # has the tenant under the cursor been credited

    # ------------------------------------------------------------------ #
    @property
    def pending_batches(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def backlog(self, tenant: str) -> int:
        """Number of formed-but-undispatched batches queued for ``tenant``."""
        return len(self._queues[tenant])

    def enqueue(self, tenant: str, batch: Batch, cost_s: float) -> None:
        """Admit a formed batch into ``tenant``'s dispatch queue."""
        if tenant not in self._queues:
            raise KeyError(f"unknown tenant {tenant!r}")
        self._queues[tenant].append((batch, max(float(cost_s), 1e-12)))

    def reprice(self, tenant: str, batch_id: int, cost_s: float) -> bool:
        """Update the stored cost of a still-queued batch (late joins).

        Continuous batching grows a batch *after* it was enqueued; without
        repricing, the DRR deficit would bill the tenant the pre-join
        estimate while the chips do post-join work.  Returns ``False`` when
        the batch already left the queue (its cost was already charged).
        """
        if tenant not in self._queues:
            raise KeyError(f"unknown tenant {tenant!r}")
        queue = self._queues[tenant]
        for i, (batch, _) in enumerate(queue):
            if batch.batch_id == batch_id:
                queue[i] = (batch, max(float(cost_s), 1e-12))
                return True
        return False

    def next_batch(self) -> Optional[Tuple[str, Batch, float]]:
        """Release the next ``(tenant, batch, cost_s)`` in DRR order.

        Returns ``None`` when every queue is empty.  Each call releases at
        most one batch; the cursor only advances off a tenant once its head
        batch no longer fits the deficit (or its queue drains), so a burst of
        calls services tenants in contiguous weight-proportional runs.
        """
        if self.pending_batches == 0:
            return None
        # Each full rotation credits every non-empty queue, so the loop is
        # bounded by max_cost / (quantum * min_weight) rotations.
        while True:
            name = self._order[self._cursor]
            queue = self._queues[name]
            if not queue:
                self._deficit_s[name] = 0.0
                self._advance()
                continue
            if not self._credited:
                self._deficit_s[name] += self._quantum_s * self._weights[name]
                self._credited = True
            batch, cost_s = queue[0]
            if cost_s <= self._deficit_s[name]:
                queue.popleft()
                self._deficit_s[name] -= cost_s
                if not queue:
                    self._deficit_s[name] = 0.0
                    self._advance()
                return name, batch, cost_s
            self._advance()

    def _advance(self) -> None:
        self._cursor = (self._cursor + 1) % len(self._order)
        self._credited = False


class Lane:
    """One request stream's share of the serving loop.

    A lane owns everything that is per-stream rather than per-fleet: graph,
    model, sampler, result cache, batcher, the probe-calibrated time scales
    (SLO, batch timeout, continuous-batching budgets) and the cost EWMAs the
    control plane reads.  Single-tenant serving runs one lane named ``""``;
    multi-tenant serving runs one :class:`~repro.serving.tenancy.\
TenantRuntime` lane per tenant.  The lane's name is its key space in the
    per-chip feature caches and halo caches, so vertex ids from different
    tenants' graphs never alias.

    The simulator binds ``shard_executor`` / ``stream`` on sharded and
    mutating runs; :meth:`reset` arms a fresh batcher and cost estimates.
    """

    def __init__(self, name: str, graph: Graph, model, sampler: SubgraphSampler,
                 dataset_name: str, fleet: FleetConfig, *, seed: int,
                 max_batch_size: int, batch_policy: str, cache_size: int,
                 slo_s: Optional[float] = None,
                 batch_timeout_s: Optional[float] = None):
        self.name = name
        self.graph = graph
        self.model = model
        self.sampler = sampler
        self.dataset_name = dataset_name
        self.fleet = fleet
        self.seed = seed
        self.max_batch_size = max_batch_size
        self.batch_policy = batch_policy
        self._slo_s = slo_s
        self._batch_timeout_s = batch_timeout_s
        self.result_cache = LRUCache(cache_size)
        self.overlap_aware = batch_policy in ("overlap", "continuous")
        self.probe_batch_size = min(max_batch_size, graph.num_vertices)
        self._shapes = fleet.distinct_shapes()
        self._probe_by_shape: Dict[str, float] = {}
        # shape tracking: a mixed roster always accounts shapes; shape-aware
        # dispatch additionally scores with them (on a homogeneous fleet it
        # degenerates to least-loaded).  Service rates are model/dataset-
        # specific, so every lane learns its own per-(shape, bucket) rates.
        track = fleet.heterogeneous or fleet.dispatch == "shape-aware"
        self.shape_scorer: Optional[ShapeScorer] = \
            ShapeScorer() if track else None
        self.profile_fn = make_profile_fn(sampler, graph.feature_length) \
            if track else None
        self.shard_executor: Optional[ShardExecutor] = None
        self.stream: Optional[StreamState] = None
        self.batcher = None
        self.batching: Optional[BatchingStats] = None
        self.overlap_ewma = 0.0
        self.cost_per_request_s = 0.0
        self.arrivals_left = 0
        self.scheduled_flush: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Adaptive time scales
    # ------------------------------------------------------------------ #
    def probe_for_shape(self, shape: str) -> float:
        """Probe-batch service time on one chip shape (memoised per shape)."""
        cached = self._probe_by_shape.get(shape)
        if cached is None:
            cached = probe_batch_service_time_s(
                self._shapes[shape], self.sampler, self.model,
                self.dataset_name, self.max_batch_size,
                self.graph.num_vertices, self.seed)
            self._probe_by_shape[shape] = cached
        return cached

    @property
    def probe_service_s(self) -> float:
        """Service time of one full batch of uniformly-drawn distinct targets.

        On a heterogeneous fleet this is the **slowest** shape's probe time,
        so adaptive timeouts and SLOs stay meetable wherever a batch lands;
        a homogeneous fleet reduces to its single probe.
        """
        return max(self.probe_for_shape(shape) for shape in self._shapes)

    @property
    def slo_s(self) -> float:
        """The latency SLO: configured value, or a multiple of the probe service."""
        if self._slo_s is not None:
            return self._slo_s
        return _SLO_SERVICE_MULTIPLE * self.probe_service_s

    @property
    def batch_timeout_s(self) -> float:
        """Timeout-flush budget: configured, or a multiple of the probe service."""
        if self._batch_timeout_s is not None:
            return self._batch_timeout_s
        return _TIMEOUT_SERVICE_MULTIPLE * self.probe_service_s

    @property
    def join_window_s(self) -> float:
        """Continuous-batching join window: configured, or the batch timeout."""
        if self.fleet.join_window_s is not None:
            return self.fleet.join_window_s
        return self.batch_timeout_s

    @property
    def staleness_s(self) -> float:
        """Continuous-batching staleness budget: configured, or half the SLO."""
        if self.fleet.staleness_s is not None:
            return self.fleet.staleness_s
        return 0.5 * self.slo_s

    def probe_fused_size(self) -> Tuple[int, int]:
        """``(fused, naive)`` vertex counts of the probe batch."""
        targets = probe_targets(self.graph.num_vertices, self.max_batch_size,
                                self.seed)
        return self.sampler.fused_size((int(t), None, None) for t in targets)

    def seed_scorer(self, fused: int, naive: int) -> None:
        """Prime the shape scorer from the per-shape probe batches.

        The probe batch has one well-defined profile bucket; each shape's
        probe time over the probe's fused size seeds that bucket's rate, so
        the first real batch of the common regime can already be scored.
        Other buckets stay cold until traffic warms them.  Idempotent: seeds
        never clobber rates a previous run learned.
        """
        bucket = BatchProfile(est_fused_vertices=fused,
                              est_naive_vertices=naive,
                              batch_size=self.probe_batch_size,
                              feature_length=self.graph.feature_length).bucket
        for shape in self._shapes:
            self.shape_scorer.seed(shape, bucket,
                                   self.probe_for_shape(shape) / max(fused, 1))

    def reset(self) -> None:
        """Arm a fresh batcher, batching stats and cost estimates."""
        fleet = self.fleet
        self.batcher = build_batch_policy(
            self.batch_policy, max_batch_size=self.max_batch_size,
            timeout_s=self.batch_timeout_s, slo_s=self.slo_s,
            signature_fn=make_signature_fn(
                self.sampler, self.sampler.num_hops, self.sampler.fanout,
                overlap_k=fleet.overlap_k) if self.overlap_aware else None,
            min_overlap=fleet.min_overlap, pool_factor=fleet.pool_factor,
            join_window_s=self.join_window_s, staleness_s=self.staleness_s,
            tenant=self.name)
        self.batching = BatchingStats(policy=self.batch_policy)
        self.overlap_ewma = 0.0
        # admission-control cost model: EWMA of service seconds per request
        # (duplicates included -- backlog accounting is per request)
        self.cost_per_request_s = self.probe_service_s / self.probe_batch_size
        self.scheduled_flush = None

    def observe_cost(self, batch: Batch, service_s: float) -> None:
        """Fold an observed batch service time into the cost EWMAs."""
        a = _COST_EWMA_ALPHA
        self.overlap_ewma = a * batch.overlap_ratio + (1 - a) * self.overlap_ewma
        self.cost_per_request_s = a * (service_s / batch.size) \
            + (1 - a) * self.cost_per_request_s


class FleetSimulator:
    """What both serving simulators share: the chip roster, sharded and
    streaming set-up over the lanes, and the service-time model.

    :class:`ServingSimulator` (one lane, per-chip queues) and
    :class:`~repro.serving.tenancy.MultiTenantSimulator` (one lane per
    tenant, WFQ pull) subclass it and drive the same :class:`_EventLoop`.

    Passing a :class:`~repro.serving.control.ControlConfig` with any lever
    armed makes the run *elastic*: the loop consults a fresh
    :class:`~repro.serving.control.ControlPlane` on every cache-missing
    arrival (admission / degradation) and at every control interval
    (autoscaling between ``min_chips`` and ``max_chips``, with warm-up and
    drain-before-remove semantics).  The initial fleet size is
    ``num_chips`` clamped into the autoscaler's band.
    """

    def __init__(self, fleet: FleetConfig, lanes: Sequence[Lane],
                 control: Optional[ControlConfig], observe, capture, updates):
        self.fleet = fleet
        self.lanes = list(lanes)
        #: Observability hub (:class:`repro.serving.observe.Instrumentation`)
        #: or ``None``; hooks are guarded so an uninstrumented run executes
        #: no observability code.
        self.observe = observe
        #: Request-trace capture hub (:class:`repro.serving.trace.TraceWriter`)
        #: or ``None``.  Records every *offered* request at its arrival
        #: event -- before the cache lookup and before the control plane's
        #: admission/degradation gate -- so a capture replays bit-for-bit.
        self.capture = capture
        #: Streaming-update stream (:class:`repro.serving.streaming.
        #: UpdateStream`) or ``None``; its events may still be empty at
        #: construction (the end-to-end drivers fill them once the arrival
        #: rates are resolved) and are read when a run starts.
        self.updates = updates
        self.control_config = control if control is not None and control.active \
            else None
        initial_chips = fleet.num_chips
        if self.control_config is not None \
                and self.control_config.autoscale is not None:
            # only the autoscaler's band constrains the fleet; admission/
            # degrade-only control leaves the configured size untouched
            initial_chips = max(self.control_config.min_chips,
                                min(self.control_config.max_chips,
                                    initial_chips))
        roster = fleet.chip_roster()
        # a min-chips band wider than the spec cycles the roster
        self.chips = [Chip(i, roster[i % len(roster)][1],
                           fleet.feature_cache_size,
                           shape=roster[i % len(roster)][0])
                      for i in range(initial_chips)]
        self._next_chip_id = initial_chips
        self._shapes = fleet.distinct_shapes()
        self._track_shapes = fleet.heterogeneous \
            or fleet.dispatch == "shape-aware"
        #: Fleet-wide sharded-execution stats (None on an unsharded fleet).
        #: Chip 0 is the group leader and stays ``active``; the other chips
        #: become non-schedulable ``member`` chips serving sub-batches off
        #: the leader's clock.  Every lane gets its own executor, and they
        #: all fold into this one object and share the halo caches.
        self.sharding_stats: Optional[ShardingStats] = None
        sharding = fleet.sharding
        if sharding is not None:
            if self.control_config is not None:
                raise ValueError(
                    "sharded execution cannot be combined with the elastic "
                    "control plane (a chip group cannot scale mid-run)")
            for chip in self.chips[1:]:
                chip.state = "member"
            self.sharding_stats = ShardingStats(
                num_shards=sharding.num_shards,
                partitioner=sharding.partitioner)
            feature_bytes = [lane.graph.feature_length
                             * lane.graph.features.dtype.itemsize
                             for lane in self.lanes]
            # capacity is sized by the largest feature vector, so no lane
            # over-fits the shared halo caches
            capacity = int(sharding.halo_cache_mb * (1 << 20)
                           / max(max(feature_bytes), 1))
            halo_caches = [LRUCache(capacity)
                           for _ in range(sharding.num_shards)]
            for lane, nbytes in zip(self.lanes, feature_bytes):
                lane.shard_executor = ShardExecutor(
                    shard_plan_for(lane.graph, sharding), self.chips,
                    lane.sampler, lane.model, lane.dataset_name, sharding,
                    feature_bytes=nbytes, stats=self.sharding_stats,
                    halo_caches=halo_caches, key_space=lane.name)
        #: Consistency stats of a mutating run (None on a static one); every
        #: lane serves its own graph through its own StreamState, and they
        #: all fold into this one object.
        self.consistency: Optional[ConsistencyStats] = None
        if updates is not None:
            self.consistency = ConsistencyStats(
                policy=updates.policy,
                budget_versions=updates.staleness_budget_versions)
            for lane in self.lanes:
                lane.stream = StreamState(
                    lane.graph, lane.sampler, updates, self.consistency,
                    result_cache=lane.result_cache, chips=self.chips,
                    key_space=lane.name,
                    shard_executor=lane.shard_executor, observe=observe)
        #: The control plane of the most recent run (None when fixed).
        self.control: Optional[ControlPlane] = None

    def _new_chip(self, shape: Optional[str] = None) -> Chip:
        """An unrostered chip of ``shape`` (the base shape when ``None``)."""
        if shape is None:
            shape, hw = self.fleet.base_shape, self.fleet.hw
        else:
            hw = self._shapes[shape]
        chip = Chip(self._next_chip_id, hw, self.fleet.feature_cache_size,
                    shape=shape)
        self._next_chip_id += 1
        return chip

    def _service_time_s(self, chip: Chip, lane: Lane, batch: Batch,
                        now: float) -> float:
        """Simulated execution time of ``lane``'s fused batch on ``chip``
        (see :func:`fused_batch_service_time_s`).

        On a sharded fleet (>1 shard) the batch executes across the whole
        chip group instead (:meth:`ShardExecutor.service_time_s`, ``chip``
        is the group leader); a one-shard group takes the single-chip path
        verbatim, which keeps its report bit-for-bit identical to an
        unsharded run.
        """
        executor = lane.shard_executor
        if executor is not None and executor.plan.num_shards > 1:
            return executor.service_time_s(
                batch, reuse_discount=self.fleet.reuse_discount, now=now)
        return fused_batch_service_time_s(
            chip, lane.sampler, lane.model, batch,
            dataset_name=lane.dataset_name,
            reuse_discount=self.fleet.reuse_discount,
            key_space=lane.name, stream=lane.stream, now=now)


class _EventLoop:
    """One run of the discrete-event serving loop over a list of lanes.

    The loop advances a simulated clock over seven event kinds: arrivals
    (result-cache hits, admission/degradation, batch formation), batching
    flush deadlines, chip completions, streaming updates, control ticks,
    chip warm-ups and metrics scrapes.  Everything between batch formation
    and the chips is the *dispatch stage*, which subclasses supply --
    per-chip queues (:class:`_ChipQueueLoop`, single-tenant) or a
    weighted-fair-queueing pull (``_WFQLoop`` in
    :mod:`repro.serving.tenancy`) -- by implementing ``enqueue(lane,
    batch, now)`` (a formed batch enters the stage), ``after_completion(
    chip, now)``, ``drain_victim(actives)`` (which chip a homogeneous
    scale-in drains), ``control_bindings()`` (per-lane bindings and the
    per-chip capacity for the control plane) and ``stage_gauges()``
    (queue and in-flight gauges), and optionally :meth:`pump` and
    :meth:`on_join`.
    """

    def __init__(self, sim: FleetSimulator, requests: Sequence[Request],
                 hetero_stats: Optional[HeteroStats]):
        self.sim = sim
        self.lanes = sim.lanes
        self.by_name = {lane.name: lane for lane in self.lanes}
        self.chips = sim.chips
        self.observe = sim.observe
        self.hetero_stats = hetero_stats
        # shape-aware dispatch counts demand when it picks a chip
        self.note_demand = sim.fleet.dispatch != "shape-aware"
        self.records: List[RequestRecord] = []
        self.events: List[Tuple[float, int, int, object]] = []
        self.seq = 0
        self.queued_s: Dict[Tuple[str, int], float] = {}   # batch -> enqueued
        self.started_s: Dict[Tuple[str, int], float] = {}  # batch -> started
        self.running: Dict[int, Tuple[Lane, Batch]] = {}   # chip id -> batch
        # time-weighted in-flight integral for the avg queue-pressure metric
        self.in_flight = 0
        self.requests = requests
        self.t0 = requests[0].arrival_time_s if requests else 0.0
        self.last_t = self.t0
        self.in_flight_area = 0.0
        # control plane (elastic runs only)
        self.control: Optional[ControlPlane] = None
        self.scaler: Optional[FleetScaler] = None
        self.backlog_cost_s = 0.0
        self.request_cost_s: Dict[int, float] = {}
        self.arrivals_interval = self.completions_interval = 0
        self.violations_interval = self.shed_interval = 0
        self.busy_snapshot_s = 0.0
        # fleet-wide per-request cost EWMA for the sizing policies
        self.fleet_cost_per_request_s = float(np.mean(
            [lane.cost_per_request_s for lane in self.lanes]))
        self.metrics_interval_s = 0.0

    def pump(self, now: float) -> None:
        """Start queued batches on free chips (stages that pull)."""

    def on_join(self, lane: Lane, batch: Batch) -> None:
        """A request late-joined ``batch`` while it waited for a chip."""

    # ------------------------------------------------------------------ #
    # Shared machinery
    # ------------------------------------------------------------------ #
    def push(self, time_s: float, kind: int, payload=None) -> None:
        heapq.heappush(self.events, (time_s, self.seq, kind, payload))
        self.seq += 1

    def demanding(self) -> bool:
        """True while requests are still to arrive or in flight."""
        return self.in_flight > 0 or any(lane.arrivals_left > 0
                                         for lane in self.lanes)

    def schedule_flush(self, lane: Lane, now: float) -> None:
        deadline = lane.batcher.next_deadline(now)
        if deadline is not None and deadline != lane.scheduled_flush:
            self.push(max(deadline, now), _FLUSH, lane)
            lane.scheduled_flush = deadline

    def begin_service(self, chip: Chip, lane: Lane, batch: Batch,
                      now: float) -> float:
        """Serve a sealed ``batch`` on ``chip``; returns its service time."""
        chip.current = batch
        self.running[chip.chip_id] = (lane, batch)
        self.started_s[(lane.name, batch.batch_id)] = now
        if lane.stream is not None:
            # differential consistency check at the moment of service:
            # observation only, so it cannot change simulated timings
            lane.stream.check_batch(batch, now)
        service_s = self.sim._service_time_s(chip, lane, batch, now)
        if self.hetero_stats is not None:
            account_batch_service(
                lane.shape_scorer, self.hetero_stats, batch, lane.profile_fn,
                chip.shape, service_s,
                {c.shape for c in self.chips if c.state == "active"},
                note_demand=self.note_demand)
        lane.observe_cost(batch, service_s)
        lane.batching.observe_batch(batch)
        lane.batcher.observe_service_time(service_s)
        a = _COST_EWMA_ALPHA
        self.fleet_cost_per_request_s = a * (service_s / batch.size) \
            + (1 - a) * self.fleet_cost_per_request_s
        chip.stats.busy_s += service_s
        self.push(now + service_s, _COMPLETION, chip)
        # the service observation may have tightened an SLO-aware
        # deadline for requests already pending -- re-arm the timer
        self.schedule_flush(lane, now)
        return service_s

    def complete(self, chip: Chip, now: float) -> None:
        lane, batch = self.running.pop(chip.chip_id)
        chip.current = None
        chip.stats.batches_served += 1
        chip.stats.requests_served += batch.size
        queued = self.queued_s.pop((lane.name, batch.batch_id))
        started = self.started_s.pop((lane.name, batch.batch_id))
        slo_s = lane.slo_s
        for request in batch.requests:
            self.records.append(RequestRecord(
                request_id=request.request_id,
                target_vertex=request.target_vertex,
                arrival_time_s=request.arrival_time_s,
                # a late-joined request entered after the batch was
                # enqueued: its batching wait ends at its own arrival
                dispatch_time_s=max(queued, request.arrival_time_s),
                service_start_s=started,
                completion_time_s=now,
                cache_hit=False,
                chip_id=chip.chip_id,
                batch_id=batch.batch_id,
                tenant=lane.name,
                degrade_level=request.degrade_level,
            ))
            # degraded answers are lower fidelity: keep them out of the
            # result cache so later hits never silently inherit the loss
            if request.degrade_level == 0:
                lane.result_cache.put(request.target_vertex, now)
                if lane.stream is not None:
                    lane.stream.register_result(request.target_vertex, now)
            self.in_flight -= 1
            self.completions_interval += 1
            if now - request.arrival_time_s > slo_s:
                self.violations_interval += 1
            self.backlog_cost_s -= self.request_cost_s.pop(
                request.request_id, 0.0)
        if self.observe is not None:
            self.observe.on_batch_complete(now, chip, batch, queued, started,
                                           tenant=lane.name)
            self.observe.on_shard_batch_complete(now, batch, started)
        self.after_completion(chip, now)

    def arrive(self, request: Request, now: float) -> None:
        lane = self.by_name[request.tenant]
        lane.arrivals_left -= 1
        self.arrivals_interval += 1
        if self.sim.capture is not None:
            self.sim.capture.record(request)
        if lane.result_cache.get(request.target_vertex) is not None:
            if lane.stream is not None:
                lane.stream.on_result_hit(request.target_vertex, now)
            done = now + self.sim.fleet.cache_hit_latency_s
            self.records.append(RequestRecord(
                request_id=request.request_id,
                target_vertex=request.target_vertex,
                arrival_time_s=request.arrival_time_s,
                dispatch_time_s=done,
                service_start_s=done,
                completion_time_s=done,
                cache_hit=True,
                tenant=lane.name,
            ))
            if self.observe is not None:
                self.observe.on_cache_hit(now, request, done, tenant=lane.name)
        else:
            admitted = True
            control = self.control
            if control is not None:
                active = sum(1 for c in self.chips if c.schedulable)
                decision = control.admit(
                    lane.name, now, self.backlog_cost_s / max(1, active),
                    lane.cost_per_request_s,
                    overlap_ratio=lane.overlap_ewma if lane.overlap_aware
                    else 0.0)
                admitted = decision.admitted
                if not admitted:
                    self.shed_interval += 1
                elif decision.level > 0:
                    request = replace(request, degrade_level=decision.level,
                                      degrade_hops=decision.num_hops,
                                      degrade_fanout=decision.fanout)
                if admitted:
                    cost = lane.cost_per_request_s * decision.cost_scale
                    self.request_cost_s[request.request_id] = cost
                    self.backlog_cost_s += cost
            if admitted:
                self.in_flight += 1
                # continuous batching: a formed batch still waiting for a
                # chip may absorb the request outright (its completion will
                # cover it); otherwise accumulate as usual
                joined = lane.batcher.try_join(request, now)
                if joined is not None:
                    self.on_join(lane, joined)
                else:
                    batch = lane.batcher.add(request, now)
                    if batch is not None:
                        self.enqueue(lane, batch, now)
                        self.pump(now)
                    # re-arm in every case: formation policies can emit a
                    # subset and leave a deadline pending
                    self.schedule_flush(lane, now)
        if lane.arrivals_left == 0 and lane.batcher.pending_count \
                and lane.batcher.next_deadline(now) is None:
            # end of this lane's stream under a pure size cap: drain the rest
            for leftover in lane.batcher.drain(now):
                self.enqueue(lane, leftover, now)
            self.pump(now)

    def control_tick(self, now: float) -> None:
        control, scaler = self.control, self.scaler
        active, warming, draining = scaler.counts()
        busy_total_s = sum(c.stats.busy_s for c in self.chips)
        interval_s = control.control_interval_s
        utilization = (busy_total_s - self.busy_snapshot_s) \
            / (interval_s * max(1, active))
        obs = ControlObservation(
            now_s=now,
            interval_s=interval_s,
            active_chips=active,
            warming_chips=warming,
            draining_chips=draining,
            queue_depth=self.in_flight,
            backlog_cost_s=self.backlog_cost_s,
            arrivals=self.arrivals_interval,
            completions=self.completions_interval,
            violations=self.violations_interval,
            shed=self.shed_interval,
            utilization=min(1.0, utilization),
            cost_per_request_s=self.fleet_cost_per_request_s,
            # the tightest lane SLO anchors the fleet-level delay signal
            slo_s=min(lane.slo_s for lane in self.lanes),
        )
        scaler.scale_to(control.tick(obs), now)
        self.busy_snapshot_s = busy_total_s
        self.arrivals_interval = self.completions_interval = 0
        self.violations_interval = self.shed_interval = 0
        if self.demanding():
            self.push(now + interval_s, _CONTROL)

    def metrics_snapshot(self, now: float) -> Dict:
        gauges = self.stage_gauges()
        stats = self.sim.sharding_stats
        if stats is not None:
            gauges["repro_halo_hit_rate"] = stats.halo_hit_rate
            gauges["repro_halo_bytes_moved"] = stats.halo_bytes_moved
            gauges["repro_shard_load_imbalance"] = stats.load_imbalance
        elapsed = now - self.t0
        if elapsed > 0:
            for shape in self.sim._shapes:
                members = [c for c in self.chips if c.shape == shape]
                busy = sum(c.stats.busy_s for c in members)
                gauges[("repro_busy_fraction", (("shape", shape),))] = \
                    busy / (elapsed * len(members)) if members else 0.0
        return gauges

    def _arm_control(self) -> None:
        sim = self.sim
        control = self.control = sim.control = ControlPlane(sim.control_config)
        if self.observe is not None:
            control.instrumentation = self.observe
        bindings, capacity_per_chip_rps = self.control_bindings()
        control.bind(bindings, initial_chips=len(self.chips),
                     probe_service_s=min(lane.probe_service_s
                                         for lane in self.lanes),
                     capacity_per_chip_rps=capacity_per_chip_rps)
        self.push(self.t0 + control.control_interval_s, _CONTROL)
        chooser: Optional[ShapeChooser] = None
        if len(sim._shapes) > 1:
            chooser = ShapeChooser(
                sim.control_config.scale_shape, sim._shapes,
                scorers=[lane.shape_scorer for lane in self.lanes
                         if lane.shape_scorer is not None])
        self.scaler = FleetScaler(
            self.chips, control, sim._new_chip,
            lambda chip: self.push(chip.ready_s, _CHIP_READY, chip),
            # heterogeneous scale-downs drain the shape the demand needs
            # least; homogeneous ones follow the dispatch stage
            chooser.retire_victim if chooser is not None
            else self.drain_victim,
            shape_chooser=chooser)

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #
    def run(self) -> None:
        sim, observe, requests = self.sim, self.observe, self.requests
        for lane in self.lanes:
            lane.arrivals_left = 0
            if observe is not None:
                lane.batcher.instrumentation = observe
        for request in requests:
            if request.tenant not in self.by_name:
                raise ValueError(f"request tagged with unknown tenant "
                                 f"{request.tenant!r}")
            self.by_name[request.tenant].arrivals_left += 1
        for request in requests:
            self.push(request.arrival_time_s, _ARRIVAL, request)
        if sim.updates is not None:
            # updates enter the same heap; requests pushed first, so a
            # request at the identical timestamp wins the tie (a query
            # races an update: the query is served, then the graph moves)
            for event in sim.updates.events:
                if event.tenant not in self.by_name:
                    raise ValueError(f"update tagged with unknown tenant "
                                     f"{event.tenant!r}")
                self.push(event.arrival_time_s, _UPDATE, event)
        for chip in self.chips:
            chip.added_s = self.t0
            chip.ready_s = self.t0
        if sim.control_config is not None and requests:
            self._arm_control()
        wants_metrics = observe is not None and observe.wants_metrics \
            and bool(requests)
        if wants_metrics:
            from .observe import METRICS_PROBE_MULTIPLE
            self.metrics_interval_s = observe.metrics_interval_s \
                if observe.metrics_interval_s is not None \
                else METRICS_PROBE_MULTIPLE * min(lane.probe_service_s
                                                  for lane in self.lanes)
            self.push(self.t0 + self.metrics_interval_s, _METRICS)

        events = self.events
        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == _METRICS:
                # handled before the in-flight integral update so the
                # float accounting (and hence the report) stays bit-for-bit
                # identical to an uninstrumented run
                observe.scrape(now, self.metrics_snapshot(now))
                if self.demanding():
                    self.push(now + self.metrics_interval_s, _METRICS)
                continue
            self.in_flight_area += self.in_flight * (now - self.last_t)
            self.last_t = now
            if kind == _ARRIVAL:
                self.arrive(payload, now)
            elif kind == _FLUSH:
                lane = payload
                lane.scheduled_flush = None
                batch = lane.batcher.flush_due(now)
                if batch is not None:
                    self.enqueue(lane, batch, now)
                    self.pump(now)
                self.schedule_flush(lane, now)
            elif kind == _COMPLETION:
                self.complete(payload, now)
            elif kind == _UPDATE:
                # recorded before application, mirroring request capture at
                # arrival, so a captured trace replays the offered stream
                if sim.capture is not None:
                    sim.capture.record_update(payload)
                self.by_name[payload.tenant].stream.apply(now, payload)
            elif kind == _CONTROL:
                self.control_tick(now)
            else:  # _CHIP_READY
                if self.scaler.mark_ready(payload, now):
                    self.pump(now)

        if wants_metrics:
            # closing scrape (outside the loop, so it cannot perturb the
            # integral): even a run shorter than the interval gets >= 1 row
            observe.scrape(self.last_t, self.metrics_snapshot(self.last_t))
        span = self.last_t - self.t0
        self.avg_in_flight = self.in_flight_area / span if span > 0 else 0.0
        self._close_books()

    def _close_books(self) -> None:
        """Fold the finished run into the fleet-wide stats objects."""
        if self.hetero_stats is not None:
            counts = self.hetero_stats.shape_counts
            for chip in self.chips:
                counts[chip.shape] = counts.get(chip.shape, 0) + 1
        latencies = [r.latency_s for r in self.records]
        stats = self.sim.sharding_stats
        if stats is not None:
            stats.p50_s = percentile(latencies, 50)
            stats.p95_s = percentile(latencies, 95)
            stats.p99_s = percentile(latencies, 99)
        if self.sim.consistency is not None:
            for lane in self.lanes:
                lane.stream.finalize()
            self.sim.consistency.p99_s = percentile(latencies, 99)


class _ChipQueueLoop(_EventLoop):
    """Single-tenant dispatch stage: a formed batch is routed to one chip by
    the fleet's dispatch policy (:func:`_build_dispatch`) and waits in that
    chip's private FIFO queue; a chip that finishes starts its next queued
    batch before it may retire."""

    def __init__(self, sim: "ServingSimulator", requests: Sequence[Request],
                 hetero_stats: Optional[HeteroStats]):
        super().__init__(sim, requests, hetero_stats)
        self.lane = self.lanes[0]
        self.dispatch = sim._dispatch
        self.max_queue_depth = 0

    def _track_depth(self, depth: int) -> None:
        self.max_queue_depth = max(self.max_queue_depth, depth)

    def enqueue(self, lane: Lane, batch: Batch, now: float) -> None:
        chip = self.dispatch.select(
            [c for c in self.chips if c.schedulable], batch)
        chip.queue.append((batch, now))
        self.queued_s[(lane.name, batch.batch_id)] = now
        self._track_depth(sum(b.size for b, _ in chip.queue))
        if not chip.busy:
            self._start_next(chip, now)

    def _start_next(self, chip: Chip, now: float) -> None:
        batch, _ = chip.queue.popleft()
        # seal before costing: a batch being served can take no joins,
        # and the service time must cover its final membership
        self.lane.batcher.on_service_start(batch)
        self.begin_service(chip, self.lane, batch, now)

    def on_join(self, lane: Lane, batch: Batch) -> None:
        # the join deepened some chip's queue in place
        self._track_depth(max((sum(b.size for b, _ in c.queue)
                               for c in self.chips), default=0))

    def after_completion(self, chip: Chip, now: float) -> None:
        if chip.queue:
            self._start_next(chip, now)
        elif chip.state == "draining":
            self.scaler.retire(chip, now)

    def drain_victim(self, actives: List[Chip]) -> Chip:
        # the emptiest queue, so the least work gets stranded
        return min(actives, key=lambda c: (c.outstanding_requests, -c.chip_id))

    def control_bindings(self) -> Tuple[List[TenantBinding], float]:
        lane = self.lane
        return ([TenantBinding(name=lane.name, slo_s=lane.slo_s,
                               num_hops=lane.sampler.num_hops,
                               fanout=lane.sampler.fanout)],
                lane.probe_batch_size / max(lane.probe_service_s, 1e-12))

    def stage_gauges(self) -> Dict:
        return {
            "repro_queue_depth": self.lane.batcher.pending_count,
            "repro_in_flight_requests": self.in_flight,
            "repro_in_flight_batches": sum(
                len(c.queue) + (1 if c.busy else 0) for c in self.chips),
            "repro_overlap_ratio_ewma": self.lane.overlap_ewma,
        }


class ServingSimulator(FleetSimulator):
    """Discrete-event simulation of online inference over a chip fleet.

    One lane (``""``) feeds the shared :class:`_EventLoop` through per-chip
    queues.  ``updates`` (:class:`repro.serving.streaming.UpdateStream`)
    arms live graph mutation: the graph is wrapped in a
    :class:`~repro.graphs.delta.DeltaGraph` and the stream's events are
    interleaved with query traffic.
    """

    def __init__(self, graph: Graph, model, config: Optional[FleetConfig] = None,
                 dataset_name: Optional[str] = None,
                 control: Optional[ControlConfig] = None,
                 observe=None, capture=None, updates=None):
        cfg = config or FleetConfig()
        if updates is not None and not isinstance(graph, DeltaGraph):
            graph = DeltaGraph(graph, compact_every=updates.compact_every)
        self.graph = graph
        self.model = model
        self.dataset_name = dataset_name or graph.name
        self.sampler = SubgraphSampler(graph, num_hops=cfg.num_hops,
                                       fanout=cfg.fanout, seed=cfg.seed)
        self._lane = Lane("", graph, model, self.sampler, self.dataset_name,
                          cfg, seed=cfg.seed,
                          max_batch_size=cfg.max_batch_size,
                          batch_policy=cfg.batch_policy,
                          cache_size=cfg.cache_size, slo_s=cfg.slo_s,
                          batch_timeout_s=cfg.batch_timeout_s)
        super().__init__(cfg, [self._lane], control, observe, capture, updates)
        self.result_cache = self._lane.result_cache
        #: The per-(shape, bucket) service-rate model (None when untracked);
        #: seeded from the per-shape probe batches at the start of each run.
        self.scorer: Optional[ShapeScorer] = self._lane.shape_scorer
        self._dispatch = _build_dispatch(cfg.dispatch, graph.num_vertices,
                                         len(self.chips), scorer=self.scorer,
                                         profile_fn=self._lane.profile_fn)
        #: The batcher of the most recent :meth:`run` (None before a run);
        #: tests replay ``ContinuousBatcher.join_log`` through it to prove
        #: the late-join budgets held.
        self.batcher = None

    @property
    def config(self) -> FleetConfig:
        return self.fleet

    # ------------------------------------------------------------------ #
    # Adaptive time scales (the lane's, see Lane)
    # ------------------------------------------------------------------ #
    @property
    def probe_service_time_s(self) -> float:
        """The probe batch's service time on the slowest chip shape."""
        return self._lane.probe_service_s

    @property
    def slo_s(self) -> float:
        return self._lane.slo_s

    @property
    def join_window_s(self) -> float:
        return self._lane.join_window_s

    @property
    def staleness_s(self) -> float:
        return self._lane.staleness_s

    def calibrate_rate(self, utilization_target: float = 0.7) -> float:
        """Arrival rate that loads the fleet to ``utilization_target``.

        A probe batch of ``max_batch_size`` distinct uniformly-drawn targets is
        simulated once per chip shape; the fleet's aggregate request
        throughput at full utilisation sums each chip's
        ``max_batch_size / service_time`` over the configured roster (which
        for a homogeneous fleet is the familiar
        ``num_chips * max_batch_size / service_time``).  Targets above 1
        deliberately overload the fleet (a queueing-study regime).
        """
        if not 0 < utilization_target:
            raise ValueError("utilization_target must be positive")
        capacity_rps = sum(
            self._lane.probe_batch_size
            / max(self._lane.probe_for_shape(shape), 1e-12)
            for shape, _ in self.fleet.chip_roster())
        return utilization_target * capacity_rps

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[Request],
            rate_rps: float = 0.0) -> ServingReport:
        """Serve ``requests`` (sorted by arrival) and return the report."""
        cfg = self.fleet
        lane = self._lane
        report = ServingReport(
            model_name=getattr(self.model, "name", self.model.__class__.__name__),
            dataset_name=self.dataset_name,
            num_chips=len(self.chips),
            batch_policy=cfg.batch_policy,
            dispatch_policy=cfg.dispatch,
            rate_rps=rate_rps,
            slo_s=self.slo_s,
        )
        if not requests:
            report.chips = [chip.stats for chip in self.chips]
            return report

        # every run starts from a fresh batcher and cost estimates
        lane.reset()
        self.batcher = lane.batcher
        hetero_stats: Optional[HeteroStats] = None
        if self._track_shapes:
            lane.seed_scorer(*lane.probe_fused_size())
            hetero_stats = HeteroStats(dispatch_policy=cfg.dispatch)
            if isinstance(self._dispatch, _ShapeAwareDispatch):
                # counters are per run; the scorer's learned rates persist
                self._dispatch.scored = self._dispatch.fallback = 0
        loop = _ChipQueueLoop(self, requests, hetero_stats)
        loop.run()

        report.records = loop.records
        report.max_queue_depth = loop.max_queue_depth
        report.avg_in_flight = loop.avg_in_flight
        logger.info("served %d requests on %d chips in %.6f s simulated",
                    len(requests), len(self.chips), loop.last_t - loop.t0)
        report.chips = [chip.stats for chip in self.chips]
        report.cache = lane.result_cache.stats
        lane.batching.late_join_rejects = lane.batcher.late_join_rejects
        report.batching = lane.batching
        if hetero_stats is not None:
            if isinstance(self._dispatch, _ShapeAwareDispatch):
                hetero_stats.scored_batches = self._dispatch.scored
                hetero_stats.fallback_batches = self._dispatch.fallback
            hetero_stats.rates = self.scorer.snapshot()
            report.hetero = hetero_stats
        report.sharding = self.sharding_stats
        if loop.control is not None:
            report.control = loop.control.finalize(loop.last_t, self.chips)
        report.consistency = self.consistency
        return report


def run_serving(
    dataset: str = "CR",
    model_name: str = "GCN",
    num_requests: int = 1000,
    rate_rps: Optional[float] = None,
    arrival: str = "poisson",
    popularity_skew: float = 0.8,
    config: Optional[FleetConfig] = None,
    trace: Optional[Sequence[float]] = None,
    utilization_target: float = 0.7,
    seed: int = 0,
    control: Optional[ControlConfig] = None,
    peak_factor: float = 4.0,
    observe=None,
    capture=None,
    replay=None,
    update_rate: float = 0.0,
    update_mix: Optional[str] = None,
    invalidation: str = "targeted",
    staleness_budget: int = 0,
    updates=None,
) -> ServingReport:
    """End-to-end convenience: dataset -> traffic -> fleet -> report.

    When ``rate_rps`` is ``None`` the arrival rate is calibrated to load the
    fleet to ``utilization_target`` of its measured batch throughput, so the
    run exhibits realistic queueing on any dataset/model/hardware combination.
    For trace replay the timestamps fix the rate, so no calibration runs and
    the reported rate is the trace's own mean arrival rate.

    ``control`` arms the elastic control plane (see
    :mod:`repro.serving.control`); calibration still sizes the rate against
    the *configured* ``num_chips``, so an autoscaled run is comparable to the
    fixed fleet it elasticised.  ``peak_factor`` only matters for the ramp
    arrival process.  ``observe`` threads an
    :class:`~repro.serving.observe.Instrumentation` hub through the run
    (span traces + metrics); instrumenting never changes the report.

    ``capture`` threads a :class:`~repro.serving.trace.TraceWriter` through
    the run (every offered request is recorded, and the workload/sampling
    parameters a replay needs are stamped into ``capture.meta``); capturing
    never changes the report.  ``replay`` takes a
    :class:`~repro.serving.trace.RequestTrace` and serves its exact request
    stream instead of generating one -- with the same ``config``/``seed``
    the replayed report is bit-for-bit identical to the captured run's.
    """
    config = config or FleetConfig()
    fill_update_events = updates is None
    if fill_update_events:
        updates = open_update_stream(
            update_rate, [replay.num_requests if replay is not None
                          else num_requests],
            replay, invalidation, staleness_budget)
    graph = load_dataset(dataset, seed=seed)
    model = build_model(model_name, input_length=graph.feature_length)
    simulator = ServingSimulator(graph, model, config, dataset_name=dataset,
                                 control=control, observe=observe,
                                 capture=capture, updates=updates)
    if replay is not None:
        if replay.multi_tenant:
            raise ValueError(
                f"trace was captured from a multi-tenant run (tenants: "
                f"{', '.join(replay.tenant_names)}); replay it through "
                f"run_multi_tenant / `serve --tenants ... --replay`")
        arrival = "trace"
        num_requests = replay.num_requests
        if rate_rps is None:
            # the capturing run stamped its resolved rate so the replayed
            # report's rate_rps field matches bit-for-bit; fall back to the
            # trace's own mean arrival rate for hand-built traces
            stamped = replay.meta.get("rate_rps")
            rate_rps = float(stamped) if stamped is not None \
                else (replay.mean_rate_rps or 1.0)
        trace = replay
    if arrival == "trace":
        if rate_rps is None:
            times = trace_arrival_times(trace or [], num_requests)
            span = float(times[-1] - times[0]) if times.size > 1 else 0.0
            # N arrivals span N-1 inter-arrival gaps
            rate_rps = (times.size - 1) / span if span > 0 \
                else float(max(1, times.size))
    elif rate_rps is None:
        rate_rps = simulator.calibrate_rate(utilization_target)
    if fill_update_events and updates is not None:
        if replay is not None and replay.num_updates > 0:
            updates.events = replay.to_update_events()
        else:
            mix = parse_update_mix(update_mix) if update_mix else None
            updates.events = generate_update_stream(
                graph.num_vertices,
                num_updates=int(round(update_rate * num_requests)),
                rate_ups=update_rate * rate_rps, mix=mix, seed=seed)
    if capture is not None:
        # everything `serve --replay` / `trace-stats` needs to reproduce
        # and characterise this run, stamped before serving begins
        capture.meta.update({
            "kind": "serve", "dataset": dataset, "model": model_name,
            "num_hops": config.num_hops, "fanout": config.fanout,
            "seed": seed, "popularity_skew": popularity_skew,
            "arrival": arrival, "rate_rps": rate_rps,
            "num_chips": config.num_chips,
            "slo_s": simulator.slo_s,
        })
        if replay is not None:
            # re-capturing a replay keeps the original workload's
            # provenance (the offered process, not the replay mechanism),
            # so the new trace file is byte-identical to the one replayed
            for key in ("arrival", "popularity_skew", "seed"):
                if key in replay.meta:
                    capture.meta[key] = replay.meta[key]
        stamp_update_meta(capture.meta, updates, update_rate, update_mix,
                          replay)
    workload = WorkloadConfig(num_requests=num_requests, rate_rps=rate_rps,
                              arrival=arrival, popularity_skew=popularity_skew,
                              peak_factor=peak_factor, seed=seed)
    requests = RequestGenerator(graph.num_vertices, workload).generate(trace)
    return simulator.run(requests, rate_rps=rate_rps)
