"""Multi-accelerator fleet simulation driven by a discrete-event clock.

The fleet is ``num_chips`` independent :class:`~repro.core.simulator.HyGCNSimulator`
instances, each with a FIFO dispatch queue.  The event loop advances a
simulated clock over three event kinds:

* ``arrival``    -- a request enters: either answered by the result cache,
  late-joined into a formed-but-unstarted batch (``continuous`` formation,
  :mod:`repro.serving.batching`) or handed to the batcher (which may emit
  a batch immediately on its size cap);
* ``flush``      -- a batching-policy deadline fired (timeout / SLO budget);
  formation policies may emit an overlap group and keep the rest pending,
  so the loop re-arms the flush timer after every emission;
* ``completion`` -- a chip finished a batch: its requests complete, the
  result cache is populated, and the next queued batch starts.

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

Dispatch policies:

* ``round-robin``  -- cycle through the chips (oblivious, perfectly fair);
* ``least-loaded`` -- pick the chip with the fewest outstanding requests;
* ``locality``     -- route by the batch's majority vertex partition, trading
  load balance for feature-cache reuse;
* ``shape-aware``  -- heterogeneous fleets (:mod:`repro.serving.hetero`):
  rank schedulable chips by predicted finish time, where each chip's
  predicted service is its shape's learned seconds-per-fused-vertex for
  the batch's profile bucket; falls back to least-loaded while any
  candidate shape is still cold for that bucket.

This module also hosts :class:`WFQScheduler`, the weighted-fair-queueing
stage that multi-tenant serving (:mod:`repro.serving.tenancy`) inserts
between per-tenant batch formation and the chips: deficit round-robin over
per-tenant backlog queues, with each batch's cost being its estimated fused
service time, so chip-time (not batch count) is what gets shared in
proportion to tenant weights.

With a :class:`~repro.serving.control.ControlConfig` armed the fleet becomes
*elastic*: chips move through a warming -> active -> draining -> retired
lifecycle under the control plane's autoscaling decisions, arrivals pass an
admission/degradation gate before batching, and the report carries the
scaling timeline plus chip-seconds accounting.
"""

from __future__ import annotations

import heapq
import logging
import math
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
from .batcher import Batch
from .batching import (
    ALL_BATCH_POLICIES,
    BATCH_POLICIES,
    build_batch_policy,
    make_signature_fn,
    resolve_signature_hops,
)
from .cache import LRUCache
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
)
from .streaming import StreamState, UpdateStream, generate_update_stream, \
    parse_update_mix
from .workload import Request, RequestGenerator, WorkloadConfig, trace_arrival_times

__all__ = [
    "DISPATCH_POLICIES",
    "FleetConfig",
    "Chip",
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

#: EWMA weight for the per-request cost estimate the control plane consumes.
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
        if self.batch_timeout_s is not None and self.batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be positive when set")
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError("slo_s must be positive when set")
        if self.overlap_k is not None and self.overlap_k < 0:
            raise ValueError("overlap_k must be >= 0 when set")
        if not 0.0 <= self.min_overlap <= 1.0:
            raise ValueError("min_overlap must be in [0, 1]")
        if self.pool_factor < 1:
            raise ValueError("pool_factor must be >= 1")
        if self.join_window_s is not None and self.join_window_s <= 0:
            raise ValueError("join_window_s must be positive when set")
        if self.staleness_s is not None and self.staleness_s <= 0:
            raise ValueError("staleness_s must be positive when set")
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
        self.feature_cache = LRUCache(feature_cache_size)
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
                               cache_key=None, account: bool = True,
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
    stream).  ``cache_key`` maps a global vertex id to the feature-cache
    key -- multi-tenant serving passes ``lambda v: (tenant, v)`` so
    numerically-aliasing vertex ids from different tenants' graphs never
    share cache entries.

    Degraded requests (control-plane ladder) carry per-request hop/fanout
    overrides; subgraph *sharing* requires both the target and the sampling
    shape to match, so a degraded and a full-fidelity request for the same
    vertex contribute two distinct samples -- whose union still dedups the
    neighbourhood they have in common.
    """
    request_shapes = [(r.target_vertex, r.degrade_hops, r.degrade_fanout)
                      for r in batch.requests]
    shapes = list(dict.fromkeys(request_shapes))
    by_shape = {s: sampler.extract(s[0], num_hops=s[1], fanout=s[2])
                for s in shapes}
    samples = [by_shape[s] for s in shapes]
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
    key = cache_key if cache_key is not None else (lambda v: v)
    if stream is None:
        hits = sum(1 for v in vertices
                   if chip.feature_cache.get(key(v)) is not None)
        for v in vertices:
            chip.feature_cache.put(key(v), True)
    else:
        # streaming run: lines carry the feature version they were filled
        # at, so a hit can be consistency-checked against the vertex's
        # current feature version (stale only under --invalidation none)
        hits = 0
        for v in vertices:
            stamp = chip.feature_cache.get(key(v))
            if stamp is not None:
                hits += 1
                stream.on_feature_hit(int(v), stamp, now)
        for v in vertices:
            chip.feature_cache.put(key(v),
                                   stream.graph.feature_version(int(v)))
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

    Shared by the single- and multi-tenant event loops so warm-up,
    drain-before-remove and timeline accounting cannot drift between them.
    The loops stay in charge of their own event heaps (``schedule_ready``
    pushes the loop's ``_CHIP_READY`` event) and of which active chip a
    scale-in should drain (``drain_victim`` -- single-tenant chips hold
    private queues, multi-tenant chips pull from the shared WFQ stage).

    On a heterogeneous fleet a :class:`~repro.serving.hetero.ShapeChooser`
    decides *which shape* each scale-up commissions (the loops' drain
    victims already consult it on the way down); homogeneous fleets pass
    ``None`` and every new chip takes the fleet's base shape.
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


class ServingSimulator:
    """Discrete-event simulation of online inference over a chip fleet.

    Passing a :class:`~repro.serving.control.ControlConfig` with any lever
    armed makes the run *elastic*: the event loop consults a fresh
    :class:`~repro.serving.control.ControlPlane` on every cache-missing
    arrival (admission / degradation) and at every control interval
    (autoscaling between ``min_chips`` and ``max_chips``, with warm-up and
    drain-before-remove semantics).  The initial fleet size is
    ``num_chips`` clamped into the autoscaler's band.
    """

    def __init__(self, graph: Graph, model, config: Optional[FleetConfig] = None,
                 dataset_name: Optional[str] = None,
                 control: Optional[ControlConfig] = None,
                 observe=None, capture=None, updates=None):
        self.config = config or FleetConfig()
        #: Streaming-update hook (:class:`repro.serving.streaming.UpdateStream`)
        #: or ``None``; arming it wraps the graph in a mutable
        #: :class:`~repro.graphs.delta.DeltaGraph` and interleaves the
        #: stream's events with query traffic.  ``updates.events`` may
        #: still be empty at construction (the end-to-end driver fills
        #: them once the arrival rate is calibrated); they are read at
        #: :meth:`run`.
        self.updates = updates
        if updates is not None and not isinstance(graph, DeltaGraph):
            graph = DeltaGraph(graph, compact_every=updates.compact_every)
        #: Observability hub (:class:`repro.serving.observe.Instrumentation`)
        #: or ``None``; hooks are guarded so an uninstrumented run executes
        #: no observability code.
        self.observe = observe
        #: Request-trace capture hub (:class:`repro.serving.trace.TraceWriter`)
        #: or ``None``.  Records every *offered* request at its arrival
        #: event -- before the cache lookup and before the control plane's
        #: admission/degradation gate -- so a capture replays bit-for-bit.
        self.capture = capture
        self.graph = graph
        self.model = model
        self.dataset_name = dataset_name or graph.name
        cfg = self.config
        self.control_config = control if control is not None and control.active \
            else None
        self.sampler = SubgraphSampler(graph, num_hops=cfg.num_hops,
                                       fanout=cfg.fanout, seed=cfg.seed)
        initial_chips = cfg.num_chips
        if self.control_config is not None \
                and self.control_config.autoscale is not None:
            # only the autoscaler's band constrains the fleet; admission/
            # degrade-only control leaves the configured size untouched
            initial_chips = max(self.control_config.min_chips,
                                min(self.control_config.max_chips,
                                    cfg.num_chips))
        roster = cfg.chip_roster()
        # a min-chips band wider than the spec cycles the roster
        self.chips = [Chip(i, roster[i % len(roster)][1],
                           cfg.feature_cache_size,
                           shape=roster[i % len(roster)][0])
                      for i in range(initial_chips)]
        self._next_chip_id = initial_chips
        self._shapes = cfg.distinct_shapes()
        self.result_cache = LRUCache(cfg.cache_size)
        #: Sharded-execution driver (:mod:`repro.serving.sharding`), or
        #: ``None`` on an unsharded fleet.  Chip 0 is the group leader and
        #: stays ``active``; the other chips become non-schedulable
        #: ``member`` chips serving sub-batches off the leader's clock.
        self.shard_executor: Optional[ShardExecutor] = None
        if cfg.sharding is not None:
            if self.control_config is not None:
                raise ValueError(
                    "sharded execution cannot be combined with the elastic "
                    "control plane (a chip group cannot scale mid-run)")
            plan = shard_plan_for(graph, cfg.sharding)
            for chip in self.chips[1:]:
                chip.state = "member"
            self.shard_executor = ShardExecutor(
                plan, self.chips, self.sampler, self.model,
                self.dataset_name, cfg.sharding,
                feature_bytes=graph.feature_length
                * graph.features.dtype.itemsize)
        # shape tracking: a mixed roster always accounts shapes; the
        # shape-aware policy additionally scores with them (and works on a
        # homogeneous fleet, where it degenerates to least-loaded)
        self._track_shapes = cfg.heterogeneous or cfg.dispatch == "shape-aware"
        #: The per-(shape, bucket) service-rate model (None when untracked);
        #: seeded from the per-shape probe batches at the start of each run.
        self.scorer: Optional[ShapeScorer] = \
            ShapeScorer() if self._track_shapes else None
        self._profile_fn = make_profile_fn(self.sampler,
                                           graph.feature_length) \
            if self._track_shapes else None
        self._dispatch = _build_dispatch(cfg.dispatch, graph.num_vertices,
                                         initial_chips, scorer=self.scorer,
                                         profile_fn=self._profile_fn)
        self._probe_by_shape: Dict[str, float] = {}
        #: The control plane of the most recent :meth:`run` (None when fixed).
        self.control: Optional[ControlPlane] = None
        #: The batcher of the most recent :meth:`run` (None before a run);
        #: tests replay ``ContinuousBatcher.join_log`` through it to prove
        #: the late-join budgets held.
        self.batcher = None
        #: Streaming applier / consistency tracker, or ``None`` on a
        #: static run (see :mod:`repro.serving.streaming`).
        self.stream: Optional[StreamState] = None
        self.consistency: Optional[ConsistencyStats] = None
        if updates is not None:
            self.consistency = ConsistencyStats(
                policy=updates.policy,
                budget_versions=updates.staleness_budget_versions)
            self.stream = StreamState(
                graph, self.sampler, updates, self.consistency,
                result_cache=self.result_cache, chips=self.chips,
                shard_executor=self.shard_executor, observe=observe)

    # ------------------------------------------------------------------ #
    # Adaptive time scales
    # ------------------------------------------------------------------ #
    def probe_service_for_shape(self, shape: str) -> float:
        """Probe-batch service time on one chip shape (memoised per shape)."""
        cached = self._probe_by_shape.get(shape)
        if cached is None:
            cfg = self.config
            cached = probe_batch_service_time_s(
                self._shapes[shape], self.sampler, self.model,
                self.dataset_name, cfg.max_batch_size,
                self.graph.num_vertices, cfg.seed)
            self._probe_by_shape[shape] = cached
        return cached

    @property
    def probe_service_time_s(self) -> float:
        """Service time of one full batch of uniformly-drawn distinct targets.

        Computed once per shape and reused to calibrate the arrival rate and
        to resolve the adaptive timeout / SLO defaults.  On a heterogeneous
        fleet this is the **slowest** shape's probe time, so adaptive
        timeouts and SLOs stay meetable no matter where a batch lands; a
        homogeneous fleet reduces to the single probe it always ran.
        """
        return max(self.probe_service_for_shape(shape)
                   for shape in self._shapes)

    @property
    def slo_s(self) -> float:
        """The latency SLO: configured value, or a multiple of the probe service."""
        if self.config.slo_s is not None:
            return self.config.slo_s
        return _SLO_SERVICE_MULTIPLE * self.probe_service_time_s

    @property
    def batch_timeout_s(self) -> float:
        """Timeout-flush budget: configured, or a multiple of the probe service."""
        if self.config.batch_timeout_s is not None:
            return self.config.batch_timeout_s
        return _TIMEOUT_SERVICE_MULTIPLE * self.probe_service_time_s

    @property
    def join_window_s(self) -> float:
        """Continuous-batching join window: configured, or the batch timeout."""
        if self.config.join_window_s is not None:
            return self.config.join_window_s
        return self.batch_timeout_s

    @property
    def staleness_s(self) -> float:
        """Continuous-batching staleness budget: configured, or half the SLO."""
        if self.config.staleness_s is not None:
            return self.config.staleness_s
        return 0.5 * self.slo_s

    def _signature_fn(self):
        """``request -> minhash signature`` bound to this fleet's sampler
        (see :func:`repro.serving.batching.make_signature_fn`)."""
        cfg = self.config
        return make_signature_fn(self.sampler, cfg.num_hops, cfg.fanout,
                                 overlap_k=cfg.overlap_k)

    def _seed_scorer(self) -> None:
        """Prime the shape scorer from the per-shape probe batches.

        The probe batch has one well-defined profile bucket; each shape's
        measured probe time over the probe's fused size seeds that bucket's
        rate, so the first real batch of the common regime can already be
        scored.  Other buckets stay cold until traffic warms them (the
        dispatcher falls back to least-loaded there).  Idempotent: seeds
        never clobber rates a previous run learned.
        """
        cfg = self.config
        targets = probe_targets(self.graph.num_vertices, cfg.max_batch_size,
                                cfg.seed)
        fused, naive = self.sampler.fused_size(
            (int(t), None, None) for t in targets)
        bucket = BatchProfile(est_fused_vertices=fused,
                              est_naive_vertices=naive,
                              batch_size=len(targets),
                              feature_length=self.graph.feature_length).bucket
        for shape in self._shapes:
            self.scorer.seed(shape, bucket,
                             self.probe_service_for_shape(shape)
                             / max(fused, 1))

    # ------------------------------------------------------------------ #
    # Service-time model
    # ------------------------------------------------------------------ #
    def batch_service_time_s(self, chip: Chip, batch: Batch,
                             account: bool = True,
                             now: float = 0.0) -> float:
        """Simulated execution time of the fused subgraph batch on ``chip``
        (see :func:`fused_batch_service_time_s`).

        On a sharded fleet (>1 shard) the batch executes across the whole
        chip group instead (:meth:`ShardExecutor.service_time_s`); a
        one-shard group takes this single-chip path verbatim, which is what
        makes its report bit-for-bit identical to an unsharded run.
        """
        if self.shard_executor is not None \
                and self.shard_executor.plan.num_shards > 1:
            return self.shard_executor.service_time_s(
                batch, reuse_discount=self.config.reuse_discount,
                account=account, now=now)
        return fused_batch_service_time_s(
            chip, self.sampler, self.model, batch,
            dataset_name=self.dataset_name,
            reuse_discount=self.config.reuse_discount, account=account,
            stream=self.stream, now=now)

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
        cfg = self.config
        batch_size = min(cfg.max_batch_size, self.graph.num_vertices)
        capacity_rps = sum(
            batch_size / max(self.probe_service_for_shape(shape), 1e-12)
            for shape, _ in cfg.chip_roster())
        return utilization_target * capacity_rps

    # ------------------------------------------------------------------ #
    # Event loop
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[Request],
            rate_rps: float = 0.0) -> ServingReport:
        """Serve ``requests`` (sorted by arrival) and return the report."""
        cfg = self.config
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

        batcher = build_batch_policy(
            cfg.batch_policy, max_batch_size=cfg.max_batch_size,
            timeout_s=self.batch_timeout_s, slo_s=self.slo_s,
            signature_fn=self._signature_fn()
            if cfg.batch_policy in ("overlap", "continuous") else None,
            min_overlap=cfg.min_overlap, pool_factor=cfg.pool_factor,
            join_window_s=self.join_window_s, staleness_s=self.staleness_s)
        self.batcher = batcher
        observe = self.observe
        if observe is not None:
            batcher.instrumentation = observe
        batching_stats = BatchingStats(policy=cfg.batch_policy)
        overlap_aware = cfg.batch_policy in ("overlap", "continuous")
        overlap_ewma = 0.0
        hetero_stats: Optional[HeteroStats] = None
        if self._track_shapes:
            self._seed_scorer()
            hetero_stats = HeteroStats(dispatch_policy=cfg.dispatch)
            if isinstance(self._dispatch, _ShapeAwareDispatch):
                # counters are per run; the scorer's learned rates persist
                self._dispatch.scored = self._dispatch.fallback = 0
        events: List[Tuple[float, int, int, object]] = []
        seq = 0
        for request in requests:
            heapq.heappush(events, (request.arrival_time_s, seq, _ARRIVAL, request))
            seq += 1
        if self.stream is not None:
            for event in self.updates.events:
                heapq.heappush(events, (event.arrival_time_s, seq,
                                        _UPDATE, event))
                seq += 1
        arrivals_left = len(requests)
        dispatch_meta: Dict[int, float] = {}      # batch_id -> dispatch time
        start_meta: Dict[int, float] = {}         # batch_id -> service start time
        scheduled_flush: Optional[float] = None

        # time-weighted in-flight integral for the avg queue-pressure metric
        in_flight = 0
        t0 = requests[0].arrival_time_s
        last_t = t0
        in_flight_area = 0.0

        # ---------------- control plane (elastic runs only) --------------- #
        control: Optional[ControlPlane] = None
        scaler: Optional[FleetScaler] = None
        probe_batch = min(cfg.max_batch_size, self.graph.num_vertices)
        cost_per_request_s = self.probe_service_time_s / probe_batch
        backlog_cost_s = 0.0
        request_cost_s: Dict[int, float] = {}
        arrivals_interval = completions_interval = 0
        violations_interval = shed_interval = 0
        busy_snapshot_s = 0.0
        for chip in self.chips:
            chip.added_s = t0
            chip.ready_s = t0
        if self.control_config is not None:
            control = ControlPlane(self.control_config)
            control.bind(
                [TenantBinding(name="", slo_s=self.slo_s, num_hops=cfg.num_hops,
                               fanout=cfg.fanout)],
                initial_chips=len(self.chips),
                probe_service_s=self.probe_service_time_s,
                capacity_per_chip_rps=probe_batch
                / max(self.probe_service_time_s, 1e-12))
            self.control = control
            if observe is not None:
                control.instrumentation = observe
            heapq.heappush(events, (t0 + control.control_interval_s, seq,
                                    _CONTROL, None))
            seq += 1

            def new_chip(shape: Optional[str] = None) -> Chip:
                if shape is None:
                    shape, hw = cfg.base_shape, cfg.hw
                else:
                    hw = self._shapes[shape]
                chip = Chip(self._next_chip_id, hw,
                            cfg.feature_cache_size, shape=shape)
                self._next_chip_id += 1
                return chip

            def schedule_ready(chip: Chip) -> None:
                nonlocal seq
                heapq.heappush(events, (chip.ready_s, seq, _CHIP_READY, chip))
                seq += 1

            chooser: Optional[ShapeChooser] = None
            if len(self._shapes) > 1:
                chooser = ShapeChooser(
                    self.control_config.scale_shape, self._shapes,
                    scorers=[self.scorer] if self.scorer is not None else [])
            scaler = FleetScaler(
                self.chips, control, new_chip, schedule_ready,
                # drain the shape the demand needs least (heterogeneous),
                # else the emptiest queue so the least work gets stranded
                drain_victim=chooser.retire_victim if chooser is not None
                else lambda actives: min(
                    actives,
                    key=lambda c: (c.outstanding_requests, -c.chip_id)),
                shape_chooser=chooser)

        # ---------------- metrics scraping (instrumented runs) ------------ #
        metrics_interval_s = 0.0
        if observe is not None and observe.wants_metrics:
            from .observe import METRICS_PROBE_MULTIPLE
            metrics_interval_s = observe.metrics_interval_s \
                if observe.metrics_interval_s is not None \
                else METRICS_PROBE_MULTIPLE * self.probe_service_time_s
            heapq.heappush(events, (t0 + metrics_interval_s, seq,
                                    _METRICS, None))
            seq += 1

        def metrics_snapshot(now: float) -> Dict:
            gauges: Dict = {
                "repro_queue_depth": batcher.pending_count,
                "repro_in_flight_requests": in_flight,
                "repro_in_flight_batches": sum(
                    len(c.queue) + (1 if c.busy else 0)
                    for c in self.chips),
                "repro_overlap_ratio_ewma": overlap_ewma,
            }
            if self.shard_executor is not None:
                shard_stats = self.shard_executor.stats
                gauges["repro_halo_hit_rate"] = shard_stats.halo_hit_rate
                gauges["repro_halo_bytes_moved"] = shard_stats.halo_bytes_moved
                gauges["repro_shard_load_imbalance"] = \
                    shard_stats.load_imbalance
            elapsed = now - t0
            if elapsed > 0:
                for shape in self._shapes:
                    members = [c for c in self.chips if c.shape == shape]
                    busy = sum(c.stats.busy_s for c in members)
                    gauges[("repro_busy_fraction", (("shape", shape),))] = \
                        busy / (elapsed * len(members)) if members else 0.0
            return gauges

        def schedulable_chips() -> List[Chip]:
            return [chip for chip in self.chips if chip.schedulable]

        def schedule_flush(now: float) -> None:
            nonlocal scheduled_flush, seq
            deadline = batcher.next_deadline(now)
            if deadline is not None and deadline != scheduled_flush:
                heapq.heappush(events, (max(deadline, now), seq, _FLUSH, None))
                seq += 1
                scheduled_flush = deadline

        def dispatch(batch: Batch, now: float) -> None:
            nonlocal seq
            chip = self._dispatch.select(schedulable_chips(), batch)
            chip.queue.append((batch, now))
            dispatch_meta[batch.batch_id] = now
            depth = sum(b.size for b, _ in chip.queue)
            report.max_queue_depth = max(report.max_queue_depth, depth)
            if not chip.busy:
                start_service(chip, now)

        def start_service(chip: Chip, now: float) -> None:
            nonlocal seq, cost_per_request_s, overlap_ewma
            batch, _ = chip.queue.popleft()
            # seal before costing: a batch being served can take no joins,
            # and the service time must cover its final membership
            batcher.on_service_start(batch)
            chip.current = batch
            start_meta[batch.batch_id] = now
            if self.stream is not None:
                # differential consistency check at the moment of service:
                # observation only, so it cannot change simulated timings
                self.stream.check_batch(batch, now)
            service_s = self.batch_service_time_s(chip, batch, now=now)
            if hetero_stats is not None:
                account_batch_service(
                    self.scorer, hetero_stats, batch, self._profile_fn,
                    chip.shape, service_s,
                    {c.shape for c in self.chips if c.state == "active"},
                    # shape-aware dispatch already counted demand at
                    # selection time; oblivious dispatch counts it here
                    note_demand=not isinstance(self._dispatch,
                                               _ShapeAwareDispatch))
            batcher.observe_service_time(service_s)
            batching_stats.observe_batch(batch)
            overlap_ewma = _COST_EWMA_ALPHA * batch.overlap_ratio \
                + (1 - _COST_EWMA_ALPHA) * overlap_ewma
            observed = service_s / batch.size
            cost_per_request_s = _COST_EWMA_ALPHA * observed \
                + (1 - _COST_EWMA_ALPHA) * cost_per_request_s
            chip.stats.busy_s += service_s
            heapq.heappush(events, (now + service_s, seq, _COMPLETION, chip))
            seq += 1
            # the service observation may have tightened an SLO-aware
            # deadline for requests already pending -- re-arm the timer
            schedule_flush(now)

        def complete(chip: Chip, now: float) -> None:
            nonlocal in_flight, backlog_cost_s
            nonlocal completions_interval, violations_interval
            batch = chip.current
            chip.current = None
            chip.stats.batches_served += 1
            chip.stats.requests_served += batch.size
            dispatched = dispatch_meta.pop(batch.batch_id)
            started = start_meta.pop(batch.batch_id)
            for request in batch.requests:
                report.records.append(RequestRecord(
                    request_id=request.request_id,
                    target_vertex=request.target_vertex,
                    arrival_time_s=request.arrival_time_s,
                    # a late-joined request entered after the batch was
                    # dispatched: its batching wait ends at its own arrival
                    dispatch_time_s=max(dispatched, request.arrival_time_s),
                    service_start_s=started,
                    completion_time_s=now,
                    cache_hit=False,
                    chip_id=chip.chip_id,
                    batch_id=batch.batch_id,
                    degrade_level=request.degrade_level,
                ))
                # degraded answers are lower fidelity: keep them out of the
                # result cache so later hits never silently inherit the loss
                if request.degrade_level == 0:
                    self.result_cache.put(request.target_vertex, now)
                    if self.stream is not None:
                        self.stream.register_result(request.target_vertex,
                                                    now)
                in_flight -= 1
                completions_interval += 1
                if now - request.arrival_time_s > self.slo_s:
                    violations_interval += 1
                backlog_cost_s -= request_cost_s.pop(request.request_id, 0.0)
            if observe is not None:
                observe.on_batch_complete(now, chip, batch, dispatched,
                                          started)
                observe.on_shard_batch_complete(now, batch, started)
            if chip.queue:
                start_service(chip, now)
            elif chip.state == "draining":
                scaler.retire(chip, now)

        def control_tick(now: float) -> None:
            nonlocal seq, busy_snapshot_s
            nonlocal arrivals_interval, completions_interval
            nonlocal violations_interval, shed_interval
            active, warming, draining = scaler.counts()
            busy_total_s = sum(c.stats.busy_s for c in self.chips)
            interval_s = control.control_interval_s
            utilization = (busy_total_s - busy_snapshot_s) \
                / (interval_s * max(1, active))
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
                cost_per_request_s=cost_per_request_s,
                slo_s=self.slo_s,
            )
            target = control.tick(obs)
            scaler.scale_to(target, now)
            busy_snapshot_s = busy_total_s
            arrivals_interval = completions_interval = 0
            violations_interval = shed_interval = 0
            if arrivals_left > 0 or in_flight > 0:
                heapq.heappush(events, (now + interval_s, seq, _CONTROL, None))
                seq += 1

        while events:
            now, _, kind, payload = heapq.heappop(events)
            if kind == _METRICS:
                # handled before the in-flight integral update so the
                # float accounting (and hence the report) stays bit-for-bit
                # identical to an uninstrumented run
                observe.scrape(now, metrics_snapshot(now))
                if arrivals_left > 0 or in_flight > 0:
                    heapq.heappush(events, (now + metrics_interval_s, seq,
                                            _METRICS, None))
                    seq += 1
                continue
            in_flight_area += in_flight * (now - last_t)
            last_t = now
            if kind == _ARRIVAL:
                arrivals_left -= 1
                arrivals_interval += 1
                request: Request = payload
                if self.capture is not None:
                    self.capture.record(request)
                if self.result_cache.get(request.target_vertex) is not None:
                    if self.stream is not None:
                        self.stream.on_result_hit(request.target_vertex, now)
                    done = now + cfg.cache_hit_latency_s
                    report.records.append(RequestRecord(
                        request_id=request.request_id,
                        target_vertex=request.target_vertex,
                        arrival_time_s=request.arrival_time_s,
                        dispatch_time_s=done,
                        service_start_s=done,
                        completion_time_s=done,
                        cache_hit=True,
                    ))
                    if observe is not None:
                        observe.on_cache_hit(now, request, done)
                else:
                    admitted = True
                    if control is not None:
                        est_delay_s = backlog_cost_s \
                            / max(1, len(schedulable_chips()))
                        decision = control.admit(
                            "", now, est_delay_s, cost_per_request_s,
                            overlap_ratio=overlap_ewma if overlap_aware
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
                            cost = cost_per_request_s * decision.cost_scale
                            request_cost_s[request.request_id] = cost
                            backlog_cost_s += cost
                    if admitted:
                        in_flight += 1
                        # continuous batching: a formed-but-unstarted batch
                        # may absorb the request outright (its completion
                        # will cover it); otherwise accumulate as usual
                        joined = batcher.try_join(request, now)
                        if joined is not None:
                            # the join deepened some chip's queue in place
                            depth = max((sum(b.size for b, _ in c.queue)
                                         for c in self.chips), default=0)
                            report.max_queue_depth = max(
                                report.max_queue_depth, depth)
                        else:
                            batch = batcher.add(request, now)
                            if batch is not None:
                                dispatch(batch, now)
                            # re-arm in every case: formation policies can
                            # emit a subset and leave a deadline pending
                            schedule_flush(now)
                if arrivals_left == 0 and batcher.pending_count \
                        and batcher.next_deadline(now) is None:
                    # end of stream under a pure size cap: drain the remainder
                    for leftover in batcher.drain(now):
                        dispatch(leftover, now)
            elif kind == _FLUSH:
                scheduled_flush = None
                batch = batcher.flush_due(now)
                if batch is not None:
                    dispatch(batch, now)
                schedule_flush(now)
            elif kind == _COMPLETION:
                complete(payload, now)
            elif kind == _UPDATE:
                # recorded before application, mirroring request capture at
                # arrival, so a captured trace replays the offered stream
                if self.capture is not None:
                    self.capture.record_update(payload)
                self.stream.apply(now, payload)
            elif kind == _CONTROL:
                control_tick(now)
            else:  # _CHIP_READY
                scaler.mark_ready(payload, now)

        if observe is not None and observe.wants_metrics:
            # closing scrape (outside the loop, so it cannot perturb the
            # integral): even a run shorter than the interval gets >= 1 row
            observe.scrape(last_t, metrics_snapshot(last_t))
        span = last_t - t0
        report.avg_in_flight = in_flight_area / span if span > 0 else 0.0
        logger.info("served %d requests on %d chips in %.6f s simulated",
                    len(requests), len(self.chips), span)
        report.chips = [chip.stats for chip in self.chips]
        report.cache = self.result_cache.stats
        batching_stats.late_join_rejects = batcher.late_join_rejects
        report.batching = batching_stats
        if hetero_stats is not None:
            for chip in self.chips:
                hetero_stats.shape_counts[chip.shape] = \
                    hetero_stats.shape_counts.get(chip.shape, 0) + 1
            if isinstance(self._dispatch, _ShapeAwareDispatch):
                hetero_stats.scored_batches = self._dispatch.scored
                hetero_stats.fallback_batches = self._dispatch.fallback
            hetero_stats.rates = self.scorer.snapshot()
            report.hetero = hetero_stats
        if self.shard_executor is not None:
            shard_stats = self.shard_executor.stats
            shard_stats.p50_s = report.p50_latency_s
            shard_stats.p95_s = report.p95_latency_s
            shard_stats.p99_s = report.p99_latency_s
            report.sharding = shard_stats
        if control is not None:
            report.control = control.finalize(last_t, self.chips)
        if self.stream is not None:
            self.stream.finalize()
            self.consistency.p99_s = report.p99_latency_s
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
    if not (math.isfinite(update_rate) and update_rate >= 0):
        raise ValueError(f"update_rate must be >= 0 and finite, got {update_rate}")
    graph = load_dataset(dataset, seed=seed)
    model = build_model(model_name, input_length=graph.feature_length)
    # streaming updates: the stream object must exist before the simulator
    # (it wraps the graph and rebinds the caches), but its events need the
    # resolved arrival rate -- so they are filled in below, after
    # calibration / replay resolution, and read at run() time
    fill_update_events = False
    if updates is None:
        replayed_updates = replay is not None and replay.num_updates > 0
        if update_rate > 0 or replayed_updates:
            if replayed_updates:
                # the capturing run's policy is part of what made its
                # report; replay it bit-for-bit unless it never stamped one
                invalidation = replay.meta.get("invalidation", invalidation)
                staleness_budget = int(replay.meta.get(
                    "staleness_budget", staleness_budget))
            updates = UpdateStream(events=(), policy=invalidation,
                                   staleness_budget_versions=staleness_budget)
            fill_update_events = True
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
    if fill_update_events:
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
        if updates is not None:
            capture.meta.update({
                "update_rate": update_rate,
                "invalidation": updates.policy,
                "staleness_budget": updates.staleness_budget_versions,
            })
            if update_mix:
                capture.meta["update_mix"] = update_mix
        if replay is not None:
            # re-capturing a replay keeps the original workload's
            # provenance (the offered process, not the replay mechanism),
            # so the new trace file is byte-identical to the one replayed
            for key in ("arrival", "popularity_skew", "seed",
                        "update_rate", "update_mix", "invalidation",
                        "staleness_budget"):
                if key in replay.meta:
                    capture.meta[key] = replay.meta[key]
    workload = WorkloadConfig(num_requests=num_requests, rate_rps=rate_rps,
                              arrival=arrival, popularity_skew=popularity_skew,
                              peak_factor=peak_factor, seed=seed)
    requests = RequestGenerator(graph.num_vertices, workload).generate(trace)
    return simulator.run(requests, rate_rps=rate_rps)
