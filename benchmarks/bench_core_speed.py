"""Core-speed benchmark: array-native CSC sampler core vs the object core.

Not a paper figure -- this gates the refactor that rebuilt ``repro.graphs``
around the contiguous :class:`~repro.graphs.csc.CSCGraph` layout: the two
sampler cores are **bit-for-bit equivalent** (``tests/graphs/
test_csc_equivalence.py`` proves it differentially), so the only thing left
to demonstrate is speed.  Three metrics on a zipf-degree synthetic graph:

* ``extract`` -- cold k-hop subgraph extractions (memo defeated);
* ``fuse`` -- ``fused_size`` + ``fuse`` of a warm batch of samples, the
  overlap-aware batching hot loop;
* ``sampler+fuse`` -- the end-to-end batch-assembly pipeline the serving
  simulator runs per dispatch: extract every target, price the batch with
  ``fused_size``, materialise the fused graph.

A fourth metric, ``batch-extract``, stays on the CSC core: one cold
``extract_batch`` call over the batch (the multi-target kernel) against the
cold per-target ``extract`` loop, at the serving simulator's default
sampling shape (2 hops, fanout 8).

A fifth, ``feature-cache``, times the per-chip feature cache: one
:meth:`~repro.serving.cache.FeatureCache.access` step per batch against
the per-vertex :class:`~repro.serving.cache.LRUCache` ``get``-all/
``put``-all loop with the same semantics, over the same seeded key
batches on a cache small enough that every batch evicts.

The assertions are the acceptance gate: the CSC core must deliver >= 10x
``sampler+fuse`` and ``fuse`` throughput over the object core (extract
alone is gated at >= 3x -- its tail is the canonical-CSR sort both cores
share), ``batch-extract`` is gated at >= 1.5x and ``feature-cache`` at
>= MIN_FEATURE_CACHE_SPEEDUP.  Ratios are measured in-process on identical seeded target sets,
so machine noise largely cancels.

``REPRO_BENCH_SMOKE=1`` shrinks the graph for the CI smoke job;
``REPRO_BENCH_JSON=path`` appends one JSON line with the machine-readable
numbers, which CI uploads as ``BENCH_core_speed.json``.
"""

import json
import os
import time

import numpy as np

from repro.analysis import print_table
from repro.graphs import from_csc, power_law_graph
from repro.serving.sampler import SubgraphSampler
from repro.serving.cache import FeatureCache, LRUCache

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_VERTICES = 8_000 if SMOKE else 50_000
NUM_EDGES = 240_000 if SMOKE else 1_500_000
FEATURE_LENGTH = 16
SKEW = 1.2
NUM_HOPS = 3
FANOUT = 32
BATCH = 16 if SMOKE else 32
REPEATS = 2 if SMOKE else 3
SEED = 3

MIN_PIPELINE_SPEEDUP = 10.0
MIN_FUSE_SPEEDUP = 10.0
MIN_EXTRACT_SPEEDUP = 3.0
#: ``batch-extract`` runs at the serving default shape (FleetConfig's
#: num_hops/fanout), where samples are small and the multi-target kernel's
#: saving -- per-target overhead -- shows.  Measured batch/loop ratios:
#: median 2.25x (lowest 1.87x, 9 runs) at smoke size and 2.47x (lowest
#: 2.33x, 7 runs) at full size, so 1.5x sits 20% under the lowest run.  At
#: the 3-hop, fanout-32 shape above (~2,000-vertex samples) the two are at
#: parity: medians 1.17x smoke, 0.90x full.
BATCH_HOPS = 2
BATCH_FANOUT = 8
MIN_BATCH_EXTRACT_SPEEDUP = 1.5
#: ``feature-cache``: CACHE_BATCHES batches of CACHE_BATCH distinct keys
#: (about one fused serving batch) drawn uniformly from 4x the capacity, so
#: about a quarter of the lookups hit and every batch evicts.  Measured
#: loop/array ratios on an idle host: median 7.0x (lowest 5.56x, 14 runs)
#: at smoke size and 6.5x (lowest 5.26x, 14 runs) at full size; with the
#: host busy running other jobs the lowest was 3.89x.  3x sits 43% under
#: the lowest idle run and 23% under the busy one.
CACHE_CAPACITY = 2048
CACHE_BATCH = 512
CACHE_BATCHES = 40 if SMOKE else 200
MIN_FEATURE_CACHE_SPEEDUP = 3.0


def _graphs():
    csc = power_law_graph(NUM_VERTICES, NUM_EDGES, FEATURE_LENGTH,
                          skew=SKEW, seed=1)
    obj = from_csc(csc)
    obj.csc  # pre-build the transpose so it is not timed
    return csc, obj


def _targets(size, seed=7):
    rng = np.random.default_rng(seed)
    return [int(t) for t in rng.integers(0, NUM_VERTICES, size=size)]


def _time_extract(graph, targets):
    """Seconds for one cold pass over ``targets`` (best of REPEATS)."""
    best = float("inf")
    for _ in range(REPEATS):
        sampler = SubgraphSampler(graph, num_hops=NUM_HOPS, fanout=FANOUT,
                                  seed=SEED, memo_size=1)
        start = time.perf_counter()
        for target in targets:
            sampler._memo = LRUCache(1)  # defeat the memo: every hit is cold
            sampler.extract(target)
        best = min(best, time.perf_counter() - start)
    return best


def _time_fuse(graph, targets):
    """Seconds for one ``fused_size`` + ``fuse`` of a warm sample batch."""
    sampler = SubgraphSampler(graph, num_hops=NUM_HOPS, fanout=FANOUT,
                              seed=SEED)
    samples = [sampler.extract(t) for t in targets]
    shapes = [(t, None, None) for t in targets]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        sampler.fused_size(shapes)
        sampler.fuse(samples)
        best = min(best, time.perf_counter() - start)
    return best


def _time_pipeline(graph, targets):
    """Seconds for one full batch assembly: extract all, price, fuse."""
    best = float("inf")
    for _ in range(REPEATS):
        sampler = SubgraphSampler(graph, num_hops=NUM_HOPS, fanout=FANOUT,
                                  seed=SEED)
        start = time.perf_counter()
        samples = [sampler.extract(t) for t in targets]
        sampler.fused_size([(t, None, None) for t in targets])
        sampler.fuse(samples)
        best = min(best, time.perf_counter() - start)
    return best


def _time_batch_extract(graph, targets):
    """Seconds for one cold extraction of ``targets`` as ``(per-target
    loop, one extract_batch call)``, best of REPEATS, interleaved so both
    sides see the same host-speed drift."""
    shapes = [(t, None, None) for t in targets]
    best_loop = best_batch = float("inf")
    for _ in range(REPEATS):
        sampler = SubgraphSampler(graph, num_hops=BATCH_HOPS,
                                  fanout=BATCH_FANOUT, seed=SEED)
        start = time.perf_counter()
        for target in targets:
            sampler.extract(target)
        best_loop = min(best_loop, time.perf_counter() - start)
        sampler = SubgraphSampler(graph, num_hops=BATCH_HOPS,
                                  fanout=BATCH_FANOUT, seed=SEED)
        start = time.perf_counter()
        sampler.extract_batch(shapes)
        best_batch = min(best_batch, time.perf_counter() - start)
    return best_loop, best_batch


def _time_feature_cache():
    """Seconds for the key batches through ``(the LRUCache get/put loop,
    FeatureCache.access)``, best of REPEATS, interleaved; the two caches
    must end with equal counters."""
    rng = np.random.default_rng(SEED)
    batches = [rng.choice(4 * CACHE_CAPACITY, size=CACHE_BATCH,
                          replace=False) for _ in range(CACHE_BATCHES)]
    key_lists = [batch.tolist() for batch in batches]
    best_loop = best_array = float("inf")
    for _ in range(REPEATS):
        loop_cache = LRUCache(CACHE_CAPACITY)
        start = time.perf_counter()
        for keys in key_lists:
            for key in keys:
                loop_cache.get(key)
            for key in keys:
                loop_cache.put(key, 0)
        best_loop = min(best_loop, time.perf_counter() - start)
        array_cache = FeatureCache(CACHE_CAPACITY)
        start = time.perf_counter()
        for keys in batches:
            array_cache.access(keys)
        best_array = min(best_array, time.perf_counter() - start)
        assert array_cache.stats == loop_cache.stats
    assert loop_cache.stats.evictions > 0
    return best_loop, best_array


def _maybe_dump(tag, rows):
    path = os.environ.get("REPRO_BENCH_JSON")
    if not path:
        return
    mode = "a" if os.path.exists(path) else "w"
    with open(path, mode) as handle:
        json.dump({tag: rows}, handle, default=float)
        handle.write("\n")


def test_core_speed(benchmark):
    csc, obj = _graphs()
    targets = _targets(BATCH)

    def measure():
        rows = []
        for metric, timer, unit in (
            ("extract", _time_extract, len(targets)),
            ("fuse", _time_fuse, 1),
            ("sampler+fuse", _time_pipeline, 1),
        ):
            t_obj = timer(obj, targets)
            t_csc = timer(csc, targets)
            rows.append({
                "metric": metric,
                "object_per_s": round(unit / t_obj, 1),
                "csc_per_s": round(unit / t_csc, 1),
                "speedup": round(t_obj / t_csc, 2),
            })
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(rows, title=(
        f"core speed: CSC vs object "
        f"(V={NUM_VERTICES}, E={NUM_EDGES}, hops={NUM_HOPS}, "
        f"fanout={FANOUT}, batch={BATCH})"))
    t_loop, t_batch = _time_batch_extract(csc, targets)
    batch_row = {"metric": "batch-extract",
                 "loop_per_s": round(len(targets) / t_loop, 1),
                 "batch_per_s": round(len(targets) / t_batch, 1),
                 "speedup": round(t_loop / t_batch, 2)}
    print_table([batch_row], title=(
        f"batch extraction: extract_batch vs the per-target extract loop "
        f"(CSC, hops={BATCH_HOPS}, fanout={BATCH_FANOUT}, batch={BATCH})"))
    t_loop, t_array = _time_feature_cache()
    cache_row = {"metric": "feature-cache",
                 "loop_batches_per_s": round(CACHE_BATCHES / t_loop, 1),
                 "array_batches_per_s": round(CACHE_BATCHES / t_array, 1),
                 "speedup": round(t_loop / t_array, 2)}
    print_table([cache_row], title=(
        f"feature cache: one FeatureCache.access step per batch vs the "
        f"LRUCache get/put loop (capacity={CACHE_CAPACITY}, "
        f"batch={CACHE_BATCH}, batches={CACHE_BATCHES})"))
    _maybe_dump("core_speed", {
        "graph": {"num_vertices": NUM_VERTICES, "num_edges": NUM_EDGES,
                  "feature_length": FEATURE_LENGTH, "skew": SKEW},
        "shape": {"num_hops": NUM_HOPS, "fanout": FANOUT, "batch": BATCH},
        "batch_extract_shape": {"num_hops": BATCH_HOPS,
                                "fanout": BATCH_FANOUT},
        "feature_cache_shape": {"capacity": CACHE_CAPACITY,
                                "batch": CACHE_BATCH,
                                "batches": CACHE_BATCHES},
        "rows": rows + [batch_row, cache_row],
    })
    speedups = {row["metric"]: row["speedup"] for row in rows}
    # the acceptance gate for the array-native core refactor
    assert speedups["sampler+fuse"] >= MIN_PIPELINE_SPEEDUP, speedups
    assert speedups["fuse"] >= MIN_FUSE_SPEEDUP, speedups
    assert speedups["extract"] >= MIN_EXTRACT_SPEEDUP, speedups
    assert batch_row["speedup"] >= MIN_BATCH_EXTRACT_SPEEDUP, batch_row
    assert cache_row["speedup"] >= MIN_FEATURE_CACHE_SPEEDUP, cache_row
