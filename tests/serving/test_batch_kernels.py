"""Differential tests for the batch-at-a-time kernels.

Two per-batch paths work on whole batches instead of one item at a time,
and each is checked here against the one-at-a-time code it replaced:

* **overlap formation** -- :class:`OverlapBatcher` scores every greedy step
  as one matrix comparison; :class:`PairwiseOverlapBatcher` keeps the
  per-pair :func:`estimate_jaccard` loop as the oracle;
* **batched extraction** -- :meth:`SubgraphSampler.extract_batch` extracts
  every memo miss in one multi-target kernel; the oracles are the
  single-target array kernel, the object core, and a sampler driven by
  the per-shape ``extract`` loop (same samples, same memo state).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import from_csc, to_csc
from repro.graphs.delta import DeltaGraph
from repro.graphs.graph import Graph
from repro.serving import (
    SIGNATURE_HASHES,
    OverlapBatcher,
    Request,
    SubgraphSampler,
    estimate_jaccard,
)


# --------------------------------------------------------------------------- #
# Overlap formation: matrix vs per-pair
# --------------------------------------------------------------------------- #
class _RecordingBatcher(OverlapBatcher):
    """Records every emitted group's union signature."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.unions = []

    def _register(self, batch, union_sig):
        self.unions.append(union_sig.copy())


class PairwiseOverlapBatcher(_RecordingBatcher):
    """The per-pair formation loop the matrix comparison replaced."""

    def _form_group(self):
        sigs = [self._signature_fn(r) for r in self._pending]
        union_sig = sigs[0].copy()
        chosen = [0]
        candidates = list(range(1, len(sigs)))
        while candidates and len(chosen) < self.max_batch_size:
            sims = np.array([estimate_jaccard(sigs[i], union_sig)
                             for i in candidates])
            best = int(np.argmax(sims))
            if self.min_overlap > 0.0 and sims[best] < self.min_overlap:
                break
            pick = candidates.pop(best)
            chosen.append(pick)
            union_sig = np.minimum(union_sig, sigs[pick])
        return chosen, union_sig


def _drive(batcher, num_requests, flush_after):
    """Feed ``num_requests`` arrivals, flushing after the marked ones, then
    drain; returns the emitted groups as request-id lists."""
    groups = []
    for i in range(num_requests):
        t = float(i)
        batch = batcher.add(Request(request_id=i, target_vertex=i,
                                    arrival_time_s=t), t)
        if batch is not None:
            groups.append(batch)
        if flush_after[i]:
            batch = batcher.flush(t)
            if batch is not None:
                groups.append(batch)
    groups.extend(batcher.drain(float(num_requests)))
    return [[r.request_id for r in b.requests] for b in groups]


@st.composite
def _formation_case(draw):
    num = draw(st.integers(1, 48))
    # a three-letter alphabet makes equal components, tied scores and
    # identical signatures common
    values = draw(st.lists(st.integers(0, 2), min_size=num * SIGNATURE_HASHES,
                           max_size=num * SIGNATURE_HASHES))
    sigs = np.asarray(values, dtype=np.uint64).reshape(num, SIGNATURE_HASHES)
    if num > 2 and draw(st.booleans()):
        sigs[num // 2] = sigs[0]            # an exact duplicate of the anchor
    flush_after = draw(st.lists(st.booleans(), min_size=num, max_size=num))
    return dict(sigs=sigs, flush_after=flush_after,
                max_batch_size=draw(st.integers(1, 10)),
                pool_factor=draw(st.integers(1, 4)),
                min_overlap=draw(st.sampled_from(
                    [0.0, 1 / SIGNATURE_HASHES, 0.25, 0.5, 0.75, 1.0])))


@settings(max_examples=150, deadline=None)
@given(_formation_case())
def test_matrix_formation_matches_per_pair_oracle(case):
    sigs = case["sigs"]

    def build(cls):
        return cls(max_batch_size=case["max_batch_size"], timeout_s=1e9,
                   signature_fn=lambda r: sigs[r.target_vertex],
                   min_overlap=case["min_overlap"],
                   pool_factor=case["pool_factor"])

    matrix, oracle = build(_RecordingBatcher), build(PairwiseOverlapBatcher)
    got = _drive(matrix, len(sigs), case["flush_after"])
    want = _drive(oracle, len(sigs), case["flush_after"])
    assert got == want
    assert len(matrix.unions) == len(oracle.unions)
    for a, b in zip(matrix.unions, oracle.unions):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_formation_oracle_sees_ties_and_the_overlap_floor():
    """Hand-made pool: two candidates tie with the anchor (the earlier one
    wins), and a floor above every remaining score stops growth."""
    anchor = np.arange(SIGNATURE_HASHES, dtype=np.uint64)
    half = anchor.copy()
    half[SIGNATURE_HASHES // 2:] += 100
    sigs = np.stack([anchor, half + 1000, half, half, anchor + 500])
    for floor, want in ((0.0, [[0, 2, 3, 1], [4]]), (0.5, [[0, 2, 3], [1], [4]])):
        batchers = [cls(max_batch_size=4, timeout_s=1e9, min_overlap=floor,
                        signature_fn=lambda r: sigs[r.target_vertex])
                    for cls in (_RecordingBatcher, PairwiseOverlapBatcher)]
        for batcher in batchers:
            assert _drive(batcher, len(sigs), [False] * len(sigs)) == want


# --------------------------------------------------------------------------- #
# Batched extraction: multi-target kernel vs single-target and object core
# --------------------------------------------------------------------------- #
def _assert_same_sample(a, b):
    assert a.target_vertex == b.target_vertex
    assert a.vertices == b.vertices
    assert np.array_equal(a.vertex_array, b.vertex_array)
    for x, y in ((a.graph.csr.indptr, b.graph.csr.indptr),
                 (a.graph.csr.indices, b.graph.csr.indices)):
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert a.graph.csr.num_cols == b.graph.csr.num_cols
    assert np.array_equal(a.graph.features, b.graph.features)
    assert a.graph.name == b.graph.name


@st.composite
def _graph_and_keys(draw):
    """A random CSC graph with an in-degree hub, plus extraction keys with
    duplicate targets, mixed hops (hop 0 included) and mixed fanouts."""
    n = draw(st.integers(1, 24))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1)), max_size=80))
    hub = draw(st.integers(0, n - 1))
    edges += [(u, hub) for u in range(n) if u != hub]   # over-fanout hub
    graph = to_csc(Graph.from_edge_list(edges, num_vertices=n,
                                        feature_length=3, undirected=False,
                                        name="g"))
    keys = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3),
                                   st.integers(1, 4)), min_size=2,
                         max_size=12))
    if draw(st.booleans()):
        keys.append(keys[0])                  # the same shape twice
    keys.append((hub, 2, 1))
    return graph, keys, draw(st.integers(0, 2 ** 16))


@settings(max_examples=120, deadline=None)
@given(_graph_and_keys())
def test_multi_target_kernel_matches_both_single_target_cores(case):
    graph, keys, seed = case
    csc = SubgraphSampler(graph, seed=seed)
    obj = SubgraphSampler(from_csc(graph), seed=seed)
    assert csc.array_core and not obj.array_core
    batch = csc._extract_many_arrays(keys)
    assert len(batch) == len(keys)
    for key, sample in zip(keys, batch):
        _assert_same_sample(sample, csc._extract_arrays(*key))
        _assert_same_sample(sample, obj._extract(*key))


def test_isolated_and_hop_zero_targets_extract_alone():
    graph = to_csc(Graph.from_edge_list([(0, 1), (2, 1)], num_vertices=4,
                                        feature_length=2, undirected=False))
    sampler = SubgraphSampler(graph, seed=3)
    samples = sampler.extract_fresh_batch([(3, 2, 4), (1, 0, 4), (1, 2, 4)])
    assert [s.vertices for s in samples] == [(3,), (1,), (1, 0, 2)]
    assert [s.num_edges for s in samples] == [0, 0, 2]


# --------------------------------------------------------------------------- #
# Batched extraction: memo replay vs the per-shape loop
# --------------------------------------------------------------------------- #
def _memo_state(sampler):
    return (sampler._memo.keys(), sampler._memo.stats,
            sampler._sig_memo.keys(), sampler._sig_memo.stats,
            sampler._vertex_keys, sampler._key_versions,
            sampler.invalidated_samples, sampler.invalidated_signatures)


def _shape_batches(rng, num_vertices, num_batches):
    batches = []
    for _ in range(num_batches):
        size = int(rng.integers(1, 10))
        batches.append([
            (int(rng.integers(num_vertices)),
             None if rng.random() < 0.6 else int(rng.integers(0, 3)),
             None if rng.random() < 0.6 else int(rng.integers(1, 5)))
            for _ in range(size)])
    return batches


def _twin_samplers(graph, memo_size, seed):
    return (SubgraphSampler(graph, num_hops=2, fanout=3, seed=seed,
                            memo_size=memo_size),
            SubgraphSampler(graph, num_hops=2, fanout=3, seed=seed,
                            memo_size=memo_size))


def _random_graph(seed, n=30, m=120):
    rng = np.random.default_rng(seed)
    edges = [tuple(e) for e in rng.integers(0, n, size=(m, 2)).tolist()]
    return to_csc(Graph.from_edge_list(edges, num_vertices=n,
                                       feature_length=3, undirected=False))


@pytest.mark.parametrize("memo_size", [0, 1, 3, 8, 2048])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_entry_leaves_the_memo_as_the_per_shape_loop(memo_size, seed):
    graph = _random_graph(seed)
    batched, looped = _twin_samplers(graph, memo_size, seed)
    rng = np.random.default_rng(seed)
    for shapes in _shape_batches(rng, graph.num_vertices, 30):
        got = batched.extract_batch(shapes)
        want = [looped.extract(t, num_hops=h, fanout=f) for t, h, f in shapes]
        for a, b in zip(got, want):
            _assert_same_sample(a, b)
        assert _memo_state(batched) == _memo_state(looped)
    # fused_size runs through the batch entry too, with repeated shapes
    shapes = _shape_batches(rng, graph.num_vertices, 1)[0] * 2
    want = [looped.extract(t, num_hops=h, fanout=f) for t, h, f in shapes]
    union = {v for sample in want for v in sample.vertices}
    assert batched.fused_size(shapes) == (
        len(union), sum(sample.num_vertices for sample in want))
    assert _memo_state(batched) == _memo_state(looped)


@pytest.mark.parametrize("policy", ["targeted", "flush", "none"])
@pytest.mark.parametrize("memo_size", [2, 6, 2048])
def test_batch_entry_matches_the_loop_on_a_mutating_graph(policy, memo_size):
    """Both samplers share one DeltaGraph; between batches it gains edges,
    vertices and feature writes, and both see the same invalidations."""
    delta = DeltaGraph(_random_graph(5))
    batched, looped = _twin_samplers(delta, memo_size, 5)
    batched.invalidation = looped.invalidation = policy
    rng = np.random.default_rng(9)
    for shapes in _shape_batches(rng, 30, 40):
        for sampler in (batched, looped):
            for t, h, f in shapes[:2]:
                sampler.signature(t, num_hops=h, fanout=f)
        got = batched.extract_batch(shapes)
        want = [looped.extract(t, num_hops=h, fanout=f) for t, h, f in shapes]
        for a, b in zip(got, want):
            _assert_same_sample(a, b)
        fresh = batched.extract_fresh_batch(shapes)
        for (t, h, f), sample in zip(shapes, fresh):
            _assert_same_sample(sample,
                                looped.extract_fresh(t, num_hops=h, fanout=f))
        assert _memo_state(batched) == _memo_state(looped)
        kind = rng.integers(3)
        if kind == 0:
            delta.add_edge(int(rng.integers(delta.num_vertices)),
                           int(rng.integers(delta.num_vertices)))
        elif kind == 1:
            delta.write_features(int(rng.integers(delta.num_vertices)),
                                 rng.standard_normal(3))
        else:
            delta.add_vertex(rng.standard_normal(3))
    assert batched.invalidated_samples == looped.invalidated_samples
    assert batched.invalidated_signatures == looped.invalidated_signatures
    if policy != "none":
        assert batched.invalidated_samples > 0
