"""Differential tests: the columnar DRAM request path against the
per-request reference loops in ``dram_reference.py``.

Every statistic must be equal, not approximately equal: ``energy_pj`` is
compared with ``==``, ``cycles_by_stream`` including its key order, and
the open-row and stream-region state left behind for the next batch.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from dram_reference import (
    ReferenceHandler,
    ReferenceHBM,
    reference_chunk,
    reference_order,
)
from repro.core import AggregationEngine, CombinationEngine, HyGCNConfig, MemoryAccessHandler
from repro.graphs import power_law_graph
from repro.hw import HBMConfig, HBMModel, MemoryRequest, RequestBatch
from repro.models import build_gcn

#: A small geometry (many bank and row collisions) with a non-integer
#: energy per bit, and the paper's default stack.
CONFIGS = (
    HBMConfig(num_channels=2, banks_per_channel=3, row_buffer_bytes=256,
              channel_bytes_per_cycle=16, activate_cycles=5,
              precharge_cycles=7, cas_cycles=3, energy_pj_per_bit=6.3),
    HBMConfig(),
)

# stream names inside and outside ACCESS_PRIORITY
_streams = st.sampled_from(["edges", "input_features", "weights",
                            "output_features", "halo", "spill", "x"])
# few distinct addresses so rows repeat; sizes not multiples of a row buffer
_requests = st.builds(
    MemoryRequest, _streams,
    st.integers(0, 40).map(lambda i: i * 96), st.integers(1, 5000))
_batches = st.lists(st.lists(_requests, max_size=40), min_size=1, max_size=4)


def _as_tuples(requests):
    return [(r.stream, r.address, r.num_bytes, r.is_write) for r in requests]


def _assert_same_stats(got, want):
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert got.energy_pj == want.energy_pj
    for value in dataclasses.asdict(got).values():
        assert type(value) in (int, float)


class TestHBMService:
    @settings(max_examples=80, deadline=None)
    @given(batches=_batches, config=st.sampled_from(CONFIGS),
           interleave=st.booleans(), columnar=st.booleans())
    def test_consecutive_batches_match_reference(self, batches, config,
                                                 interleave, columnar):
        model = HBMModel(config, interleave_low_bits=interleave)
        reference = ReferenceHBM(config, interleave_low_bits=interleave)
        for batch in batches:
            given_batch = RequestBatch.of(batch) if columnar else batch
            _assert_same_stats(model.service(given_batch), reference.service(batch))
            # open rows carry over into the next batch
            assert model._open_rows.tolist() == reference.open_rows
            assert list(model._stream_regions.items()) \
                == list(reference.stream_regions.items())

    @settings(max_examples=30, deadline=None)
    @given(total=st.integers(1, 1 << 16), granularity=st.sampled_from([64, 100, 2048]),
           sequential=st.booleans(), is_write=st.booleans())
    def test_service_stream_matches_reference(self, total, granularity,
                                              sequential, is_write):
        config = CONFIGS[0]
        stride = granularity if sequential else config.row_buffer_bytes
        requests = [MemoryRequest("s", i * stride, r.num_bytes, is_write)
                    for i, r in enumerate(reference_chunk("s", 0, total, granularity))]
        got = HBMModel(config).service_stream("s", total, granularity, sequential,
                                              is_write)
        _assert_same_stats(got, ReferenceHBM(config).service(requests))


class TestOrderingAndHandler:
    @settings(max_examples=80, deadline=None)
    @given(batch=st.lists(_requests, max_size=60), coordinated=st.booleans())
    def test_order_matches_reference(self, batch, coordinated):
        handler = MemoryAccessHandler(HyGCNConfig(enable_memory_coordination=coordinated))
        ordered = handler._order_requests(batch)
        assert _as_tuples(ordered) == _as_tuples(reference_order(batch, coordinated))

    @settings(max_examples=80, deadline=None)
    @given(batches=_batches, config=st.sampled_from(CONFIGS),
           coordinated=st.booleans())
    def test_service_batch_matches_reference(self, batches, config, coordinated):
        handler = MemoryAccessHandler(HyGCNConfig(
            hbm=config, enable_memory_coordination=coordinated))
        reference = ReferenceHandler(config, coordinated)
        for batch in batches:
            result = handler.service_batch(batch)
            stats, cycles_by_stream = reference.service_batch(batch)
            _assert_same_stats(result.stats, stats)
            assert list(result.cycles_by_stream.items()) == list(cycles_by_stream.items())
        assert handler.hbm._open_rows.tolist() == reference.hbm.open_rows


class TestRequestBatch:
    @settings(max_examples=60, deadline=None)
    @given(runs=st.lists(st.tuples(st.integers(0, 1 << 20), st.integers(-5, 9000)),
                         max_size=8),
           granularity=st.sampled_from([1, 64, 2048]), is_write=st.booleans())
    def test_from_runs_matches_reference_chunking(self, runs, granularity, is_write):
        starts = [start for start, _ in runs]
        sizes = [size for _, size in runs]
        got = RequestBatch.from_runs("edges", starts, sizes, granularity, is_write)
        want = [r for start, size in runs
                for r in reference_chunk("edges", start, size, granularity, is_write)]
        assert _as_tuples(got) == _as_tuples(want)
        assert len(got) == len(want)
        assert got.total_bytes == sum(max(size, 0) for size in sizes)

    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(st.lists(_requests, max_size=10), max_size=4))
    def test_concat_keeps_request_order(self, parts):
        got = RequestBatch.concat([RequestBatch.of(p) for p in parts])
        want = [r for p in parts for r in p]
        assert _as_tuples(got) == _as_tuples(want)
        first_seen = list(dict.fromkeys(r.stream for r in want))
        assert list(got.bytes_by_stream()) == first_seen

    def test_rejects_invalid_requests(self):
        with pytest.raises(ValueError):
            RequestBatch(("edges",), [0, 0], [0, 64], [64, 0], [False, False])
        with pytest.raises(ValueError):
            RequestBatch(("edges",), [0], [-1], [64], [False])
        batch = RequestBatch(("edges", "weights"), [1, 0], [0, 64], [64, 8], [False, True])
        assert _as_tuples(batch) == [("weights", 0, 64, False), ("edges", 64, 8, True)]


class TestEngineRequests:
    """The engines emit exactly the requests the reference chunking would."""

    def test_aggregation_and_combination_requests(self):
        graph = power_law_graph(300, 2400, feature_length=24, seed=4)
        workload = build_gcn(graph.feature_length, hidden_sizes=(40,)).workloads(graph)[0]
        cfg = HyGCNConfig(aggregation_buffer_bytes=16 * 1024, input_buffer_bytes=8 * 1024,
                          weight_buffer_bytes=1024)
        granularity = cfg.hbm.row_buffer_bytes
        row_bytes = workload.in_feature_length * cfg.bytes_per_value
        agg_tasks = AggregationEngine(cfg).process_layer(workload)
        assert len(agg_tasks) > 1
        for task in agg_tasks:
            want = reference_chunk("edges", 0, task.edge_bytes, granularity)
            for window in task.sparsity.windows:
                want += reference_chunk("input_features", window.start * row_bytes,
                                        window.num_rows * row_bytes, granularity)
            assert _as_tuples(task.dram_requests) == _as_tuples(want)
        out_bytes = workload.out_feature_length * cfg.bytes_per_value
        comb_tasks = CombinationEngine(cfg).process_layer(workload, agg_tasks)
        for task in comb_tasks:
            want = reference_chunk("weights", 0, task.weight_dram_bytes, granularity) \
                + reference_chunk("output_features",
                                  task.interval_index * out_bytes * task.num_vertices,
                                  task.output_dram_bytes, granularity, is_write=True)
            assert _as_tuples(task.dram_requests) == _as_tuples(want)
