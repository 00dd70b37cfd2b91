"""Aggregation Engine model (Section 4.3).

The engine processes one destination-vertex interval at a time.  For each
interval it:

1. samples the incoming edges (the Sampler),
2. determines which source-feature rows must be loaded -- every row-block of
   the static partition without optimisation, or only the effectual windows
   produced by the Sparsity Eliminator (window sliding + shrinking),
3. streams edges through the SIMD cores in vertex-disperse mode: the
   element-wise reductions of all vertices are spread over all
   ``num_simd_cores x simd_width`` lanes so no lane idles,
4. accumulates partial results in the Aggregation Buffer.

The output is a list of :class:`IntervalAggregation` transactions carrying the
compute-cycle cost, the DRAM requests (one columnar
:class:`~repro.hw.dram.RequestBatch`) and the buffer traffic of each interval;
the Coordinator composes them with the Combination Engine's transactions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..graphs.csc import to_csc
from ..graphs.graph import Graph
from ..graphs.partition import IntervalShardPartition, partition_graph
from ..graphs.sampling import NeighborSampler
from ..hw.buffer import DoubleBuffer
from ..hw.dram import RequestBatch
from ..models.layers import LayerWorkload
from .config import HyGCNConfig
from .sparsity import SparsityEliminator, SparsityReport

__all__ = ["IntervalAggregation", "AggregationEngine"]


@dataclass
class IntervalAggregation:
    """The Aggregation Engine's work for one destination interval."""

    interval_index: int
    num_vertices: int
    num_edges: int
    loaded_rows: int
    baseline_rows: int
    compute_cycles: int
    simd_ops: int
    input_feature_bytes: int
    edge_bytes: int
    aggregation_buffer_bytes: int
    dram_requests: RequestBatch = field(default_factory=RequestBatch.empty)
    sparsity: Optional[SparsityReport] = None

    @property
    def dram_bytes(self) -> int:
        return self.dram_requests.total_bytes


class AggregationEngine:
    """Transaction-level model of the Aggregation Engine."""

    def __init__(self, config: HyGCNConfig):
        self.config = config
        self.edge_buffer = DoubleBuffer("edge_buffer", config.edge_buffer_bytes)
        self.input_buffer = DoubleBuffer("input_buffer", config.input_buffer_bytes)

    # ------------------------------------------------------------------ #
    def prepare_graph(self, workload: LayerWorkload) -> Graph:
        """Apply the Sampler: materialise the sampled edge structure.

        A CSR-built graph (the serving layer's fused batches) is given a CSC
        view first, so the Sampler takes its array path, which draws the
        same sample as its per-vertex path.
        """
        sampling = workload.aggregation.sampling
        if sampling is not None and sampling.enabled:
            graph = workload.graph
            if not getattr(graph, "is_csc", False):
                graph = to_csc(graph)
            return NeighborSampler(sampling).sample_graph(graph)
        return workload.graph

    def partition(self, graph: Graph, feature_length: int) -> IntervalShardPartition:
        """Interval-shard partition sized by the on-chip buffer capacities."""
        interval_size = min(self.config.interval_size(feature_length), graph.num_vertices)
        shard_height = min(self.config.shard_height(feature_length), graph.num_vertices)
        return partition_graph(graph, interval_size, shard_height)

    # ------------------------------------------------------------------ #
    def process_layer(
        self,
        workload: LayerWorkload,
        graph: Optional[Graph] = None,
        partition: Optional[IntervalShardPartition] = None,
        feature_length: Optional[int] = None,
    ) -> List[IntervalAggregation]:
        """Produce one :class:`IntervalAggregation` per destination interval.

        HyGCN follows the edge-centric programming model (Algorithm 1):
        aggregation runs before combination and therefore operates at the
        layer's *input* feature length, regardless of the algebraic reordering
        PyG applies on CPU/GPU.  ``feature_length`` can override this for
        what-if studies.
        """
        cfg = self.config
        feature_length = feature_length or workload.in_feature_length
        graph = graph if graph is not None else self.prepare_graph(workload)
        partition = partition if partition is not None else self.partition(graph, feature_length)
        bytes_per_feature_row = feature_length * cfg.bytes_per_value
        bytes_per_edge = 2 * cfg.bytes_per_value
        eliminator = SparsityEliminator(partition.shard_height)
        tasks: List[IntervalAggregation] = []

        for interval in partition.intervals:
            sources = self._interval_sources(graph, interval.start, interval.stop)
            num_edges = int(sources.size)
            baseline_rows = graph.num_vertices
            if cfg.enable_sparsity_elimination:
                report = eliminator.eliminate(sources,
                                              graph.num_vertices,
                                              baseline_rows=baseline_rows)
                loaded_rows = report.loaded_rows
            else:
                report = None
                loaded_rows = baseline_rows if num_edges else 0

            # --- compute: vertex-disperse mode keeps every SIMD lane busy ---
            simd_ops = (num_edges + interval.size) * feature_length
            compute_cycles = int(np.ceil(simd_ops / cfg.total_simd_lanes)) if simd_ops else 0

            # --- DRAM traffic -------------------------------------------------
            input_bytes = loaded_rows * bytes_per_feature_row
            edge_bytes = num_edges * bytes_per_edge
            requests = self._build_requests(report, loaded_rows, bytes_per_feature_row,
                                            edge_bytes)

            # --- on-chip buffer traffic --------------------------------------
            # the double buffer holds one interval's edges at a time
            self.edge_buffer.allocate("current_interval", min(
                edge_bytes, self.edge_buffer.working_capacity))
            self.edge_buffer.write(edge_bytes)
            self.edge_buffer.read(edge_bytes)
            self.input_buffer.write(input_bytes)
            # each edge reads its source feature vector from the Input Buffer
            self.input_buffer.read(num_edges * bytes_per_feature_row)
            # partial results are read-modified-written per edge, and the final
            # aggregated interval is written once for the Combination Engine
            agg_buffer_bytes = (2 * num_edges + interval.size) * bytes_per_feature_row

            tasks.append(IntervalAggregation(
                interval_index=interval.index,
                num_vertices=interval.size,
                num_edges=num_edges,
                loaded_rows=loaded_rows,
                baseline_rows=baseline_rows,
                compute_cycles=compute_cycles,
                simd_ops=simd_ops,
                input_feature_bytes=input_bytes,
                edge_bytes=edge_bytes,
                aggregation_buffer_bytes=agg_buffer_bytes,
                dram_requests=requests,
                sparsity=report,
            ))
        return tasks

    # ------------------------------------------------------------------ #
    @staticmethod
    def _interval_sources(graph: Graph, start: int, stop: int) -> np.ndarray:
        """Source vertex of every edge whose destination lies in ``[start, stop)``."""
        csc = graph.csc
        return csc.indices[csc.indptr[start]:csc.indptr[stop]]

    def _build_requests(
        self,
        report: Optional[SparsityReport],
        loaded_rows: int,
        bytes_per_feature_row: int,
        edge_bytes: int,
    ) -> RequestBatch:
        """DRAM requests for one interval: the edge list plus feature windows."""
        granularity = self.config.hbm.row_buffer_bytes
        # Edge array: streamed sequentially from the CSC structure.
        edges = RequestBatch.from_runs("edges", [0], [edge_bytes], granularity)
        # Input features: one contiguous run per effectual window (or one big
        # run covering all rows when sparsity elimination is off).
        if report is not None:
            starts = report.starts * bytes_per_feature_row
            sizes = (report.stops - report.starts) * bytes_per_feature_row
        else:
            starts, sizes = [0], [loaded_rows * bytes_per_feature_row]
        features = RequestBatch.from_runs("input_features", starts, sizes, granularity)
        return RequestBatch.concat([edges, features])
