"""Neighbour sampling (the paper's ``Sample`` function, Eq. 2).

GraphSage samples a fixed number of neighbours per vertex; the scalability
study in Section 5.4 instead sweeps a *sampling factor* ``f`` so that only
``1/f`` of each vertex's edges are kept.  Both styles are provided here, plus
a helper that materialises the sampled graph so the rest of the stack (the
partitioner, the engines, the baselines) can stay sampling-agnostic.

The Sampler hardware unit supports two index sources (Section 4.2): uniform
random selection generated at runtime, and a predefined interval-strided
selection read from memory.  ``strategy`` selects between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .graph import CSRMatrix, Graph

__all__ = ["SamplingConfig", "NeighborSampler", "sample_graph"]


@dataclass(frozen=True)
class SamplingConfig:
    """Configuration of the neighbour sampler.

    Exactly one of ``max_neighbors`` (GraphSage-style fixed fan-in) or
    ``sampling_factor`` (keep ``1/factor`` of the edges, Section 5.4) should
    be meaningful; ``sampling_factor=1`` and ``max_neighbors=None`` means no
    sampling.
    """

    max_neighbors: Optional[int] = None
    sampling_factor: int = 1
    strategy: str = "uniform"  # "uniform" (runtime random) or "strided" (predefined)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sampling_factor < 1:
            raise ValueError("sampling_factor must be >= 1")
        if self.max_neighbors is not None and self.max_neighbors < 1:
            raise ValueError("max_neighbors must be >= 1 when set")
        if self.strategy not in ("uniform", "strided"):
            raise ValueError("strategy must be 'uniform' or 'strided'")

    @property
    def enabled(self) -> bool:
        """Whether any sampling is applied at all."""
        return self.max_neighbors is not None or self.sampling_factor > 1


class NeighborSampler:
    """Samples each vertex's neighbour list according to a :class:`SamplingConfig`."""

    def __init__(self, config: SamplingConfig):
        self.config = config
        self._rng = np.random.default_rng(config.seed)

    def sample_neighbors(self, neighbors: np.ndarray) -> np.ndarray:
        """Return the sampled subset of one vertex's neighbour array."""
        cfg = self.config
        if not cfg.enabled or len(neighbors) == 0:
            return neighbors
        keep = len(neighbors)
        if cfg.sampling_factor > 1:
            keep = max(1, len(neighbors) // cfg.sampling_factor)
        if cfg.max_neighbors is not None:
            keep = min(keep, cfg.max_neighbors)
        if keep >= len(neighbors):
            return neighbors
        if cfg.strategy == "uniform":
            idx = self._rng.choice(len(neighbors), size=keep, replace=False)
            idx.sort()
        else:
            # Predefined interval-strided indices, as when sampling indices are
            # precomputed and streamed from off-chip memory.
            idx = np.linspace(0, len(neighbors) - 1, num=keep).astype(np.int64)
            idx = np.unique(idx)
        return neighbors[idx]

    def kept_degrees(self, degrees: np.ndarray) -> np.ndarray:
        """How many of each vertex's ``degrees`` neighbours are kept.

        Element ``v`` equals ``len(sample_neighbors(n))`` for any
        neighbour array ``n`` of length ``degrees[v]``: both strategies
        keep exactly the computed count (uniform draws that many distinct
        indices; strided indices are more than one apart, so they stay
        distinct after truncation).  No random numbers are drawn.
        """
        cfg = self.config
        keep = degrees
        if cfg.sampling_factor > 1:
            keep = np.maximum(1, degrees // cfg.sampling_factor)
        if cfg.max_neighbors is not None:
            keep = np.minimum(keep, cfg.max_neighbors)
        # zero-degree vertices keep their (empty) lists untouched
        return np.where(degrees == 0, 0, keep)

    def sample_graph(self, graph: Graph) -> Graph:
        """Materialise the sampled graph (structure only; features are shared).

        The sampled adjacency is directed from the surviving in-neighbours to
        each destination vertex, mirroring how the hardware Sampler filters the
        edge list of each aggregating vertex.
        """
        if not self.config.enabled:
            return graph
        if getattr(graph, "is_csc", False):
            return self._sample_graph_arrays(graph)
        edges = []
        for v in range(graph.num_vertices):
            kept = self.sample_neighbors(graph.in_neighbors(v))
            edges.extend((int(u), v) for u in kept)
        csr = CSRMatrix.from_edges(edges, graph.num_vertices, deduplicate=False) \
            if edges else CSRMatrix.from_edges([], graph.num_vertices)
        return Graph(csr, graph.features, name=f"{graph.name}[sampled]")

    def _sample_graph_arrays(self, graph: Graph) -> Graph:
        """Array-core :meth:`sample_graph` for CSC-backed graphs.

        Bit-for-bit equivalent to the object path: the shared RNG is
        consulted once per vertex whose kept-count is below its in-degree
        (in ascending vertex order, exactly when the object path's
        :meth:`sample_neighbors` draws), while every fully-kept neighbour
        list is gathered in one vectorized shot.  The edge multiset is then
        canonicalised by the same
        :meth:`~repro.graphs.graph.CSRMatrix.from_edges` sort the object
        path ends in, so the sampled structure is identical.  The result
        stays CSC-backed so downstream samplers keep their array paths.
        """
        from .csc import to_csc

        cfg = self.config
        colptr, row = graph.colptr, graph.row
        num_vertices = graph.num_vertices
        degs = np.diff(colptr)
        keep = self.kept_degrees(degs)
        sampled = np.nonzero(keep < degs)[0]
        full_counts = np.where(keep < degs, 0, degs)
        total_full = int(full_counts.sum())
        excl = np.zeros(num_vertices, dtype=np.int64)
        if num_vertices:
            excl[1:] = np.cumsum(full_counts[:-1])
        rel = np.arange(total_full) - np.repeat(excl, full_counts)
        src_parts = [row[np.repeat(colptr[:-1], full_counts) + rel]]
        dst_parts = [np.repeat(np.arange(num_vertices), full_counts)]
        for v in sampled:
            neighbors = row[colptr[v]:colptr[v + 1]]
            k = int(keep[v])
            if cfg.strategy == "uniform":
                idx = self._rng.choice(len(neighbors), size=k, replace=False)
                idx.sort()
            else:
                idx = np.linspace(0, len(neighbors) - 1,
                                  num=k).astype(np.int64)
                idx = np.unique(idx)
            src_parts.append(neighbors[idx])
            dst_parts.append(np.full(len(idx), v, dtype=np.int64))
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        if src.size:
            csr = CSRMatrix.from_arrays(src, dst, num_vertices,
                                        deduplicate=False)
        else:
            csr = CSRMatrix.from_edges([], num_vertices)
        return to_csc(Graph(csr, graph.features,
                            name=f"{graph.name}[sampled]"))

    def sampled_degree_map(self, graph: Graph) -> Dict[int, int]:
        """Per-vertex sampled in-degree without materialising the graph."""
        return {
            v: len(self.sample_neighbors(graph.in_neighbors(v)))
            for v in range(graph.num_vertices)
        }


def sample_graph(graph: Graph, config: SamplingConfig) -> Graph:
    """Convenience wrapper: sample ``graph`` according to ``config``."""
    return NeighborSampler(config).sample_graph(graph)
