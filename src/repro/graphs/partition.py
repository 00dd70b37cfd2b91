"""Interval-shard graph partitioning (Section 4.3.2, Fig. 5a/b).

HyGCN groups destination vertices into *intervals* and source vertices into
*shards*: the interval width is bounded by the Aggregation Buffer capacity
(intermediate results of the whole interval must stay on chip) and the shard
height by the Input Buffer capacity (the source features of one shard must fit
on chip).  The aggregation of an interval then walks its shards one by one,
reusing the loaded source features across all destination vertices of the
interval (Algorithm 2).

The partitioner works directly on the CSC view of the graph -- the paper
stresses that no explicit preprocessing is required because intervals/shards
are implicit in the CSC layout.

This module also hosts the **dataset partitioners** behind multi-chip
serving (:mod:`repro.serving.sharding`, the Fig. 18 scalability story taken
online): :func:`hash_partition` / :func:`locality_partition` assign every
vertex an owning shard, and :func:`build_shard_plan` derives the
:class:`ShardPlan` -- per-shard ownership, ghost/halo vertex sets and
edge-cut statistics -- from any ownership array with pure CSC array
arithmetic (one ``repeat`` + one comparison over the edge list).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .graph import Graph

__all__ = ["VertexInterval", "EdgeShard", "IntervalShardPartition",
           "partition_graph", "ShardPlan", "build_shard_plan",
           "hash_owner", "hash_partition", "locality_partition"]


@dataclass(frozen=True)
class VertexInterval:
    """A contiguous range ``[start, stop)`` of destination vertex ids."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def vertices(self) -> np.ndarray:
        """Vertex ids covered by this interval."""
        return np.arange(self.start, self.stop)

    def __contains__(self, vertex: int) -> bool:
        return self.start <= vertex < self.stop


@dataclass
class EdgeShard:
    """The block of edges whose sources lie in ``[src_start, src_stop)`` and
    whose destinations lie in the owning interval.

    ``edges`` stores ``(src, dst)`` pairs.  A shard with no edges is still a
    meaningful object for the static partition -- the dynamic sparsity
    eliminator is what skips it at runtime.
    """

    interval_index: int
    src_start: int
    src_stop: int
    edges: np.ndarray = field(repr=False)

    @property
    def height(self) -> int:
        """Number of source rows the shard spans."""
        return self.src_stop - self.src_start

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.num_edges == 0

    def source_vertices(self) -> np.ndarray:
        """Distinct source vertex ids that actually appear in the shard."""
        if self.is_empty:
            return np.empty(0, dtype=np.int64)
        return np.unique(self.edges[:, 0])

    def density(self, interval_size: int) -> float:
        """Fraction of the shard's cells occupied by edges."""
        cells = self.height * interval_size
        return self.num_edges / cells if cells else 0.0


class IntervalShardPartition:
    """The full static partition: a grid of shards indexed by (interval, row-block)."""

    def __init__(
        self,
        graph: Graph,
        intervals: Sequence[VertexInterval],
        interval_size: int,
        shard_height: int,
    ):
        self.graph = graph
        self.intervals = list(intervals)
        self.interval_size = interval_size
        self.shard_height = shard_height

    @cached_property
    def _shards(self) -> List[List[EdgeShard]]:
        """The shard grid, built on first use: the Aggregation Engine reads
        only the intervals and the shard height."""
        return _build_shards(self.graph, self.intervals, self.shard_height)

    @property
    def num_intervals(self) -> int:
        return len(self.intervals)

    @property
    def num_row_blocks(self) -> int:
        return len(self._shards[0]) if self._shards else 0

    def shards_for_interval(self, interval_index: int) -> List[EdgeShard]:
        """All shards (including empty ones) feeding one destination interval."""
        return self._shards[interval_index]

    def nonempty_shards_for_interval(self, interval_index: int) -> List[EdgeShard]:
        """Shards that contain at least one edge."""
        return [s for s in self._shards[interval_index] if not s.is_empty]

    def iter_shards(self) -> Iterator[EdgeShard]:
        """Iterate over every shard in interval-major order."""
        for row in self._shards:
            for shard in row:
                yield shard

    def total_edges(self) -> int:
        """Total edges across all shards (== graph edge count)."""
        return sum(s.num_edges for s in self.iter_shards())

    def occupancy(self) -> float:
        """Fraction of shard cells that hold an edge (global sparsity measure)."""
        cells = sum(s.height * self.intervals[s.interval_index].size
                    for s in self.iter_shards())
        return self.total_edges() / cells if cells else 0.0


def partition_graph(
    graph: Graph,
    interval_size: int,
    shard_height: int,
) -> IntervalShardPartition:
    """Partition ``graph`` into vertex intervals and edge shards.

    Parameters
    ----------
    graph:
        The input graph; its CSC view supplies destination-major edges.
    interval_size:
        Number of destination vertices per interval (shard width).  In the
        accelerator this is derived from the Aggregation Buffer capacity.
    shard_height:
        Number of source vertices per shard row-block, derived from the Input
        Buffer capacity.
    """
    if interval_size < 1 or shard_height < 1:
        raise ValueError("interval_size and shard_height must be >= 1")
    n = graph.num_vertices
    intervals = [
        VertexInterval(index=i, start=start, stop=min(start + interval_size, n))
        for i, start in enumerate(range(0, n, interval_size))
    ]
    return IntervalShardPartition(graph, intervals, interval_size, shard_height)


def _build_shards(graph: Graph, intervals: Sequence[VertexInterval],
                  shard_height: int) -> List[List[EdgeShard]]:
    """The (interval, row-block) grid of edge shards of ``graph``."""
    n = graph.num_vertices
    csc = graph.csc
    num_row_blocks = (n + shard_height - 1) // shard_height
    indptr, indices = csc.indptr, csc.indices
    shards: List[List[EdgeShard]] = []
    for interval in intervals:
        # Gather all (src, dst) edges with destination inside the interval.
        # CSC columns for a contiguous destination range are one contiguous
        # slice of the index array.
        lo_ptr, hi_ptr = indptr[interval.start], indptr[interval.stop]
        src_all = indices[lo_ptr:hi_ptr]
        col_lengths = np.diff(indptr[interval.start:interval.stop + 1])
        dst_all = np.repeat(np.arange(interval.start, interval.stop), col_lengths)
        # Sort by source row so each shard row-block is one contiguous slice.
        order = np.argsort(src_all, kind="stable")
        src_sorted, dst_sorted = src_all[order], dst_all[order]
        block_bounds = np.searchsorted(
            src_sorted, np.arange(0, (num_row_blocks + 1) * shard_height, shard_height)
        )
        row_blocks: List[EdgeShard] = []
        for block in range(num_row_blocks):
            lo, hi = block * shard_height, min((block + 1) * shard_height, n)
            b0, b1 = block_bounds[block], block_bounds[block + 1]
            edges = np.stack([src_sorted[b0:b1], dst_sorted[b0:b1]], axis=1) if b1 > b0 \
                else np.empty((0, 2), dtype=np.int64)
            row_blocks.append(EdgeShard(
                interval_index=interval.index,
                src_start=lo,
                src_stop=hi,
                edges=edges,
            ))
        shards.append(row_blocks)
    return shards


# --------------------------------------------------------------------------- #
# Dataset partitioning across a chip group (multi-chip serving)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True, eq=False)
class ShardPlan:
    """Vertex ownership of one graph across a group of ``num_shards`` chips.

    ``owner[v]`` is the shard that holds vertex ``v``'s features in its
    chip's on-board memory; ``halo[s]`` is shard ``s``'s **ghost set** --
    the sorted vertex ids that are sources of in-edges into ``s``-owned
    destinations but are owned elsewhere, i.e. exactly the features shard
    ``s`` must fetch over the interconnect when a neighbourhood it
    aggregates crosses the cut.  ``edge_cut`` counts the directed edges
    whose endpoints live on different shards; minimising it is the whole
    point of the ``locality`` partitioner.

    The plan is static data derived once per (graph, partitioner, shards,
    seed); :mod:`repro.serving.sharding` memoises it across runs.
    """

    num_shards: int
    partitioner: str
    seed: int
    owner: np.ndarray = field(repr=False)
    halo: Tuple[np.ndarray, ...] = field(repr=False)
    shard_sizes: np.ndarray = field(repr=False)
    edge_cut: int = 0
    num_edges: int = 0

    @property
    def num_vertices(self) -> int:
        return int(self.owner.shape[0])

    @property
    def edge_cut_fraction(self) -> float:
        """Fraction of directed edges crossing shard boundaries."""
        return self.edge_cut / self.num_edges if self.num_edges else 0.0

    @property
    def halo_vertices(self) -> int:
        """Total ghost-set size summed over shards."""
        return int(sum(h.size for h in self.halo))

    @property
    def size_imbalance(self) -> float:
        """Largest shard's owned-vertex count over the mean (1.0 = balanced)."""
        if self.num_shards == 0 or self.num_vertices == 0:
            return 0.0
        mean = self.num_vertices / self.num_shards
        return float(self.shard_sizes.max()) / mean if mean else 0.0

    def owned(self, shard: int) -> np.ndarray:
        """Sorted vertex ids owned by ``shard``."""
        return np.flatnonzero(self.owner == shard)


def build_shard_plan(graph: Graph, owner: np.ndarray, *,
                     partitioner: str = "", seed: int = 0) -> ShardPlan:
    """Derive the :class:`ShardPlan` for an ownership array over ``graph``.

    ``owner`` must assign every vertex exactly one shard id in
    ``[0, max(owner) + 1)``; the number of shards is ``owner.max() + 1``
    unless the array is empty (one shard).  Edge-cut and the per-shard halo
    sets come straight from the CSC arrays: with ``dst_owner`` the owner of
    each edge's destination (``repeat`` of ``owner`` by in-degree) and
    ``src_owner = owner[indices]``, the cut edges are
    ``src_owner != dst_owner`` and shard ``s``'s halo is the unique sources
    of cut edges with ``dst_owner == s``.
    """
    owner = np.ascontiguousarray(owner, dtype=np.int64)
    if owner.shape != (graph.num_vertices,):
        raise ValueError(
            f"owner must have shape ({graph.num_vertices},), got {owner.shape}")
    num_shards = int(owner.max()) + 1 if owner.size else 1
    if owner.size and owner.min() < 0:
        raise ValueError("owner shard ids must be >= 0")
    csc = graph.csc
    indptr = np.asarray(csc.indptr)
    indices = np.asarray(csc.indices)
    if owner.size:
        dst_owner = np.repeat(owner, np.diff(indptr))
        src_owner = owner[indices]
        cut = src_owner != dst_owner
        edge_cut = int(np.count_nonzero(cut))
        halo = tuple(np.unique(indices[cut & (dst_owner == s)])
                     for s in range(num_shards))
        shard_sizes = np.bincount(owner, minlength=num_shards).astype(np.int64)
    else:
        edge_cut = 0
        halo = tuple(np.empty(0, dtype=np.int64) for _ in range(num_shards))
        shard_sizes = np.zeros(num_shards, dtype=np.int64)
    return ShardPlan(num_shards=num_shards, partitioner=partitioner, seed=seed,
                     owner=owner, halo=halo, shard_sizes=shard_sizes,
                     edge_cut=edge_cut, num_edges=int(indices.shape[0]))


def hash_owner(ids: np.ndarray, num_shards: int, seed: int = 0) -> np.ndarray:
    """Splitmix64 ownership of arbitrary vertex ids (the hash rule itself).

    Factored out of :func:`hash_partition` so streaming runs can assign
    newly inserted vertices the exact owner a from-scratch repartition
    would: the rule is a pure function of ``(id, num_shards, seed)``.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    ids = np.asarray(ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = ids + np.uint64(seed & 0xFFFFFFFFFFFFFFFF) \
            * np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return (x % np.uint64(num_shards)).astype(np.int64)


def hash_partition(graph: Graph, num_shards: int, seed: int = 0) -> np.ndarray:
    """Seeded multiplicative-hash ownership (the baseline partitioner).

    Every vertex id is mixed through a splitmix64-style avalanche keyed by
    ``seed`` and reduced modulo ``num_shards``, so ownership is uniform,
    seed-dependent and completely locality-oblivious -- the edge-cut of a
    random assignment, which is what ``locality`` is measured against.
    """
    return hash_owner(np.arange(graph.num_vertices, dtype=np.uint64),
                      num_shards, seed)


def locality_partition(graph: Graph, num_shards: int, seed: int = 0) -> np.ndarray:
    """Greedy streaming edge-cut minimiser (LDG, the METIS-style heuristic).

    Vertices are visited in descending total-degree order (hubs first, ties
    on the lower id) and each is placed on the shard maximising::

        |already-placed neighbours on s| * (1 - size(s) / capacity)

    with ``capacity = ceil(V / num_shards)`` -- the linear penalty is what
    keeps shard sizes balanced while neighbours cluster (Stanton & Kliot's
    linear deterministic greedy).  A vertex with no placed neighbours (or
    only zero scores) takes the emptiest shard, lowest id first.  The
    result is deterministic for any ``seed`` (the parameter exists for
    registry uniformity; the greedy consumes no randomness).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    n = graph.num_vertices
    if num_shards == 1 or n == 0:
        return np.zeros(n, dtype=np.int64)
    csc = graph.csc
    csr = graph.csr
    in_ptr, in_idx = np.asarray(csc.indptr), np.asarray(csc.indices)
    out_ptr, out_idx = np.asarray(csr.indptr), np.asarray(csr.indices)
    degree = np.diff(in_ptr) + np.diff(out_ptr)
    order = np.argsort(-degree, kind="stable")
    capacity = -(-n // num_shards)
    owner = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_shards, dtype=np.int64)
    for v in order:
        neighbours = np.concatenate((in_idx[in_ptr[v]:in_ptr[v + 1]],
                                     out_idx[out_ptr[v]:out_ptr[v + 1]]))
        placed = owner[neighbours]
        placed = placed[placed >= 0]
        open_shards = sizes < capacity
        best = -1
        if placed.size:
            counts = np.bincount(placed, minlength=num_shards)
            score = counts * (1.0 - sizes / capacity)
            score[~open_shards] = -1.0
            best = int(np.argmax(score))
            if score[best] <= 0.0:
                best = -1
        if best < 0:
            # no placed neighbours anywhere open: emptiest open shard wins
            masked = np.where(open_shards, sizes, n + 1)
            best = int(np.argmin(masked))
        owner[v] = best
        sizes[best] += 1
    return owner
