"""Per-request k-hop subgraph extraction, neighbourhood signatures, fusion.

Each serving request asks for the embedding of one target vertex, but a GCN
layer needs the k-hop in-neighbourhood of that vertex to compute it.  The
:class:`SubgraphSampler` extracts that neighbourhood as a small standalone
:class:`~repro.graphs.graph.Graph` (local vertex ids, sliced features) so the
rest of the stack -- the batcher, the fleet, the HyGCN simulator -- can treat
a request exactly like any other workload graph.

The per-hop fan-out cap mirrors GraphSage-style sampled serving: at most
``fanout`` in-neighbours of each frontier vertex are expanded.  Extraction is
deterministic per ``(seed, target, num_hops, fanout)`` regardless of request
order -- the control plane's degradation ladder passes per-call hop/fanout
overrides, and each override shape is memoised under its own key -- which
keeps the result-cache semantics honest, and an internal LRU memo avoids
re-extracting hot vertices.

**Determinism contract (random-phase strided selection).**  Over-fanout
selection uses the HyGCN Sampler unit's interval-strided index mode
(Section 4.2) with a seeded random phase: an over-fanout vertex of
in-degree ``d`` keeps the neighbours at positions
``floor((u + j) * d / fanout)`` for ``j = 0..fanout-1``, where ``u`` is one
uniform phase drawn per over-fanout vertex.  Positions are strictly
increasing (``d / fanout > 1``), so exactly ``fanout`` distinct neighbours
survive and every neighbour's inclusion probability is ``fanout / d`` --
a classic systematic sample.  The phase stream is
``rng = default_rng((seed, target))`` (constructed lazily on the first hop
that needs it) drawing ``rng.random(n)`` per hop, ``n`` = that hop's
over-fanout frontier-vertex count in frontier order; under-fanout vertices
keep their full lists and never consume entropy.  One phase per vertex --
not one draw per candidate edge -- keeps selection O(fanout) even at the
1e4-degree hubs of power-law graphs, and the whole hop vectorizes into a
handful of array ops; any implementation consuming the same phase stream
reproduces the selection bit for bit, which is what makes the two cores
below provably interchangeable.

On top of extraction, this module provides the two primitives the
overlap-aware batching subsystem (:mod:`repro.serving.batching`) is built on:

* :meth:`SubgraphSampler.signature` -- a fixed-length **minhash signature**
  of a target's sampled neighbourhood.  Two signatures estimate the Jaccard
  similarity of the underlying neighbourhood vertex sets by the fraction of
  equal components, so the batcher can group overlapping requests without
  materialising unions;
* :meth:`SubgraphSampler.fuse` / :meth:`SubgraphSampler.fused_size` -- the
  **deduped union** of several samples: shared vertices appear once (their
  features are streamed once) and the edge set is the union, which is the
  fused graph one accelerator dispatch actually executes.  ``fused_size``
  is the cheap cost-model view (vertex counts only, no graph built) that
  the WFQ scheduler uses to price batches.

All of it is deterministic under the sampler ``seed`` and memoised in
bounded LRUs (``memo_size`` entries each for samples and signatures).

**Two cores, one contract.**  When the base graph is CSC-backed
(:class:`~repro.graphs.csc.CSCGraph` -- what :func:`~repro.graphs.datasets.\
load_dataset` returns), extraction, ``fused_size`` and ``fuse`` run on the
**array core**: frontier expansion is ``colptr``/``row`` slicing, local-id
assignment and dedup are sort-free scatter/gather passes over index arrays,
and edge lists are assembled as contiguous arrays instead of Python tuples.  On a plain
:class:`~repro.graphs.graph.Graph` the original object core runs.  The two
are **bit-for-bit equivalent** -- identical phase-stream consumption,
identical elementwise position arithmetic, identical local-id order,
identical canonical CSR output -- which
``tests/graphs/test_csc_equivalence.py`` proves differentially and
``benchmarks/bench_core_speed.py`` shows is >= 10x faster.

**Batch at a time.**  Serving code extracts a whole batch's shapes with
one :meth:`SubgraphSampler.extract_batch` call (its memo-bypassing twin is
:meth:`SubgraphSampler.extract_fresh_batch`).  All memo misses go to one
kernel call: the single-target kernel when there is one miss, since it has
the lower fixed cost, and otherwise the multi-target kernel, which expands
every target's frontier as one array per hop and draws each target's
phases from its own ``default_rng((seed, target))`` stream in hop order,
so every sample is bit-identical to a one-at-a-time extraction.  The memo
sees exactly the one-at-a-time sequence: misses are found by peeking,
then ``get``/``put`` are replayed in shape order -- same hit/miss counters,
LRU order, evictions and streaming bookkeeping -- and a shape that an
earlier put of the same call evicted is re-extracted alone.
``tests/serving/test_batch_kernels.py`` checks both kernels and the replay
differentially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..graphs.graph import CSRMatrix, Graph
from .cache import LRUCache

__all__ = ["SubgraphSample", "SubgraphSampler", "estimate_jaccard",
           "SIGNATURE_HASHES"]

#: Components per minhash signature.  16 one-permutation minhashes keep the
#: similarity estimate's standard error around 1/sqrt(16) = 0.25, plenty to
#: rank co-batching candidates, at 128 bytes per signature.
SIGNATURE_HASHES = 16


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    """Estimated Jaccard similarity of two minhash signatures.

    The estimator is the fraction of equal components; both signatures must
    come from the same :class:`SubgraphSampler` (same seeded hash family).
    """
    if sig_a.shape != sig_b.shape:
        raise ValueError("signatures must have the same length")
    return float(np.mean(sig_a == sig_b))


def _reach(num_hops: int, fanout: int, cap: int) -> int:
    """Most vertices a ``num_hops``-hop, ``fanout``-capped sample can hold
    (``1 + fanout + ... + fanout**num_hops``), clipped to ``cap``."""
    total = layer = 1
    for _ in range(num_hops):
        layer *= fanout
        total += layer
        if total >= cap:
            return cap
    return total


def _first_seen(scratch: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Boolean mask of the first occurrence of each value in ``values``.

    Sort-free O(n) dedup over non-negative ints below ``scratch.size``:
    scattering positions in *reverse* makes the earliest index win, so an
    element is a first occurrence exactly when the scratch table still
    holds its own index.  Stale scratch entries are harmless -- only
    entries in ``values`` are read, and those were all just written.
    """
    scratch[values[::-1]] = np.arange(values.size - 1, -1, -1)
    return scratch[values] == np.arange(values.size)


@dataclass(frozen=True)
class SubgraphSample:
    """The materialised neighbourhood of one target vertex.

    ``vertices[i]`` is the *global* id (in the base graph) of local vertex
    ``i``; the target is always local vertex 0.  Samples are immutable and
    shared via the sampler's memo, so callers must never mutate ``graph``.
    """

    target_vertex: int
    vertices: Tuple[int, ...]
    graph: Graph
    #: Array-core twin of ``vertices`` (same ids, same order); ``None`` for
    #: object-core samples.  Excluded from equality so samples from the two
    #: cores compare equal when their contents do.
    vertex_ids: Optional[np.ndarray] = field(default=None, compare=False,
                                             repr=False)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def vertex_array(self) -> np.ndarray:
        """Global vertex ids as an ``int64`` array (either core)."""
        if self.vertex_ids is not None:
            return self.vertex_ids
        return np.asarray(self.vertices, dtype=np.int64)


class SubgraphSampler:
    """Extracts capped k-hop in-neighbourhood subgraphs from a base graph.

    ``num_hops`` / ``fanout`` are the default sampling shape; every public
    method accepts per-call overrides (used by the degradation ladder) and
    memoises each ``(target, hops, fanout)`` shape under its own key, so
    degraded and full-fidelity samples never alias in the memo.
    """

    def __init__(self, graph: Graph, num_hops: int = 2, fanout: int = 8,
                 seed: int = 0, memo_size: int = 2048):
        if num_hops < 0:
            raise ValueError("num_hops must be >= 0")
        if fanout < 1:
            raise ValueError("fanout must be >= 1")
        self.graph = graph
        self.num_hops = int(num_hops)
        self.fanout = int(fanout)
        self.seed = int(seed)
        self._memo = LRUCache(memo_size)
        self._sig_memo = LRUCache(memo_size)
        #: Memo policy on a mutating graph (one with a ``version``
        #: attribute, i.e. a :class:`~repro.graphs.delta.DeltaGraph`):
        #: ``"targeted"`` drops exactly the memo entries whose sample
        #: contains a dirty vertex, ``"flush"`` clears both memos on any
        #: version change, ``"none"`` keeps stale entries (the serving
        #: loop's consistency tracker counts the resulting violations).
        self.invalidation = "targeted"
        #: graph version the cached arrays/memos were last synced against;
        #: ``None`` on immutable graphs, where _sync is a cheap no-op.
        self._graph_version = getattr(graph, "version", None)
        self._mutable = self._graph_version is not None
        # reverse index for targeted invalidation: global vertex id -> memo
        # keys whose cached sample contains it (only maintained on mutable
        # graphs; static runs pay nothing)
        self._vertex_keys: Dict[int, Set[Tuple]] = {}
        # graph version each live memo entry was computed at, and lifetime
        # drop counters (the consistency tracker folds these into
        # ConsistencyStats at the end of a run)
        self._key_versions: Dict[Tuple, int] = {}
        self.invalidated_samples = 0
        self.invalidated_signatures = 0
        #: True when the base graph is CSC-backed and the vectorized array
        #: core handles extraction / fusion (bit-identical to the object
        #: core -- see the module docstring).
        self.array_core = bool(getattr(graph, "is_csc", False))
        if self.array_core:
            self._colptr = graph.colptr
            self._row = graph.row
            # global id -> local id scratch table, -1 = unseen; reset to -1
            # for exactly the touched entries after every extraction, so
            # each extract pays O(subgraph), not O(graph)
            self._local_lut = np.full(graph.num_vertices, -1, dtype=np.int64)
            # first-occurrence scratch for _first_seen; never reset -- every
            # query overwrites the entries it reads before reading them
            self._pos_lut = np.empty(graph.num_vertices, dtype=np.int64)
        # Seeded universal-hash family for the minhash signatures: odd 64-bit
        # multipliers (bijective mod 2^64) plus xor masks, fixed per sampler
        # seed so signatures are comparable across the whole run.
        rng = np.random.default_rng((self.seed, 0x51697A7A))
        self._sig_mult = (rng.integers(1, 2 ** 62, size=SIGNATURE_HASHES,
                                       dtype=np.uint64) << np.uint64(1)) \
            | np.uint64(1)
        self._sig_xor = rng.integers(0, 2 ** 62, size=SIGNATURE_HASHES,
                                     dtype=np.uint64)

    # ------------------------------------------------------------------ #
    # Streaming-graph synchronisation
    # ------------------------------------------------------------------ #
    def _sync(self) -> None:
        """Catch up with a mutated base graph (no-op on immutable graphs).

        Called at every public entry point.  Refreshes the cached
        ``colptr``/``row`` references and grows the scratch LUTs when the
        graph gained vertices -- this structural part always runs, so the
        sampler never crashes on a grown graph -- then applies the memo
        :attr:`invalidation` policy to the entries the mutations made
        stale.
        """
        if not self._mutable:
            return
        version = self.graph.version
        if version == self._graph_version:
            return
        synced_from = self._graph_version
        self._graph_version = version
        if self.array_core:
            self._colptr = self.graph.colptr
            self._row = self.graph.row
            n = self.graph.num_vertices
            if n > self._local_lut.size:
                grown = np.full(n, -1, dtype=np.int64)
                grown[:self._local_lut.size] = self._local_lut
                self._local_lut = grown
                self._pos_lut = np.empty(n, dtype=np.int64)
        if self.invalidation == "flush":
            self._flush_memos()
        elif self.invalidation == "targeted":
            dirty = getattr(self.graph, "dirty_since", None)
            if dirty is None:
                # a mutable graph without change tracking: flush is the
                # only sound fallback
                self._flush_memos()
            else:
                self.invalidate_vertices(dirty(synced_from))

    def _flush_memos(self) -> None:
        self.invalidated_samples += len(self._memo)
        self.invalidated_signatures += len(self._sig_memo)
        self._memo.clear()
        self._sig_memo.clear()
        self._vertex_keys.clear()
        self._key_versions.clear()

    def invalidate_vertices(self, vertices: Iterable[int]) -> int:
        """Drop every memoised sample/signature containing ``vertices``.

        Returns the number of sample-memo entries dropped.  Uses the
        reverse vertex->keys index maintained on insertion, so the cost is
        proportional to the affected entries, not the memo size.
        """
        keys: Set[Tuple] = set()
        for v in np.asarray(vertices, dtype=np.int64).tolist():
            keys |= self._vertex_keys.pop(int(v), set())
        dropped = 0
        for key in keys:
            if self._memo.invalidate(key):
                dropped += 1
            if self._sig_memo.invalidate(key):
                self.invalidated_signatures += 1
            self._key_versions.pop(key, None)
        self.invalidated_samples += dropped
        return dropped

    def _register_sample(self, key: Tuple, sample: "SubgraphSample") -> None:
        """Index ``key`` under every vertex of ``sample`` (mutable graphs)."""
        for v in sample.vertex_array.tolist():
            self._vertex_keys.setdefault(int(v), set()).add(key)
        self._key_versions[key] = self._graph_version

    def forget(self, keys: Iterable[Tuple]) -> None:
        """Silently drop memo entries: no invalidation counting, no cache
        counter perturbation.

        Probe hygiene for mutating runs: the calibration probe shares the
        run's sampler, and any memo entries it left behind would make the
        run's invalidation accounting depend on whether the process-wide
        probe memo hit (run-to-run nondeterminism).  Static runs never need
        this -- their memo state does not feed any reported number.
        """
        for key in keys:
            sample = self._memo.peek(key)
            if sample is not None and self._mutable:
                for v in sample.vertex_array.tolist():
                    entry = self._vertex_keys.get(int(v))
                    if entry is not None:
                        entry.discard(key)
                        if not entry:
                            del self._vertex_keys[int(v)]
            self._memo.invalidate(key)
            self._sig_memo.invalidate(key)
            self._key_versions.pop(key, None)

    def memo_version(self, target_vertex: int, num_hops: Optional[int],
                     fanout: Optional[int]) -> Optional[int]:
        """Graph version the live memo entry for this shape was computed at
        (``None`` when nothing is memoised -- immutable graphs track no
        versions, so this is a mutable-graph-only probe)."""
        hops = self.num_hops if num_hops is None else int(num_hops)
        fan = self.fanout if fanout is None else int(fanout)
        return self._key_versions.get((target_vertex, hops, fan))

    def _first_seen(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask of the first occurrence of each vertex id in
        ``values`` (:func:`_first_seen` over the vertex scratch table)."""
        return _first_seen(self._pos_lut, values)

    def _shape_key(self, target_vertex: int, num_hops: Optional[int],
                   fanout: Optional[int]) -> Tuple[int, int, int]:
        """Validated memo key ``(target, hops, fanout)`` of one shape
        (``None`` components resolve to the sampler defaults)."""
        if not 0 <= target_vertex < self.graph.num_vertices:
            raise ValueError(f"target vertex {target_vertex} out of range")
        hops = self.num_hops if num_hops is None else int(num_hops)
        fan = self.fanout if fanout is None else int(fanout)
        if hops < 0:
            raise ValueError("num_hops must be >= 0")
        if fan < 1:
            raise ValueError("fanout must be >= 1")
        return (target_vertex, hops, fan)

    def extract(self, target_vertex: int, num_hops: Optional[int] = None,
                fanout: Optional[int] = None) -> SubgraphSample:
        """Return the (memoised) k-hop subgraph rooted at ``target_vertex``.

        ``num_hops``/``fanout`` override the sampler defaults for this call --
        the control plane's degradation ladder uses them to serve overload
        traffic from a shallower/narrower neighbourhood.  Overridden
        extractions are memoised under their own ``(target, hops, fanout)``
        key, so degraded and full-fidelity samples never alias.  Extraction
        is deterministic per ``(seed, target, hops, fanout)``: the RNG is
        re-seeded per target, so the memo (and the result cache built on
        top of it) can never observe request-order-dependent samples.
        """
        return self.extract_batch([(target_vertex, num_hops, fanout)])[0]

    def extract_batch(self, shapes: Iterable[Tuple[int, Optional[int],
                                                   Optional[int]]]
                      ) -> List[SubgraphSample]:
        """Memoised samples of a batch of ``(target, hops, fanout)`` shapes.

        Returns exactly what ``[extract(*s) for s in shapes]`` returns and
        leaves the memo exactly as that loop would -- same hit/miss
        counters, LRU order, evictions and streaming bookkeeping -- but
        extracts every memo miss in one multi-target kernel call (see the
        module docstring).  Shapes may repeat and may mix hop/fanout
        overrides.
        """
        self._sync()
        keys = [self._shape_key(*shape) for shape in shapes]
        memo = self._memo
        misses = [key for key in dict.fromkeys(keys) if key not in memo]
        fresh = dict(zip(misses, self._extract_keys(misses)))
        # replay the per-shape get/put sequence of the one-at-a-time loop
        samples = []
        for key in keys:
            sample = memo.get(key)
            if sample is None:
                sample = fresh.get(key)
                if sample is None:
                    # a hit at peek time, evicted by an earlier put since
                    sample = self._extract_keys([key])[0]
                memo.put(key, sample)
                if self._mutable:
                    self._register_sample(key, sample)
            samples.append(sample)
        return samples

    def extract_fresh(self, target_vertex: int,
                      num_hops: Optional[int] = None,
                      fanout: Optional[int] = None) -> SubgraphSample:
        """Memo-bypassing extraction: always recomputes from the current
        graph arrays and never reads, writes or counts against the memo.

        This is the consistency tracker's reference computation -- compare
        it against :meth:`extract` to detect a stale memo entry surviving
        an update (extraction is deterministic per ``(seed, target, hops,
        fanout)``, so any difference is staleness, not randomness).
        """
        return self.extract_fresh_batch([(target_vertex, num_hops,
                                          fanout)])[0]

    def extract_fresh_batch(self, shapes: Iterable[Tuple[int, Optional[int],
                                                         Optional[int]]]
                            ) -> List[SubgraphSample]:
        """Memo-bypassing :meth:`extract_batch`: one fresh sample per shape,
        all extracted in one kernel call."""
        self._sync()
        return self._extract_keys([self._shape_key(*shape)
                                   for shape in shapes])

    def _extract_keys(self, keys: Sequence[Tuple[int, int, int]]
                      ) -> List[SubgraphSample]:
        """Kernel selection: the object core on plain graphs; on the array
        core the single-target kernel for one key (it has the lower fixed
        cost) and the multi-target kernel for several."""
        if not self.array_core:
            return [self._extract(*key) for key in keys]
        if len(keys) == 1:
            return [self._extract_arrays(*keys[0])]
        return self._extract_many_arrays(keys) if keys else []

    def signature_fresh(self, target_vertex: int,
                        num_hops: Optional[int] = None,
                        fanout: Optional[int] = None) -> np.ndarray:
        """Memo-bypassing :meth:`signature` (the tracker's reference)."""
        sample = self.extract_fresh(target_vertex, num_hops=num_hops,
                                    fanout=fanout)
        return self._signature_of(sample)

    def _signature_of(self, sample: "SubgraphSample") -> np.ndarray:
        """Minhash the vertex set of one sample (shared by both paths)."""
        vertices = sample.vertex_array.astype(np.uint64)
        # h_j(v) = ((v + 1) * mult_j) ^ xor_j over Z_2^64; the signature is
        # the per-hash minimum over the neighbourhood's vertex set.
        hashed = ((vertices[:, None] + np.uint64(1))
                  * self._sig_mult[None, :]) ^ self._sig_xor[None, :]
        sig = hashed.min(axis=0)
        sig.setflags(write=False)
        return sig

    # ------------------------------------------------------------------ #
    # Neighbourhood signatures (overlap-aware batching)
    # ------------------------------------------------------------------ #
    def signature(self, target_vertex: int, num_hops: Optional[int] = None,
                  fanout: Optional[int] = None) -> np.ndarray:
        """Minhash signature of the sampled neighbourhood of ``target_vertex``.

        Returns a read-only ``uint64`` vector of :data:`SIGNATURE_HASHES`
        components; compare two with :func:`estimate_jaccard`.  The
        signature summarises the *same* sampled neighbourhood that
        :meth:`extract` would fuse (default shape, or the given override
        shape -- typically a shallower ``num_hops`` than the serving shape,
        the CLI's ``--overlap-k``), so similar signatures genuinely predict
        fused-subgraph shrinkage.  Deterministic per ``(seed, target, hops,
        fanout)`` and memoised in its own LRU; identical targets always get
        bit-identical signatures, which is what routes duplicate hot
        requests into the same batch.
        """
        self._sync()
        hops = self.num_hops if num_hops is None else int(num_hops)
        fan = self.fanout if fanout is None else int(fanout)
        key = (target_vertex, hops, fan)
        cached = self._sig_memo.get(key)
        if cached is not None:
            return cached
        sample = self.extract(target_vertex, num_hops=hops, fanout=fan)
        sig = self._signature_of(sample)
        self._sig_memo.put(key, sig)
        return sig

    # ------------------------------------------------------------------ #
    # Fused-subgraph dedup (cost model + execution model)
    # ------------------------------------------------------------------ #
    def fused_size(self, shapes: Iterable[Tuple[int, Optional[int],
                                                Optional[int]]]
                   ) -> Tuple[int, int]:
        """``(fused_vertices, naive_vertices)`` of a batch of sample shapes.

        ``shapes`` is one ``(target, num_hops, fanout)`` entry per *request*
        (``None`` components mean the sampler default).  ``naive_vertices``
        counts every request's standalone neighbourhood size -- duplicates
        included, which is what a batcher oblivious to overlap would stream
        -- while ``fused_vertices`` is the deduped union the fused dispatch
        actually touches.  This is the cost-model view of :meth:`fuse`
        (counts only, no graph built); the WFQ scheduler prices batches
        with it.  Uses the extraction memo, so pricing a batch of hot
        targets costs dictionary lookups, not re-extraction.
        """
        samples = self.extract_batch(shapes)
        if not samples:
            return 0, 0
        naive = sum(sample.num_vertices for sample in samples)
        if self.array_core:
            concat = np.concatenate([s.vertex_array for s in samples])
            return int(self._first_seen(concat).sum()), naive
        union = set()
        for sample in samples:
            union.update(sample.vertices)
        return len(union), naive

    def fuse(self, samples: Sequence[SubgraphSample],
             name: str = "fused") -> Graph:
        """Deduped union of ``samples`` as one standalone fused graph.

        Vertices shared between neighbourhoods appear **once** (their
        features are sliced from the base graph once) and the edge set is
        the union of the samples' edge sets mapped onto the shared local id
        space -- this is the fused subgraph HyGCN's aggregation engine
        benefits from when co-batched neighbourhoods intersect.  Local ids
        follow first-seen order over ``samples``, so fusion is
        deterministic for a deterministic sample order.  The fused graph is
        marked ``memoize_workloads = False``: fusions are unique per
        dispatch and must not pin their merged feature matrices in the
        workload memo.
        """
        if not samples:
            raise ValueError("fuse requires at least one sample")
        self._sync()
        if self.array_core:
            return self._fuse_arrays(samples, name)
        local_of = {}
        order: List[int] = []
        for sample in samples:
            for gv in sample.vertices:
                if gv not in local_of:
                    local_of[gv] = len(order)
                    order.append(gv)
        edges: List[Tuple[int, int]] = []
        seen = set()
        for sample in samples:
            for v_local in range(sample.graph.num_vertices):
                v_global = sample.vertices[v_local]
                for u in sample.graph.neighbors(v_local):
                    # neighbors() yields out-edges, so the tuple keeps the
                    # (source, destination) convention _extract uses
                    edge = (local_of[v_global],
                            local_of[sample.vertices[int(u)]])
                    if edge not in seen:
                        seen.add(edge)
                        edges.append(edge)
        features = self.graph.features[np.asarray(order, dtype=np.int64)]
        csr = CSRMatrix.from_edges(edges, len(order))
        fused = Graph(csr, features, name=name)
        # fused batches are unique per dispatch; keeping them out of the
        # workload memo stops it pinning their merged feature matrices
        fused.memoize_workloads = False
        return fused

    def _fuse_arrays(self, samples: Sequence[SubgraphSample],
                     name: str) -> Graph:
        """Array-core :meth:`fuse`: index-array dedup instead of dict unions.

        Local ids follow first-seen order over ``samples`` (the sort-free
        :meth:`_first_seen` mask over the concatenated vertex arrays) and
        global->fused-local mapping is one gather through the scratch LUT;
        the union edge set is canonicalised by the same
        :meth:`~repro.graphs.graph.CSRMatrix.from_edges` sort/dedup the
        object core ends in -- so the fused graph is identical bit for bit.
        """
        concat = np.concatenate([s.vertex_array for s in samples])
        order = concat[self._first_seen(concat)]
        lut = self._local_lut
        lut[order] = np.arange(order.size)
        rows_parts: List[np.ndarray] = []
        cols_parts: List[np.ndarray] = []
        for sample in samples:
            csr = sample.graph.csr
            if csr.nnz == 0:
                continue
            vid = sample.vertex_array
            # sample-local (v -> u) out-edges mapped to fused local ids
            v_global = vid[np.repeat(np.arange(csr.num_rows),
                                     np.diff(csr.indptr))]
            u_global = vid[csr.indices]
            rows_parts.append(lut[v_global])
            cols_parts.append(lut[u_global])
        lut[order] = -1  # reset only the touched scratch entries
        if rows_parts:
            csr = CSRMatrix.from_arrays(np.concatenate(rows_parts),
                                        np.concatenate(cols_parts),
                                        order.size)
        else:
            csr = CSRMatrix.from_edges([], order.size)
        features = self.graph.features[order]
        fused = Graph(csr, features, name=name)
        fused.memoize_workloads = False
        return fused

    # ------------------------------------------------------------------ #
    def _extract_arrays(self, target_vertex: int, num_hops: int,
                        fanout: int) -> SubgraphSample:
        """Array-core k-hop extraction over ``colptr``/``row`` slices.

        Bit-identical to :meth:`_extract`: both cores consume the per-hop
        phase stream of the module-level determinism contract (one uniform
        per over-fanout frontier vertex; under-fanout vertices never touch
        the RNG) and compute the strided positions with the same
        elementwise float64 arithmetic, and new vertices take local ids in
        first-seen order over the concatenated per-hop neighbour stream --
        the same order the object core's dict scan assigns.
        """
        rng = None
        colptr, row = self._colptr, self._row
        lut = self._local_lut
        lut[target_vertex] = 0
        order_parts = [np.array([target_vertex], dtype=np.int64)]
        num_local = 1
        rows_parts: List[np.ndarray] = []   # edge sources, local ids
        cols_parts: List[np.ndarray] = []   # edge destinations, local ids
        frontier = order_parts[0]
        frontier_base = 0  # frontier local ids are always consecutive
        for _ in range(num_hops):
            starts = colptr[frontier]
            degs = colptr[frontier + 1] - starts
            counts = np.minimum(degs, fanout)
            seg_end = np.cumsum(counts)
            total = int(seg_end[-1])
            if total == 0:
                break
            seg_start = seg_end - counts
            over = np.nonzero(degs > fanout)[0]
            if over.size == 0:
                # every frontier vertex keeps its full list: the segment
                # layout equals the slice layout, so one gather suffices --
                # position j of segment i reads row[starts[i] + j]
                rel = np.arange(total) - np.repeat(seg_start, counts)
                neigh = row[np.repeat(starts, counts) + rel]
            else:
                full = np.nonzero(degs <= fanout)[0]
                neigh = np.empty(total, dtype=np.int64)
                if full.size:
                    f_counts = counts[full]
                    f_end = np.cumsum(f_counts)
                    rel = np.arange(int(f_end[-1])) - np.repeat(
                        f_end - f_counts, f_counts)
                    neigh[np.repeat(seg_start[full], f_counts) + rel] = \
                        row[np.repeat(starts[full], f_counts) + rel]
                if rng is None:
                    rng = np.random.default_rng((self.seed, target_vertex))
                # random-phase strided selection, whole hop at once: the
                # phase u and the position arithmetic are elementwise
                # identical to the object core's per-vertex expression
                u = rng.random(over.size)
                step = degs[over] / fanout
                offs = (u[:, None] * step[:, None]
                        + np.arange(fanout)[None, :] * step[:, None]
                        ).astype(np.int64)
                pos = (seg_start[over][:, None] + np.arange(fanout)).ravel()
                neigh[pos] = row[(starts[over][:, None] + offs).ravel()]
            dst_local = np.repeat(
                np.arange(frontier_base, frontier_base + frontier.size),
                counts)
            src_local = lut[neigh]
            unseen = src_local < 0
            fresh = neigh[unseen]
            if fresh.size:
                new_globals = fresh[self._first_seen(fresh)]
                lut[new_globals] = num_local + np.arange(new_globals.size)
                # patch only the previously-unseen entries instead of
                # re-gathering lut over the whole hop
                src_local[unseen] = lut[fresh]
                frontier_base = num_local
                num_local += new_globals.size
                order_parts.append(new_globals)
                frontier = new_globals
            else:
                frontier = np.empty(0, dtype=np.int64)
            rows_parts.append(src_local)
            cols_parts.append(dst_local)
            if frontier.size == 0:
                break
        order = np.concatenate(order_parts) if len(order_parts) > 1 \
            else order_parts[0]
        lut[order] = -1  # reset only the touched scratch entries
        if rows_parts:
            csr = CSRMatrix.from_arrays(np.concatenate(rows_parts),
                                        np.concatenate(cols_parts), num_local)
        else:
            csr = CSRMatrix.from_edges([], num_local)
        features = self.graph.features[order]
        graph = Graph(csr, features,
                      name=f"{self.graph.name}[v{target_vertex}]")
        order.setflags(write=False)
        return SubgraphSample(target_vertex=target_vertex,
                              vertices=tuple(order.tolist()), graph=graph,
                              vertex_ids=order)

    def _extract_many_arrays(self, keys: Sequence[Tuple[int, int, int]]
                             ) -> List[SubgraphSample]:
        """Multi-target array-core extraction: all ``keys`` in one pass.

        Every hop expands the frontiers of all targets (*slots*) still
        within their hop budget as one concatenated array, grouped by slot
        in slot order.  Global vertex ids met in the call get dense ids
        through the scratch LUT, and a flat ``(slot, dense id)`` table
        holds each slot's local ids, so finding a neighbour's local id and
        deduplicating the unseen ones are scatter/gather passes, as in the
        single-target kernel.  Unseen neighbours take their slot's next
        local ids in first-seen order over the stream; because the stream
        is grouped by slot, that is each slot's own first-seen order.  The
        over-fanout phases are drawn slot by slot from each target's own
        ``default_rng((seed, target))`` in frontier order.  So every sample
        equals :meth:`_extract_arrays` on its key, bit for bit.  All edges
        are canonicalised by one :meth:`CSRMatrix.from_arrays` call on the
        slots' stacked rows, after which each slot's CSR is a slice.
        """
        colptr, row = self._colptr, self._row
        m = len(keys)
        targets = np.fromiter((k[0] for k in keys), dtype=np.int64, count=m)
        hops = np.fromiter((k[1] for k in keys), dtype=np.int64, count=m)
        fans = np.fromiter((k[2] for k in keys), dtype=np.int64, count=m)
        slots = np.arange(m)
        num_local = np.ones(m, dtype=np.int64)
        rngs: Dict[int, np.random.Generator] = {}
        # local id of (slot s, vertex index d) at s * width + d, -1 =
        # unseen.  width bounds the distinct vertices all samples can
        # reach; below the vertex count, vertices get dense indices
        # through the shared scratch LUT (reset on return), otherwise a
        # vertex id is its own index
        n = colptr.size - 1
        width = min(n, sum(_reach(h, f, n) for _, h, f in keys))
        lut = self._local_lut if width < n else None
        index = targets
        if lut is not None:
            dense_globals = [targets[self._first_seen(targets)]]
            num_dense = dense_globals[0].size
            lut[dense_globals[0]] = np.arange(num_dense)
            index = lut[targets]
        local_of = np.full(m * width, -1, dtype=np.int64)
        first_scratch = np.empty(local_of.size, dtype=np.int64)
        zeros = np.zeros(m, dtype=np.int64)
        local_of[slots * width + index] = zeros
        vert_parts = [(slots, zeros, targets)]  # (slot, local, global)
        edge_parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        live = hops > 0
        frontier, f_slot, f_local = targets[live], slots[live], zeros[live]
        for hop in range(int(hops.max(initial=0))):
            if hop:
                # slots whose hop budget is spent stop expanding
                within = hops[f_slot] > hop
                if not within.all():
                    frontier, f_slot, f_local = \
                        frontier[within], f_slot[within], f_local[within]
            if frontier.size == 0:
                break
            starts = colptr[frontier]
            degs = colptr[frontier + 1] - starts
            fan = fans[f_slot]
            counts = np.minimum(degs, fan)
            seg_end = np.cumsum(counts)
            total = int(seg_end[-1])
            if total == 0:
                break
            seg_start = seg_end - counts
            over = np.flatnonzero(degs > fan)
            if over.size == 0:
                rel = np.arange(total) - np.repeat(seg_start, counts)
                neigh = row[np.repeat(starts, counts) + rel]
            else:
                full = np.flatnonzero(degs <= fan)
                neigh = np.empty(total, dtype=np.int64)
                if full.size:
                    f_counts = counts[full]
                    f_end = np.cumsum(f_counts)
                    rel = np.arange(int(f_end[-1])) - np.repeat(
                        f_end - f_counts, f_counts)
                    neigh[np.repeat(seg_start[full], f_counts) + rel] = \
                        row[np.repeat(starts[full], f_counts) + rel]
                # one phase per over-fanout vertex, drawn slot by slot from
                # each target's own stream, in frontier order
                o_slot = f_slot[over]
                heads = np.flatnonzero(np.diff(o_slot, prepend=-1))
                phases = []
                for s, c in zip(o_slot[heads].tolist(),
                                np.diff(heads, append=over.size).tolist()):
                    rng = rngs.get(s)
                    if rng is None:
                        rng = rngs[s] = np.random.default_rng(
                            (self.seed, keys[s][0]))
                    phases.append(rng.random(c))
                u = np.concatenate(phases)
                o_fan = fan[over]
                step = degs[over] / o_fan
                o_end = np.cumsum(o_fan)
                j = np.arange(int(o_end[-1])) - np.repeat(o_end - o_fan, o_fan)
                u_rep = np.repeat(u, o_fan)
                step_rep = np.repeat(step, o_fan)
                # elementwise the same float64 arithmetic as _extract_arrays
                offs = (u_rep * step_rep + j * step_rep).astype(np.int64)
                neigh[np.repeat(seg_start[over], o_fan) + j] = \
                    row[np.repeat(starts[over], o_fan) + offs]
            e_slot = np.repeat(f_slot, counts)
            dst_local = np.repeat(f_local, counts)
            index = neigh
            if lut is not None:
                index = lut[neigh]
                undensed = index < 0
                if undensed.any():
                    fresh = neigh[undensed]
                    fresh = fresh[self._first_seen(fresh)]
                    lut[fresh] = num_dense + np.arange(fresh.size)
                    num_dense += fresh.size
                    dense_globals.append(fresh)
                    index[undensed] = lut[neigh[undensed]]
            at = e_slot * width + index
            src_local = local_of[at]
            edge_parts.append((e_slot, src_local, dst_local))
            unseen = np.flatnonzero(src_local < 0)
            if unseen.size == 0:
                break
            at_unseen = at[unseen]
            first = unseen[_first_seen(first_scratch, at_unseen)]
            new_slot = e_slot[first]
            per_slot = np.bincount(new_slot, minlength=m)
            group_start = np.cumsum(per_slot) - per_slot
            new_local = num_local[new_slot] + np.arange(first.size) \
                - group_start[new_slot]
            num_local += per_slot
            local_of[at[first]] = new_local
            # completes the src_local array appended above
            src_local[unseen] = local_of[at_unseen]
            frontier, f_slot, f_local = neigh[first], new_slot, new_local
            vert_parts.append((new_slot, new_local, frontier))
        if lut is not None:
            lut[np.concatenate(dense_globals)] = -1  # reset touched entries
        # per-slot vertex order: slot s owns [offset[s], offset[s] + n_s)
        offset = np.cumsum(num_local) - num_local
        total_local = int(num_local.sum())
        order_all = np.empty(total_local, dtype=np.int64)
        for v_slot, v_local, v_global in vert_parts:
            order_all[offset[v_slot] + v_local] = v_global
        # all slots' edges as one stacked matrix (slot s owns the rows
        # [offset[s], offset[s] + n_s)); its canonical form, sliced by
        # slot, is each slot's canonical CSR
        if edge_parts:
            e_slot, src, dst = (np.concatenate(p) for p in zip(*edge_parts))
            stacked = CSRMatrix.from_arrays(offset[e_slot] + src, dst,
                                            total_local,
                                            int(num_local.max()))
            indptr_all, cols = stacked.indptr, stacked.indices
        else:
            indptr_all = np.zeros(total_local + 1, dtype=np.int64)
            cols = np.empty(0, dtype=np.int64)
        features = self.graph.features
        name = self.graph.name
        order_list = order_all.tolist()
        samples = []
        for s, (lo, size) in enumerate(zip(offset.tolist(),
                                           num_local.tolist())):
            hi = lo + size
            e_lo = indptr_all[lo]
            csr = CSRMatrix.from_parts(indptr_all[lo:hi + 1] - e_lo,
                                       cols[e_lo:indptr_all[hi]].copy(), size)
            order = order_all[lo:hi].copy()
            target = keys[s][0]
            graph = Graph(csr, features[order], name=f"{name}[v{target}]")
            order.setflags(write=False)
            samples.append(SubgraphSample(
                target_vertex=target, vertices=tuple(order_list[lo:hi]),
                graph=graph, vertex_ids=order))
        return samples

    def _extract(self, target_vertex: int, num_hops: int,
                 fanout: int) -> SubgraphSample:
        # Seeding a Generator costs ~25us and consumes no entropy, so both
        # cores construct it lazily on the first hop that draws; the key
        # stream is identical to eager construction.
        rng = None
        local_of = {target_vertex: 0}
        order: List[int] = [target_vertex]
        edges: List[Tuple[int, int]] = []
        frontier = [target_vertex]
        for _ in range(num_hops):
            next_frontier: List[int] = []
            lists = [self.graph.in_neighbors(v) for v in frontier]
            num_over = sum(1 for n in lists if len(n) > fanout)
            if num_over:
                if rng is None:
                    rng = np.random.default_rng((self.seed, target_vertex))
                # one uniform phase per over-fanout vertex, frontier order
                phases = rng.random(num_over)
            pos = 0
            for v, neighbors in zip(frontier, lists):
                if len(neighbors) > fanout:
                    u = phases[pos]
                    pos += 1
                    step = len(neighbors) / fanout
                    idx = (u * step
                           + np.arange(fanout) * step).astype(np.int64)
                    neighbors = neighbors[idx]
                v_local = local_of[v]
                for u in neighbors:
                    u = int(u)
                    u_local = local_of.get(u)
                    if u_local is None:
                        u_local = len(order)
                        local_of[u] = u_local
                        order.append(u)
                        next_frontier.append(u)
                    edges.append((u_local, v_local))
            frontier = next_frontier
            if not frontier:
                break
        num_local = len(order)
        csr = CSRMatrix.from_edges(edges, num_local)
        features = self.graph.features[np.asarray(order, dtype=np.int64)]
        graph = Graph(csr, features, name=f"{self.graph.name}[v{target_vertex}]")
        return SubgraphSample(target_vertex=target_vertex,
                              vertices=tuple(order), graph=graph)
