"""Streaming mutation overlay on the array-native CSC core.

:class:`DeltaGraph` makes a :class:`~repro.graphs.csc.CSCGraph` mutable
without giving up the flat-array layout the samplers' vectorized paths run
on.  The base arrays are treated as immutable (dataset graphs are memoised
and shared across runs -- see :func:`repro.graphs.datasets.load_dataset`);
mutations accumulate in append-only delta logs:

* **edge insertions** -- ``(src, dst)`` pairs appended to a pending log
  (an in-edge of ``dst``, exactly the CSC column orientation);
* **vertex insertions** -- new feature rows appended past the base vertex
  range (new vertices start isolated; edges referencing them arrive as
  ordinary edge insertions);
* **feature writes** -- per-vertex feature-row overrides.

Every applied mutation bumps the monotonically increasing :attr:`version`
and records the affected vertex in a dirty log, which consumers (the
serving sampler's memo invalidation, the consistency tracker) query with
:meth:`dirty_since`.

Reads go through a lazily materialised **snapshot**: flat ``colptr`` /
``row`` / ``features`` arrays with the deltas merged in canonical CSC
order (sources ascending within each column, matching what
:class:`~repro.graphs.graph.CSRMatrix` construction produces), cached
until the next mutation.  Because the snapshot is bit-for-bit identical to
the arrays of a ``CSCGraph`` rebuilt from scratch at the same version,
both sampler cores run unmodified -- and provably equivalently -- on a
mutating graph (``tests/serving/test_streaming_consistency.py``).

:meth:`compact` promotes the current snapshot to the new base and clears
the delta logs (the version is unchanged: compaction is a representation
change, not a mutation).  ``compact_every`` auto-compacts after that many
pending mutations, bounding snapshot rebuild cost.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .csc import CSCGraph
from .graph import CSCMatrix, CSRMatrix, Graph

__all__ = ["DeltaGraph"]


class DeltaGraph(Graph):
    """A mutable CSC-dispatch-compatible overlay on a base :class:`CSCGraph`.

    Parameters
    ----------
    base:
        The graph to overlay.  Any :class:`~repro.graphs.graph.Graph` is
        accepted; non-CSC bases are converted once.  The base's arrays are
        never written to.
    compact_every:
        Auto-compact after this many pending (uncompacted) mutations;
        ``0`` disables auto-compaction (call :meth:`compact` manually).
    """

    is_csc = True
    #: mutating content under a stable object id would silently satisfy the
    #: identity-keyed workload memo; the version-aware key in
    #: :func:`repro.models.model_zoo.workloads_for` handles that, but the
    #: flag keeps pre-version consumers honest too.
    memoize_workloads = True

    def __init__(self, base: Graph, compact_every: int = 0):
        if not isinstance(base, CSCGraph):
            from .csc import to_csc
            base = to_csc(base)
        if compact_every < 0:
            raise ValueError("compact_every must be >= 0")
        self.name = base.name
        self.compact_every = int(compact_every)
        #: monotonically increasing mutation counter (0 == the base graph).
        self.version = 0
        #: number of :meth:`compact` promotions performed so far.
        self.compactions = 0
        self._base_colptr = base.colptr
        self._base_row = base.row
        self._base_features = base.features
        self._num_vertices = base.num_vertices
        # pending (uncompacted) deltas
        self._pending_src: List[int] = []
        self._pending_dst: List[int] = []
        self._pending_set: set = set()
        self._new_features: List[np.ndarray] = []
        self._feature_overlay: Dict[int, np.ndarray] = {}
        # (version, vertex) per applied mutation, for targeted invalidation
        self._dirty_log: List[Tuple[int, int]] = []
        #: version of the last feature write (or creation) per vertex, 0
        #: for base features; grown by doubling as vertices are added.
        self._feature_versions = np.zeros(base.num_vertices, dtype=np.int64)
        self._snapshot: Optional[Tuple[np.ndarray, np.ndarray,
                                       np.ndarray]] = None
        self._csr_cache: Optional[CSRMatrix] = None
        self._csc_cache: Optional[CSCMatrix] = None

    # ------------------------------------------------------------------ #
    # Mutation API
    # ------------------------------------------------------------------ #
    def add_edge(self, src: int, dst: int) -> bool:
        """Insert the in-edge ``src -> dst``.

        Returns ``False`` (a no-op, no version bump) when the edge already
        exists -- the canonical CSC layout is deduplicated, so a duplicate
        insert must not change the materialised arrays.
        """
        src, dst = int(src), int(dst)
        if not (0 <= src < self._num_vertices
                and 0 <= dst < self._num_vertices):
            raise ValueError(f"edge ({src}, {dst}) outside the "
                             f"{self._num_vertices}-vertex graph")
        if self.has_edge(src, dst):
            return False
        self._pending_src.append(src)
        self._pending_dst.append(dst)
        self._pending_set.add((src, dst))
        self._mutated(dst)
        return True

    def add_vertex(self, features: np.ndarray) -> int:
        """Append a new (initially isolated) vertex; returns its id."""
        row = np.ascontiguousarray(features, dtype=np.float64).reshape(-1)
        if row.size != self.feature_length:
            raise ValueError(
                f"feature row of length {row.size} does not match the "
                f"graph's feature length {self.feature_length}")
        vertex = self._num_vertices
        self._num_vertices += 1
        self._new_features.append(row)
        self._mutated(vertex)
        versions = self._feature_versions
        if vertex >= versions.size:
            self._feature_versions = versions = np.concatenate(
                [versions, np.zeros(max(versions.size, 1), dtype=np.int64)])
        versions[vertex] = self.version
        return vertex

    def write_features(self, vertex: int, features: np.ndarray) -> None:
        """Overwrite one vertex's feature row."""
        vertex = int(vertex)
        if not 0 <= vertex < self._num_vertices:
            raise ValueError(f"vertex {vertex} outside the "
                             f"{self._num_vertices}-vertex graph")
        row = np.ascontiguousarray(features, dtype=np.float64).reshape(-1)
        if row.size != self.feature_length:
            raise ValueError(
                f"feature row of length {row.size} does not match the "
                f"graph's feature length {self.feature_length}")
        base_vertices = len(self._base_colptr) - 1
        if vertex >= base_vertices:
            self._new_features[vertex - base_vertices] = row
        else:
            self._feature_overlay[vertex] = row
        self._mutated(vertex)
        self._feature_versions[vertex] = self.version

    def compact(self) -> None:
        """Promote the current snapshot to the new base and clear the logs.

        A representation change only: the version, dirty log and
        feature-version stamps are untouched, so consumers cannot tell a
        compacted graph from an uncompacted one (asserted by the
        differential suite).
        """
        colptr, row, features = self._materialize()
        self._base_colptr = colptr
        self._base_row = row
        self._base_features = features
        self._pending_src = []
        self._pending_dst = []
        self._pending_set = set()
        self._new_features = []
        self._feature_overlay = {}
        self.compactions += 1

    # ------------------------------------------------------------------ #
    # Change tracking
    # ------------------------------------------------------------------ #
    def dirty_since(self, version: int) -> np.ndarray:
        """Vertices whose in-neighbourhood or features changed after
        ``version`` (ascending, deduplicated)."""
        touched = {vertex for ver, vertex in self._dirty_log
                   if ver > version}
        return np.array(sorted(touched), dtype=np.int64)

    def feature_version(self, vertex: int) -> int:
        """Version of the last feature write to ``vertex`` (0 = base)."""
        return int(self._feature_versions[int(vertex)])

    def feature_versions(self, vertices: np.ndarray) -> np.ndarray:
        """:meth:`feature_version` of every id in ``vertices`` (one gather)."""
        return self._feature_versions[vertices]

    @property
    def pending_mutations(self) -> int:
        """Mutations applied since the last compaction."""
        return (len(self._pending_src) + len(self._new_features)
                + len(self._feature_overlay))

    def has_edge(self, src: int, dst: int) -> bool:
        """Whether the in-edge ``src -> dst`` exists (base or pending).

        Checked against the base arrays and the pending set directly, so
        membership tests never force a snapshot rebuild.
        """
        base_vertices = len(self._base_colptr) - 1
        if dst < base_vertices:
            segment = self._base_row[
                self._base_colptr[dst]:self._base_colptr[dst + 1]]
            i = int(np.searchsorted(segment, src))
            if i < segment.size and int(segment[i]) == src:
                return True
        return (src, dst) in self._pending_set

    def _mutated(self, vertex: int) -> None:
        self.version += 1
        self._dirty_log.append((self.version, vertex))
        self._snapshot = None
        self._csr_cache = None
        self._csc_cache = None
        if self.compact_every and self.pending_mutations >= self.compact_every:
            self.compact()

    # ------------------------------------------------------------------ #
    # Snapshot materialisation
    # ------------------------------------------------------------------ #
    def _materialize(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._snapshot is not None:
            return self._snapshot
        base_colptr = self._base_colptr
        base_row = self._base_row
        base_vertices = len(base_colptr) - 1
        num_vertices = self._num_vertices
        if not self._pending_src and num_vertices == base_vertices:
            colptr, row = base_colptr, base_row
        else:
            degrees = np.zeros(num_vertices, dtype=np.int64)
            degrees[:base_vertices] = np.diff(base_colptr)
            pending_dst = np.asarray(self._pending_dst, dtype=np.int64)
            pending_src = np.asarray(self._pending_src, dtype=np.int64)
            if pending_dst.size:
                degrees += np.bincount(pending_dst, minlength=num_vertices)
            colptr = np.zeros(num_vertices + 1, dtype=np.int64)
            np.cumsum(degrees, out=colptr[1:])
            row = np.empty(int(colptr[-1]), dtype=np.int64)
            if base_row.size:
                dst_of_base = np.repeat(np.arange(base_vertices),
                                        np.diff(base_colptr))
                shifted = colptr[dst_of_base] + (
                    np.arange(base_row.size) - base_colptr[dst_of_base])
                row[shifted] = base_row
            # merge pending sources column by column (few columns are
            # touched between compactions), keeping the canonical
            # ascending order a from-scratch rebuild would produce
            for dst in np.unique(pending_dst):
                start, end = int(colptr[dst]), int(colptr[dst + 1])
                base_deg = 0
                if dst < base_vertices:
                    base_deg = int(base_colptr[dst + 1] - base_colptr[dst])
                row[start + base_deg:end] = pending_src[pending_dst == dst]
                row[start:end] = np.sort(row[start:end])
        if not self._new_features and not self._feature_overlay:
            features = self._base_features
        else:
            features = np.empty((num_vertices, self.feature_length),
                                dtype=np.float64)
            features[:base_vertices] = self._base_features
            for i, extra in enumerate(self._new_features):
                features[base_vertices + i] = extra
            for vertex, override in self._feature_overlay.items():
                features[vertex] = override
        self._snapshot = (colptr, row, features)
        return self._snapshot

    # ------------------------------------------------------------------ #
    # Graph / CSCGraph surface
    # ------------------------------------------------------------------ #
    @property
    def colptr(self) -> np.ndarray:
        return self._materialize()[0]

    @property
    def row(self) -> np.ndarray:
        return self._materialize()[1]

    @property
    def features(self) -> np.ndarray:
        return self._materialize()[2]

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return int(self._base_row.size + len(self._pending_src))

    @property
    def feature_length(self) -> int:
        return int(self._base_features.shape[1])

    @property
    def csr(self) -> CSRMatrix:
        if self._csr_cache is None:
            colptr, row, _ = self._materialize()
            self._csr_cache = CSCMatrix(
                colptr, row, self._num_vertices)._csr.transpose()
        return self._csr_cache

    @property
    def csc(self) -> CSCMatrix:
        if self._csc_cache is None:
            colptr, row, _ = self._materialize()
            self._csc_cache = CSCMatrix(colptr, row, self._num_vertices)
        return self._csc_cache

    def in_neighbors(self, v: int) -> np.ndarray:
        colptr, row, _ = self._materialize()
        return row[colptr[v]:colptr[v + 1]]

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.colptr)

    def as_csc(self) -> CSCGraph:
        """A frozen :class:`CSCGraph` of the current snapshot (copies the
        arrays, so later mutations cannot alias into it)."""
        colptr, row, features = self._materialize()
        return CSCGraph(colptr.copy(), row.copy(), features.copy(),
                        name=self.name)

    def with_features(self, features: np.ndarray,
                      name: Optional[str] = None) -> CSCGraph:
        """Frozen snapshot structure with a different feature matrix."""
        colptr, row, _ = self._materialize()
        return CSCGraph(colptr, row, features, name=name or self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaGraph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges}, version={self.version}, "
            f"pending={self.pending_mutations})"
        )
