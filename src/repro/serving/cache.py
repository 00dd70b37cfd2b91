"""LRU caches with hit-rate accounting for the serving stack.

Production GNN serving deployments put small caches in front of the
accelerator fleet: a *result* cache that answers repeat requests for
recently-inferred vertices without touching a chip, and per-chip *feature*
caches that model on-chip reuse of vertex features across consecutive
batches.  Two cache kinds serve these roles, both counting into the same
:class:`CacheStats` (the hit-rate column of the serving report):

* :class:`LRUCache` -- an ``OrderedDict`` keyed by any hashable, one
  ``get``/``put`` per call.  It backs the result cache, the sampler's
  sample/signature memos and the sharded fleet's halo caches.
* :class:`FeatureCache` -- the per-chip feature cache: an array-backed LRU
  over integer vertex ids in named *key spaces* (one per request lane, so a
  tenant's vertex ids never alias another tenant's).  Each key space holds
  one recency-stamp array and one ``int64`` value array indexed by vertex
  id, growing when a key beyond its end arrives (a streaming vertex
  insert); all key spaces share one clock, so recency is ordered across
  tenants exactly as one ``OrderedDict`` of ``(space, vertex)`` keys would
  order it.

The batch-step contract: :meth:`FeatureCache.access` applies one batch of
distinct keys in one vectorised step that leaves the cache exactly as an
:class:`LRUCache` of the same capacity would be after a ``get`` of every
key followed by a ``put`` of every key, both in the caller's key order --
same hits, misses, insertions and evictions, same surviving entries, same
LRU order.  Key order is observable: it decides which batch vertices are
the oldest, hence evicted first, so each caller's key order is part of the
results (``tests/serving/fixtures/feature_cache_eviction_digests.json``
pins it).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

__all__ = ["CacheStats", "FeatureCache", "LRUCache", "feature_cache_step"]


@dataclass
class CacheStats:
    """Counters accumulated over the lifetime of one cache."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """A fixed-capacity least-recently-used cache.

    ``capacity`` counts entries, not bytes; a capacity of zero disables the
    cache entirely (every ``get`` misses, every ``put`` is dropped), which the
    CLI uses for ``--cache-size 0`` ablations.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        """Membership probe that does not touch recency or the counters."""
        return key in self._entries

    def get(self, key: Hashable, default: Optional[object] = None) -> Optional[object]:
        """Look up ``key``, refreshing its recency and counting hit/miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return default

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh ``key``; evicts the least-recently-used entry."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        self._entries[key] = value
        self.stats.insertions += 1
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def peek(self, key: Hashable, default: Optional[object] = None) -> Optional[object]:
        """Read ``key`` without touching recency or the hit/miss counters."""
        return self._entries.get(key, default)

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry if present; returns whether anything was dropped.

        The streaming layer's targeted invalidation hook: neither a hit nor
        a miss nor an eviction is counted (the entry is not aged out by
        pressure, it is revoked by an update), so invalidation never
        perturbs the hit-rate accounting.
        """
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def keys(self):
        """Snapshot of the cached keys, LRU-first (read-only convenience)."""
        return list(self._entries.keys())

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        self._entries.clear()


#: Recency stamp of a key that is not cached (larger than any real stamp,
#: so the oldest entries are the smallest stamps).
_ABSENT = np.iinfo(np.int64).max


class FeatureCache:
    """A fixed-capacity array-backed LRU over integer keys in key spaces.

    ``capacity`` counts entries across all key spaces; zero disables the
    cache (every lookup misses, nothing is stored).  Each cached key carries
    one ``int64`` value -- the serving stack stores the feature version a
    line was filled at (0 on a static graph).  See the module docstring for
    the :meth:`access` contract.
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = int(capacity)
        self.stats = CacheStats()
        self._spaces: Dict[Hashable, int] = {}
        self._stamps: List[np.ndarray] = []
        self._values: List[np.ndarray] = []
        self._clock = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _space(self, space: Hashable, size: int) -> int:
        """Index of ``space``, its arrays grown to hold keys below ``size``."""
        index = self._spaces.get(space)
        if index is None:
            index = self._spaces[space] = len(self._stamps)
            self._stamps.append(np.empty(0, dtype=np.int64))
            self._values.append(np.empty(0, dtype=np.int64))
        stamps = self._stamps[index]
        if stamps.size < size:
            grow = max(size, 2 * stamps.size) - stamps.size
            self._stamps[index] = np.concatenate(
                [stamps, np.full(grow, _ABSENT, dtype=np.int64)])
            self._values[index] = np.concatenate(
                [self._values[index], np.zeros(grow, dtype=np.int64)])
        return index

    def access(self, keys: np.ndarray, values=0,
               space: Hashable = "") -> Tuple[np.ndarray, np.ndarray]:
        """``get`` every key, then ``put`` every key with its value.

        ``keys`` are distinct ids in ``space``; ``values`` is one value per
        key (or one for all).  Returns the hit mask over ``keys`` and the
        values they held before the step (meaningless where they missed).
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.size
        index = self._space(space, int(keys.max()) + 1 if n else 0)
        stamps, stored = self._stamps[index], self._values[index]
        hit = stamps[keys] != _ABSENT
        before = stored[keys]
        hits = int(np.count_nonzero(hit))
        stats = self.stats
        stats.hits += hits
        stats.misses += n - hits
        capacity = self.capacity
        if capacity == 0 or n == 0:
            return hit, before
        # After the gets, a hit key at batch position j is older than the j
        # keys put before it and the hits got after it; once that makes
        # ``capacity`` newer keys, the puts before its own have evicted it,
        # so its own put re-inserts it (only possible when n > capacity).
        insertions = n - hits
        if n > capacity and hits:
            newer = np.flatnonzero(hit) + np.arange(hits - 1, -1, -1)
            insertions += int(np.count_nonzero(newer >= capacity))
        stamps[keys] = np.arange(self._clock + 1, self._clock + n + 1)
        stored[keys] = values
        self._clock += n
        stats.insertions += insertions
        size = self._size + n - hits
        if size > capacity:
            # the survivors are the ``capacity`` newest stamps, whichever
            # order the evictions happened in
            self._evict_oldest(size - capacity)
            stats.evictions += self._size + insertions - capacity
            size = capacity
        self._size = size
        return hit, before

    def _evict_oldest(self, count: int) -> None:
        """Drop the ``count`` entries with the oldest stamps (all spaces).

        One partition over every stamp array, so an evicting step costs
        time linear in the key spaces' sizes (the lanes' vertex counts).
        """
        flat = self._stamps[0] if len(self._stamps) == 1 \
            else np.concatenate(self._stamps)
        cutoff = np.partition(flat, count - 1)[count - 1]
        for stamps in self._stamps:
            stamps[stamps <= cutoff] = _ABSENT

    def contains(self, keys: np.ndarray, space: Hashable = "") -> np.ndarray:
        """Membership mask over ``keys``; touches neither recency nor the
        counters."""
        keys = np.asarray(keys, dtype=np.int64)
        index = self._space(space, int(keys.max()) + 1 if keys.size else 0)
        return self._stamps[index][keys] != _ABSENT

    def invalidate(self, key: int, space: Hashable = "") -> bool:
        """Drop one entry if present; returns whether anything was dropped.

        Like :meth:`LRUCache.invalidate`, an invalidation counts as neither
        a hit, a miss nor an eviction.
        """
        index = self._spaces.get(space)
        if index is None or key >= self._stamps[index].size \
                or self._stamps[index][key] == _ABSENT:
            return False
        self._stamps[index][key] = _ABSENT
        self._size -= 1
        return True

    def keys(self) -> List[Tuple[Hashable, int]]:
        """Snapshot of the cached ``(space, key)`` pairs, LRU-first."""
        entries = []
        for space, index in self._spaces.items():
            stamps = self._stamps[index]
            for key in np.flatnonzero(stamps != _ABSENT).tolist():
                entries.append((int(stamps[key]), space, key))
        entries.sort(key=lambda entry: entry[0])
        return [(space, key) for _, space, key in entries]

    def clear(self) -> None:
        """Drop every entry (the counters are kept)."""
        for stamps in self._stamps:
            stamps.fill(_ABSENT)
        self._size = 0


def feature_cache_step(cache: FeatureCache, keys: np.ndarray,
                       space: Hashable = "", stream=None,
                       now: float = 0.0) -> int:
    """One batch's step on a chip's feature cache; returns its hit count.

    On a mutating run (``stream`` is the lane's
    :class:`~repro.serving.streaming.StreamState`) every line stores the
    feature version it was filled at, and the batch's hits are checked
    against the vertices' current versions (stale only under
    ``--invalidation none``).
    """
    if stream is None:
        hit, _ = cache.access(keys, space=space)
    else:
        hit, stamps = cache.access(
            keys, stream.graph.feature_versions(keys), space=space)
        stream.check_feature_hits(keys[hit], stamps[hit], now)
    return int(np.count_nonzero(hit))
