"""Differential tests: the array-backed FeatureCache against LRUCache.

:class:`~repro.serving.cache.FeatureCache` claims one :meth:`access` step
leaves the cache exactly as an :class:`~repro.serving.cache.LRUCache` of
the same capacity, keyed by ``(space, key)``, is left by a ``get`` of every
key followed by a ``put`` of every key in the same order.  Hypothesis
drives both through random interleavings of batch steps, targeted
invalidations, flushes and membership probes -- including capacity 0,
batches larger than the whole cache (a batch evicting its own earlier
keys) and key spaces that grow as larger ids arrive -- and compares hit
masks, pre-step values, every counter and the full LRU order after every
operation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.cache import FeatureCache, LRUCache

SPACES = ("", "recsys", "citations")


def _reference_access(cache, keys, values, space):
    """Reference semantics of one step: every get, then every put."""
    got = [cache.get((space, k)) for k in keys]
    for k, value in zip(keys, values):
        cache.put((space, k), value)
    return got


def _assert_same_state(array_cache, reference):
    assert array_cache.stats == reference.stats
    assert len(array_cache) == len(reference)
    assert array_cache.keys() == reference.keys()
    for space, key in reference.keys():
        index = array_cache._spaces[space]
        assert array_cache._values[index][key] == reference.peek((space, key))


_batch = st.tuples(
    st.just("access"), st.sampled_from(SPACES),
    st.lists(st.integers(0, 40), unique=True, max_size=24),
    st.integers(0, 1000))
_invalidate = st.tuples(st.just("invalidate"), st.sampled_from(SPACES),
                        st.integers(0, 45))
_clear = st.tuples(st.just("clear"))
_contains = st.tuples(st.just("contains"), st.sampled_from(SPACES),
                      st.lists(st.integers(0, 45), unique=True, max_size=8))


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(0, 20),
       ops=st.lists(st.one_of(_batch, _batch, _batch, _invalidate, _clear,
                              _contains), max_size=30))
def test_access_matches_lru_get_all_then_put_all(capacity, ops):
    array_cache = FeatureCache(capacity)
    reference = LRUCache(capacity)
    for op in ops:
        if op[0] == "access":
            _, space, keys, seed = op
            values = np.random.default_rng(seed).integers(
                0, 50, size=len(keys))
            got = _reference_access(reference, keys, values.tolist(), space)
            hit, before = array_cache.access(
                np.asarray(keys, dtype=np.int64), values, space=space)
            assert hit.tolist() == [g is not None for g in got]
            assert before[hit].tolist() == [g for g in got if g is not None]
        elif op[0] == "invalidate":
            _, space, key = op
            assert array_cache.invalidate(key, space=space) \
                == reference.invalidate((space, key))
        elif op[0] == "clear":
            array_cache.clear()
            reference.clear()
        else:
            _, space, keys = op
            assert array_cache.contains(np.asarray(keys, dtype=np.int64),
                                        space=space).tolist() \
                == [(space, k) in reference for k in keys]
        _assert_same_state(array_cache, reference)


def test_batch_larger_than_cache_reinserts_its_own_hits():
    """Worked example of the edge the closed form covers: a hit key pushed
    out by earlier puts of its own batch is re-inserted by its put."""
    cache = FeatureCache(2)
    cache.access(np.array([7, 8]))
    hit, _ = cache.access(np.array([9, 7, 8]))
    assert hit.tolist() == [False, True, True]
    # put 9 evicts 7, put 7 re-inserts it and evicts 8, put 8 evicts 9
    assert cache.stats.insertions == 2 + 3
    assert cache.stats.evictions == 3
    assert cache.keys() == [("", 7), ("", 8)]


def test_key_spaces_share_one_clock():
    cache = FeatureCache(3)
    cache.access(np.array([1, 2]), space="a")
    cache.access(np.array([1]), space="b")
    cache.access(np.array([5]), space="a")
    assert cache.keys() == [("a", 2), ("b", 1), ("a", 5)]


def test_capacity_zero_counts_misses_and_stores_nothing():
    cache = FeatureCache(0)
    hit, _ = cache.access(np.array([3, 1, 2]))
    assert not hit.any() and len(cache) == 0
    assert cache.stats.misses == 3 and cache.stats.insertions == 0
    with pytest.raises(ValueError):
        FeatureCache(-1)
