"""Unit tests for the LRU result cache and its epoch keying."""

import pytest

from vidb.service.cache import ResultCache
from vidb.obs.metrics import MetricsRegistry


def key(query="object", epoch=0, program=1, constants=()):
    identity = ((("Literal", query, 0),), (0,))
    return ResultCache.make_key(program, identity, constants, epoch)


class TestLRU:
    def test_get_miss_then_hit(self):
        cache = ResultCache(capacity=2)
        assert cache.get(key()) is None
        cache.put(key(), "answers")
        assert cache.get(key()) == "answers"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_least_recently_used_is_evicted(self):
        cache = ResultCache(capacity=2)
        cache.put(key("q1"), 1)
        cache.put(key("q2"), 2)
        cache.get(key("q1"))          # refresh q1; q2 becomes LRU
        cache.put(key("q3"), 3)
        assert cache.get(key("q1")) == 1
        assert cache.get(key("q2")) is None
        assert cache.get(key("q3")) == 3
        assert len(cache) == 2

    def test_put_same_key_replaces(self):
        cache = ResultCache(capacity=2)
        cache.put(key(), 1)
        cache.put(key(), 2)
        assert cache.get(key()) == 2
        assert len(cache) == 1


class TestEpochKeying:
    def test_epochs_do_not_share_entries(self):
        cache = ResultCache(capacity=8)
        cache.put(key(epoch=1), "old")
        assert cache.get(key(epoch=2)) is None
        cache.put(key(epoch=2), "new")
        assert cache.get(key(epoch=1)) == "old"
        assert cache.get(key(epoch=2)) == "new"

    def test_program_version_partitions(self):
        cache = ResultCache(capacity=8)
        cache.put(key(program=1), "A")
        assert cache.get(key(program=2)) is None

    def test_constants_partition(self):
        cache = ResultCache(capacity=8)
        cache.put(key(constants=("o1",)), "A")
        assert cache.get(key(constants=("o2",))) is None
        assert cache.get(key(constants=("o1",))) == "A"


class TestStats:
    def test_counters_flow_to_registry(self):
        registry = MetricsRegistry()
        cache = ResultCache(capacity=1, metrics=registry)
        cache.get(key("q1"))             # miss
        cache.put(key("q1"), 1)
        cache.get(key("q1"))             # hit
        cache.put(key("q2"), 2)          # evicts q1
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["size"] == 1
        assert registry.snapshot()["cache.evictions"] == 1

    def test_clear(self):
        cache = ResultCache(capacity=4)
        cache.put(key(), 1)
        cache.clear()
        assert len(cache) == 0
