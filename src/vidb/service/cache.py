"""The LRU query-result cache.

An answer is fixed by the program, the database state and the query up
to a renaming of its variables, so keys are ``(program version,
identity, constants, database epoch)``:

* the *program version*
  (:attr:`vidb.query.engine.QueryEngine.program_version`) moves whenever
  rules are added or a computed predicate is registered, however that
  happens, so no entry of an older program is read again;
* the *identity* and *constants* (:attr:`vidb.query.shape.Lifted.identity`
  and :attr:`~vidb.query.shape.Lifted.constants`) are the query with its
  variables numbered at first occurrence and its constants lifted out,
  so ``?- object(O).`` and ``?- object(X).`` share one entry while
  ``?- object(o1).`` and ``?- object(o2).`` do not;
* the *database epoch* (:attr:`vidb.storage.database.VideoDatabase.epoch`)
  bumps on every mutation, so a cached answer can never be served against
  newer data — stale entries simply stop being requested and age out of
  the LRU order.

The cache itself is value-agnostic: it stores whatever the executor puts
in (an :class:`~vidb.query.engine.AnswerSet`).  All operations are O(1)
and thread-safe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from vidb.obs.metrics import MetricsRegistry

#: (program version, query identity, its constants, database epoch)
CacheKey = Tuple[int, tuple, tuple, int]


class ResultCache:
    """A bounded, thread-safe LRU mapping of cache keys to results."""

    def __init__(self, capacity: int = 256,
                 metrics: Optional[MetricsRegistry] = None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._metrics = metrics or MetricsRegistry()
        for name in ("cache.hits", "cache.misses", "cache.evictions"):
            self._metrics.counter(name)  # stable snapshot shape from birth

    @staticmethod
    def make_key(program_version: int, identity: tuple, constants: tuple,
                 epoch: int) -> CacheKey:
        return (program_version, identity, constants, epoch)

    def get(self, key: CacheKey) -> Optional[Any]:
        """The cached value, refreshed to most-recently-used; None on miss."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._metrics.inc("cache.misses")
                return None
            self._entries.move_to_end(key)
            self._metrics.inc("cache.hits")
            return value

    def put(self, key: CacheKey, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._metrics.inc("cache.evictions")

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> Dict[str, int]:
        snap = self._metrics.snapshot()
        return {
            "size": len(self),
            "capacity": self.capacity,
            "hits": int(snap.get("cache.hits", 0)),
            "misses": int(snap.get("cache.misses", 0)),
            "evictions": int(snap.get("cache.evictions", 0)),
        }

    def __repr__(self) -> str:
        return f"ResultCache({len(self)}/{self.capacity})"
