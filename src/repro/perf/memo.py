"""Size-bounded LRU memo tables — the memoization half of ``repro.perf``.

A :class:`LRUCache` is a keyed table with a hard capacity, least-
recently-used eviction and always-on hit/miss/eviction books.  Those
books are the only ones: ``/metrics``, ``/statusz`` and ``python -m
repro stats --caches`` read them off the tables.

Keys must be hashable and **must determine the cached value exactly**:
the caches in this package are only installed behind keys derived from
immutable value objects (denotation-hashed conditions, structural
fingerprints of types — see ``docs/PERFORMANCE.md`` for the catalogue).

Lookups return the sentinel :data:`MISS` rather than raising; the hot
paths stay branch-only::

    value = cache.get(key)
    if value is MISS:
        value = compute()
        cache.put(key, value)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

#: Unique sentinel distinguishing "not cached" from a cached ``None``.
MISS = object()


class LRUCache:
    """A named, capacity-bounded LRU map with hit/miss accounting.

    Thread-safe: lookups and insertions hold a per-cache lock (the
    OrderedDict reordering on hit is a mutation, so even reads write).
    """

    __slots__ = ("name", "capacity", "hits", "misses", "evictions", "_data", "_lock")

    def __init__(self, name: str, capacity: int):
        if capacity <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The cached value, or :data:`MISS`; refreshes recency on hit."""
        with self._lock:
            value = self._data.get(key, MISS)
            if value is MISS:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) a key, evicting the LRU entry when full."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def get_or_put(self, key: Hashable, value: Any) -> Any:
        """Intern-style upsert: the previously cached equal value when
        present, else ``value`` after caching it."""
        with self._lock:
            cached = self._data.get(key, MISS)
            if cached is not MISS:
                self._data.move_to_end(key)
                self.hits += 1
                return cached
            self.misses += 1
            self._data[key] = value
            if len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1
            return value

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def clear(self) -> None:
        """Drop entries; the hit/miss books survive (they describe the
        workload, not the contents)."""
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """JSON-ready summary for ``stats --caches``."""
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:
        return (
            f"LRUCache({self.name!r}, {len(self._data)}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses})"
        )
