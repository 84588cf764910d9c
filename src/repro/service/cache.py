"""Thread-safe bounded LRU cache shared by the plan and result caches.

Both serving-layer caches need the same mechanics: a capacity bound with
least-recently-used eviction, hit/miss/eviction counters, and safe access
from the service's worker threads.  :class:`LRUCache` provides exactly
that; the plan- and result-specific key construction and validity checks
live in :mod:`repro.service.plan_cache` and
:mod:`repro.service.result_cache`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from ..errors import ServiceError
from ..check.sanitizer import ordered_lock

#: Public miss sentinel: pass as ``default`` to :meth:`LRUCache.get` to
#: distinguish a cached ``None`` (or other falsy) value from a miss.
#: ``None`` itself is a storable value, never the cache's own marker.
MISS = object()


@dataclass
class CacheStats:
    """Counters of one cache (returned as an independent snapshot)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries dropped by ``discard()`` or ``clear()`` rather than by LRU
    #: eviction (keys are snapshot-qualified, so stale entries miss
    #: naturally; the result cache's retention rule discards them).
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 3),
        }


class LRUCache:
    """A bounded mapping with LRU eviction and lookup counters."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ServiceError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = ordered_lock("service.cache")
        self._stats = CacheStats()

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most recently used) or ``default``.

        Presence, not truthiness, decides hit vs miss: a stored ``None``
        is returned (and counted) as a hit.  Callers that cache ``None``
        values pass :data:`MISS` (or their own sentinel) as ``default``
        to tell the two apart.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._stats.hits += 1
                return self._entries[key]
            self._stats.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU one when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
                return
            if len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
            self._entries[key] = value

    def discard(self, key: Hashable) -> None:
        """Drop one entry if present (counted as an invalidation)."""
        with self._lock:
            if self._entries.pop(key, MISS) is not MISS:
                self._stats.invalidations += 1

    def clear(self) -> None:
        with self._lock:
            self._stats.invalidations += len(self._entries)
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[Hashable]:
        """Snapshot of the keys, LRU first (an independent copy)."""
        with self._lock:
            return list(self._entries)

    @property
    def stats(self) -> CacheStats:
        """An independent snapshot of the counters."""
        with self._lock:
            return CacheStats(hits=self._stats.hits, misses=self._stats.misses,
                              evictions=self._stats.evictions,
                              invalidations=self._stats.invalidations)
