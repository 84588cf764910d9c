"""Thread-safe bounded LRU cache shared by the plan and result caches.

Both serving-layer caches need the same mechanics: a capacity bound with
least-recently-used eviction and safe access from the service's worker
threads.  :class:`LRUCache` provides exactly that and counts nothing:
:meth:`~LRUCache.put` and :meth:`~LRUCache.discard` say whether they
dropped an entry, and the plan and result caches count those drops, like
the session counts their hits and misses, in the metrics registry.  The
plan- and result-specific key construction and validity checks live in
:mod:`repro.service.plan_cache` and :mod:`repro.service.result_cache`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

from ..errors import ServiceError
from ..check.sanitizer import ordered_lock

#: Public miss sentinel: pass as ``default`` to :meth:`LRUCache.get` to
#: distinguish a cached ``None`` (or other falsy) value from a miss.
#: ``None`` itself is a storable value, never the cache's own marker.
MISS = object()


class LRUCache:
    """A bounded mapping with LRU eviction."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ServiceError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = ordered_lock("service.cache")

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most recently used) or ``default``.

        Presence, not truthiness, decides hit vs miss: a stored ``None``
        is returned as a hit.  Callers that cache ``None`` values pass
        :data:`MISS` (or their own sentinel) as ``default`` to tell the
        two apart.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            return default

    def put(self, key: Hashable, value: Any) -> bool:
        """Insert (or refresh) an entry, evicting the LRU one when full.

        Returns whether an entry was evicted to make room.
        """
        with self._lock:
            evicted = False
            if key in self._entries:
                self._entries.move_to_end(key)
            elif len(self._entries) >= self.capacity:
                self._entries.popitem(last=False)
                evicted = True
            self._entries[key] = value
            return evicted

    def discard(self, key: Hashable) -> bool:
        """Drop one entry if present; returns whether one was dropped."""
        with self._lock:
            return self._entries.pop(key, MISS) is not MISS

    def clear(self) -> None:
        with self._lock:
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
