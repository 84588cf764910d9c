"""Result cache: memoize query results keyed by snapshot fingerprint.

The cache maps (canonical selected plan, execution configuration,
snapshot fingerprint of the plan's inputs) to the
:class:`~repro.session.QueryResult` produced when that plan last ran.
The fingerprint — the ``(name, version)`` tuple of the relations the plan
reads, taken from the immutable
:class:`~repro.data.snapshot.DatabaseSnapshot` the execution is pinned
to — is **part of the key**, not a validity check on the entry:

* a query pinned to snapshot version *v* looks up (and stores) entries
  under *v*'s fingerprint, so concurrent commits of later versions never
  disturb its hits,
* a query against the new head uses the new fingerprint and simply
  misses, re-executes and stores a fresh entry alongside the old one,
* entries of superseded snapshots are never looked up again by head
  readers; the view maintainer drops each one at the second commit that
  touches its inputs (:meth:`discard`), and the LRU evicts the rest.

Lookups and stores are plain (thread-safe) LRU operations with no
version re-validation, which is what lets the serving layer take the
result-cache hit path entirely outside the execution lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cache import CacheStats, LRUCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..session.session import QueryResult

#: Default number of memoized results kept.
DEFAULT_RESULT_CACHE_SIZE = 256


@dataclass(frozen=True)
class ResultKey:
    """Identity of one executed plan on one database snapshot."""

    plan_key: str
    strategy: str
    num_workers: int
    memory_per_task: int
    #: ``snapshot.fingerprint(plan.dependencies)`` — the versions of the
    #: relations the plan reads.  Version-qualifying the key replaces the
    #: old store-time/lookup-time version comparison.
    fingerprint: tuple[tuple[str, int], ...] = ()
    #: Name of the graph the snapshot belongs to.  The fingerprint alone
    #: is *under*-qualified across graphs: two attached graphs with the
    #: same relation names at the same versions (e.g. both freshly
    #: attached at version 0) would otherwise produce identical keys, and
    #: any deployment sharing one cache across graphs (a single memory
    #: budget, or the maintenance layer promoting entries) would serve
    #: graph A's rows to a query on graph B.
    graph: str = ""


class ResultCache:
    """LRU store of memoized executions, keyed per snapshot version."""

    def __init__(self, capacity: int = DEFAULT_RESULT_CACHE_SIZE):
        self._cache = LRUCache(capacity)

    def lookup(self, key: ResultKey) -> "QueryResult | None":
        """Return the memoized result for this exact key, or ``None``.

        No validity check is needed: the fingerprint inside ``key`` ties
        the entry to the immutable snapshot it was computed on.
        """
        return self._cache.get(key)

    def store(self, key: ResultKey, result: "QueryResult") -> None:
        """Memoize ``result`` under its snapshot-qualified key."""
        self._cache.put(key, result)

    def promote(self, old_key: ResultKey, new_key: ResultKey,
                maintained_result: "QueryResult") -> None:
        """Re-register a maintained entry under its successor fingerprint.

        The view-maintenance layer calls this after a commit: the entry
        under ``old_key`` (the pre-commit fingerprint) was incrementally
        updated to ``maintained_result``, which now answers lookups under
        ``new_key`` (the successor snapshot's fingerprint).  The old
        entry is deliberately left in place — readers pinned to the
        superseded snapshot keep hitting it until the next commit that
        touches its inputs drops it.
        """
        if old_key.plan_key != new_key.plan_key:
            raise ValueError(
                "promote() must keep the plan identity: "
                f"{old_key.plan_key!r} != {new_key.plan_key!r}")
        self._cache.put(new_key, maintained_result)

    def entries(self) -> list[tuple[ResultKey, "QueryResult"]]:
        """Snapshot of ``(key, result)`` pairs, least recently used first.

        Used by the maintenance layer to find the entries a commit made
        stale; the list is an independent copy, so iterating it races
        with nothing.
        """
        cache = self._cache
        return [(key, value) for key in cache.keys()
                if (value := cache.peek(key)) is not None]

    def discard(self, key: ResultKey) -> None:
        self._cache.discard(key)

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats
