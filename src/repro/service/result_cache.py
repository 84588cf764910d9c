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
  readers; after each commit :meth:`retain_after_commit` keeps only the
  entries current at the old head or the new one, so a reader pinned one
  commit back still hits and nothing older is kept.

Lookups and stores are plain (thread-safe) LRU operations with no
version re-validation, which is what lets the serving layer take the
result-cache hit path entirely outside the execution lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..obs.metrics import get_registry
from .cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..data.snapshot import DatabaseSnapshot
    from ..session.session import QueryResult

#: Default number of memoized results kept.
DEFAULT_RESULT_CACHE_SIZE = 256


@dataclass(frozen=True)
class ResultKey:
    """Identity of one executed plan on one database snapshot."""

    plan_key: str
    strategy: str
    num_workers: int
    #: ``snapshot.fingerprint(plan.dependencies)`` — the versions of the
    #: relations the plan reads.  Version-qualifying the key replaces the
    #: old store-time/lookup-time version comparison.
    fingerprint: tuple[tuple[str, int], ...] = ()
    #: Name of the graph the snapshot belongs to.  The fingerprint alone
    #: is *under*-qualified across graphs: two attached graphs with the
    #: same relation names at the same versions (e.g. both freshly
    #: attached at version 0) would otherwise produce identical keys, and
    #: any deployment sharing one cache across graphs (a single memory
    #: budget) would serve graph A's rows to a query on graph B.
    graph: str = ""


class ResultCache:
    """LRU store of memoized executions, keyed per snapshot version.

    The session counts the lookups' hits and misses in
    ``repro_result_cache_total``; the cache counts what it drops there
    too, as ``outcome="evicted"`` (LRU pressure) and
    ``outcome="invalidated"`` (the retention rule after a commit).
    """

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
        if self._cache.put(key, result):
            _count("evicted")

    def retain_after_commit(self, old_head: "DatabaseSnapshot",
                            new_head: "DatabaseSnapshot") -> None:
        """Apply the retention rule after a commit swapped ``old_head`` out.

        An entry of the committed graph survives only if its fingerprint
        equals its inputs' fingerprint at ``old_head`` or at ``new_head``:
        head readers and readers pinned one commit back keep hitting, and
        no older version of a result outlives the commit.  One comparison
        per entry; nothing is recomputed.
        """
        graph = new_head.graph_name
        dropped = 0
        for key in self._cache.keys():
            if key.graph != graph:
                continue
            names = [name for name, _ in key.fingerprint]
            if key.fingerprint not in (old_head.fingerprint(names),
                                       new_head.fingerprint(names)) \
                    and self._cache.discard(key):
                dropped += 1
        if dropped:
            _count("invalidated", dropped)

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)


def _count(outcome: str, amount: int = 1) -> None:
    get_registry().counter("repro_result_cache_total",
                           outcome=outcome).inc(amount)
