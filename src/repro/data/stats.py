"""Relation statistics used by the cost model.

The Dist-mu-RA cost estimator is a Selinger-style estimator: it needs, for
every base relation, its cardinality and the number of distinct values per
column.  In the original system these statistics come from PostgreSQL's
catalog; here they are computed directly from the in-memory relations and
cached in a :class:`StatisticsCatalog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .relation import Relation


@dataclass(frozen=True)
class RelationStats:
    """Summary statistics of one relation."""

    cardinality: int
    distinct_values: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, relation: Relation) -> "RelationStats":
        """Compute exact statistics of an in-memory relation."""
        distinct = {
            column: len(relation.column_values(column))
            for column in relation.columns
        }
        return cls(cardinality=len(relation), distinct_values=distinct)

    def distinct(self, column: str) -> int:
        """Distinct-value count of ``column`` (at least 1 to avoid div-by-zero)."""
        return max(1, self.distinct_values.get(column, 1))

    def selectivity_equals(self, column: str) -> float:
        """Selectivity of an equality filter on ``column`` (1/V classic rule)."""
        return 1.0 / self.distinct(column)

    def scaled(self, factor: float) -> "RelationStats":
        """Return statistics scaled by ``factor`` (used for derived terms)."""
        cardinality = max(0, int(round(self.cardinality * factor)))
        distinct = {
            column: max(1, min(count, cardinality if cardinality else 1))
            for column, count in self.distinct_values.items()
        }
        return RelationStats(cardinality=cardinality, distinct_values=distinct)


class StatisticsCatalog:
    """Statistics for a database (a mapping of relation names to relations)."""

    def __init__(self, database: dict[str, Relation] | None = None):
        self._stats: dict[str, RelationStats] = {}
        #: Bumped by every change to an entry, so what was derived from
        #: the catalog (the estimator's memo) can tell it went stale.
        self.version = 0
        if database:
            for name, relation in database.items():
                self.register(name, relation)

    def copy(self) -> "StatisticsCatalog":
        """Cheap copy-on-write duplicate sharing the (frozen) entries.

        Used by :meth:`~repro.data.snapshot.DatabaseSnapshot.mutate`:
        the successor snapshot copies the catalog's dictionary (O(#names))
        and re-registers only the touched relations, so the per-relation
        :class:`RelationStats` objects — which are immutable — are shared
        across snapshot versions.
        """
        duplicate = StatisticsCatalog()
        duplicate._stats = dict(self._stats)
        return duplicate

    def register(self, name: str, relation: Relation) -> RelationStats:
        """Compute and store the statistics of ``relation`` under ``name``."""
        stats = RelationStats.of(relation)
        self.register_stats(name, stats)
        return stats

    def register_stats(self, name: str, stats: RelationStats) -> None:
        """Store externally computed statistics (e.g. sampled estimates)."""
        self._stats[name] = stats
        self.version += 1

    def invalidate(self, name: str) -> bool:
        """Drop the statistics of ``name`` (after the relation changed).

        Until the relation is re-``register``-ed the catalog falls back to
        the conservative default of :meth:`get`, so stale estimates can
        never survive a mutation.  Returns whether an entry was dropped.
        """
        self.version += 1
        return self._stats.pop(name, None) is not None

    def refresh(self, name: str, relation: Relation) -> RelationStats:
        """Invalidate and immediately re-register ``name`` from ``relation``.

        This is the entry point used by the engine's mutation API: after
        ``add_edges``/``remove_edges`` every touched relation goes through
        ``refresh`` so cost estimates always reflect the current data.
        """
        self.invalidate(name)
        return self.register(name, relation)

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def get(self, name: str) -> RelationStats:
        """Return the statistics of ``name``.

        Unknown relations get a conservative default (cardinality 1000) so
        the cost model keeps working on partially registered databases.
        """
        if name in self._stats:
            return self._stats[name]
        return RelationStats(cardinality=1000, distinct_values={})

    def signature(self, name: str) -> tuple | None:
        """What :meth:`get` tells the cost model about ``name``, hashable:
        ``(cardinality, sorted distinct counts)``, or None (the default)."""
        stats = self._stats.get(name)
        return None if stats is None else (
            stats.cardinality, tuple(sorted(stats.distinct_values.items())))

    def names(self) -> tuple[str, ...]:
        """Return the registered relation names."""
        return tuple(sorted(self._stats))
