"""Relation statistics used by the cost model.

The Dist-mu-RA cost estimator is a Selinger-style estimator: it needs, for
every base relation, its cardinality and the number of distinct values per
column.  In the original system these statistics come from PostgreSQL's
catalog; here they are a pure function of an immutable in-memory
relation, computed at first use and memoized on the relation itself
(:meth:`RelationStats.of`), like its sorted rows, indexes and encodings.
A :class:`StatisticsCatalog` is a read-through view over a database: it
summarizes nothing until the plan phase asks, and relations shared
between snapshot versions share their statistics.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .relation import Relation


@dataclass(frozen=True)
class RelationStats:
    """Summary statistics of one relation."""

    cardinality: int
    distinct_values: dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, relation: Relation) -> "RelationStats":
        """Exact statistics of an in-memory relation, computed once.

        Memoized on the (immutable) relation; concurrent first readers
        race benignly to identical values, as for ``sorted_rows()``.
        """
        stats = relation._stats_cache
        if stats is None:
            distinct = {
                column: len(relation.column_values(column))
                for column in relation.columns
            }
            stats = relation._stats_cache = cls(
                cardinality=len(relation), distinct_values=distinct)
        return stats

    @staticmethod
    def summarized(relation: Relation) -> bool:
        """Whether :meth:`of` has summarized ``relation`` already; a read
        that never summarizes."""
        return relation._stats_cache is not None

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
    """Read-through view of the statistics of a ``name -> Relation`` mapping.

    Holds no statistics of its own: :meth:`get` summarizes a relation at
    its first read (memoized on the relation), so building a view, or a
    snapshot commit that builds one, costs nothing per row.
    """

    def __init__(self, relations: Mapping[str, Relation]):
        self._relations = relations

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def get(self, name: str) -> RelationStats:
        """Return the statistics of ``name``.

        Unknown relations get a conservative default (cardinality 1000) so
        the cost model keeps working on partially known databases.
        """
        relation = self._relations.get(name)
        if relation is None:
            return RelationStats(cardinality=1000, distinct_values={})
        return RelationStats.of(relation)

    def signature(self, name: str) -> tuple | None:
        """What :meth:`get` tells the cost model about ``name``, hashable:
        ``(cardinality, sorted distinct counts)``, or None (the default)."""
        relation = self._relations.get(name)
        if relation is None:
            return None
        stats = RelationStats.of(relation)
        return (stats.cardinality, tuple(sorted(stats.distinct_values.items())))
