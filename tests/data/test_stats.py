"""Statistics are a memoized property of the relation; a catalog is a
read-through view over a database, so building one summarizes nothing."""

from __future__ import annotations

from repro.algebra.terms import RelVar
from repro.algebra import compose
from repro.cost.cost_model import CostModel
from repro.data.relation import Relation
from repro.data.snapshot import DatabaseSnapshot
from repro.data.stats import RelationStats, StatisticsCatalog


def edges(pairs):
    return Relation.from_pairs(pairs, columns=("src", "trg"))


def test_statistics_are_memoized_on_the_relation():
    relation = edges([(1, 2), (2, 3)])
    stats = RelationStats.of(relation)
    assert RelationStats.of(relation) is stats
    assert stats.cardinality == 2
    assert stats.distinct("src") == 2
    # A derived relation is a new object with statistics of its own.
    grown = relation.union(edges([(3, 4), (4, 5), (5, 6)]))
    assert RelationStats.of(grown).cardinality == 5
    assert RelationStats.of(relation) is stats


def test_a_catalog_summarizes_at_first_read_only(monkeypatch):
    summarized = []
    column_values = Relation.column_values

    def counting(relation, column):
        summarized.append(column)
        return column_values(relation, column)

    monkeypatch.setattr(Relation, "column_values", counting)
    catalog = StatisticsCatalog({"E": edges([(1, 2)]),
                                 "S": edges([(1, 2), (2, 3)])})
    assert "E" in catalog and summarized == []
    assert catalog.get("S").cardinality == 2
    assert catalog.signature("S") == (2, (("src", 2), ("trg", 2)))
    assert sorted(summarized) == ["src", "trg"]


def test_unknown_names_get_the_conservative_default():
    catalog = StatisticsCatalog({"E": edges([(1, 2)])})
    assert "S" not in catalog
    assert catalog.get("S").cardinality == 1000
    assert catalog.signature("S") is None


def test_a_successor_snapshot_is_costed_on_its_own_statistics():
    """The cost model follows a commit through the successor's catalog,
    and what the predecessor's catalog says does not move."""
    relation = edges([(i, i + 1) for i in range(4)])
    old = DatabaseSnapshot.from_relations({"E": relation,
                                           "S": edges([(1, 2)])})
    term = compose(RelVar("E"), RelVar("E"))
    old_model = CostModel(catalog=old.catalog)
    before = old_model.report(term)
    new = old.mutate(
        {"E": relation.union(edges([(i, i + 2) for i in range(400)]))})
    after = CostModel(catalog=new.catalog).report(term)
    assert after.estimate.cardinality > before.estimate.cardinality
    assert after.cost > before.cost
    assert old_model.report(term) == before
    assert CostModel(catalog=old.catalog).report(term) == before
    assert new.catalog.get("S") is old.catalog.get("S")
