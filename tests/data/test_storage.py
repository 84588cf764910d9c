"""Unit tests of the storage engine: trusted construction, hash indexes,
builders and delta accumulators."""

from __future__ import annotations

import pytest

from repro.data.relation import Relation
from repro.data.storage import DeltaAccumulator, HashIndex, RelationBuilder
from repro.errors import SchemaError


def edges(pairs):
    return Relation.from_pairs(pairs, columns=("src", "trg"))


class TestTrustedConstruction:
    def test_adopts_frozenset_without_copying(self):
        rows = frozenset({(1, 2), (2, 3)})
        relation = Relation._from_trusted(("src", "trg"), rows)
        assert relation.rows is rows
        assert relation.columns == ("src", "trg")

    def test_freezes_other_iterables(self):
        relation = Relation._from_trusted(("src", "trg"), {(1, 2)})
        assert isinstance(relation.rows, frozenset)
        assert relation == edges([(1, 2)])

    def test_equals_validated_construction(self):
        validated = Relation(("src", "trg"), [(1, 2), (2, 3)])
        trusted = Relation._from_trusted(("src", "trg"),
                                         frozenset({(1, 2), (2, 3)}))
        assert trusted == validated
        assert hash(trusted) == hash(validated)

    def test_operators_produce_working_relations(self):
        left = edges([(1, 2), (2, 3)])
        right = edges([(2, 3), (3, 4)])
        union = left.union(right)
        assert union.rename("trg", "mid").columns == ("mid", "src")
        assert len(union.difference(left)) == 1
        assert union.project(("src",)).column_values("src") == {1, 2, 3}


class TestHashIndex:
    def test_build_and_probe(self):
        index = HashIndex([(1, 2), (1, 3), (4, 5)], (0,))
        assert sorted(index.probe((1,))) == [(1, 2), (1, 3)]
        assert index.probe((9,)) == []
        assert (4,) in index and (9,) not in index
        assert len(index) == 3

    def test_composite_keys(self):
        index = HashIndex([(1, 2, "a"), (1, 3, "a")], (0, 2))
        assert sorted(index.probe((1, "a"))) == [(1, 2, "a"), (1, 3, "a")]
        assert index.probe((1, "b")) == []

    def test_extend_is_incremental(self):
        index = HashIndex([(1, 2)], (0,))
        index.extend([(1, 9), (3, 4)])
        assert sorted(index.probe((1,))) == [(1, 2), (1, 9)]
        assert index.probe((3,)) == [(3, 4)]
        assert len(index) == 3

    def test_mutating_a_missed_probe_cannot_poison_later_probes(self):
        """Regression: misses used to return one shared empty-list
        singleton, so a caller accumulating into a probe result (as the
        Datalog engine does) silently corrupted every future empty probe
        of every index in the process."""
        index = HashIndex([(1, 2)], (0,))
        miss = index.probe((9,))
        miss.append(("poisoned",))
        assert index.probe((9,)) == []
        other = HashIndex([(7, 8)], (0,))
        assert other.probe((0,)) == []
        # The index itself is also untouched: the key is still a miss.
        assert (9,) not in index and len(index) == 1


class TestRelationIndexes:
    def test_memoized_on_the_relation(self):
        relation = edges([(1, 2), (2, 3)])
        assert not relation.has_index(("src",))
        first = relation.index_on(("src",))
        assert relation.has_index(("src",))
        assert relation.index_on(("src",)) is first

    def test_missing_column_raises(self):
        with pytest.raises(SchemaError):
            edges([(1, 2)]).index_on(("nope",))

    def test_join_probes_the_warmed_side(self):
        """With an index warmed on one side, the join must reuse it."""
        probe = edges([(1, 2)]).rename_many({"src": "a", "trg": "src"})
        build = edges([(2, 5), (2, 6), (3, 7)])
        build.index_on(("src",))
        joined = probe.natural_join(build)
        assert joined.to_pairs("a", "trg") == {(1, 5), (1, 6)}
        # No index was created on the probe side by the join itself.
        assert not probe.has_index(("src",))

    def test_equality_filter_uses_existing_index(self):
        from repro.data.predicates import Eq
        relation = edges([(1, 2), (1, 3), (2, 4)])
        relation.index_on(("src",))
        filtered = relation.filter(Eq("src", 1))
        assert filtered == edges([(1, 2), (1, 3)])
        # And without an index the scan path gives the same answer.
        assert edges([(1, 2), (1, 3), (2, 4)]).filter(Eq("src", 1)) == filtered


class TestRelationBuilder:
    def test_builds_through_trusted_path(self):
        builder = RelationBuilder(("trg", "src"))
        builder.add_row((1, 2))
        builder.add_mapping({"src": 2, "trg": 3})
        builder.update([(1, 2), (3, 4)])
        relation = builder.build()
        assert relation.columns == ("src", "trg")
        assert len(builder) == 3
        assert relation == Relation(("src", "trg"), [(1, 2), (2, 3), (3, 4)])

    def test_validates_width(self):
        builder = RelationBuilder(("src", "trg"))
        with pytest.raises(SchemaError):
            builder.add_row((1, 2, 3))

    def test_validates_mapping_schema(self):
        builder = RelationBuilder(("src", "trg"))
        with pytest.raises(SchemaError):
            builder.add_mapping({"src": 1, "other": 2})

    def test_rejects_bad_schemas(self):
        with pytest.raises(SchemaError):
            RelationBuilder(("src", "src"))
        with pytest.raises(SchemaError):
            RelationBuilder(("src", ""))


class TestDeltaAccumulator:
    def test_absorb_returns_only_new_rows(self):
        seed = edges([(1, 2)])
        accumulator = DeltaAccumulator(seed)
        delta = accumulator.absorb(edges([(1, 2), (2, 3)]))
        assert delta == edges([(2, 3)])
        # Absorbing the same rows again yields an empty delta.
        assert not accumulator.absorb(edges([(1, 2), (2, 3)]))
        assert accumulator.relation() == edges([(1, 2), (2, 3)])
        assert len(accumulator) == 2

    def test_matches_the_reference_union_difference_loop(self):
        seed = edges([(1, 2)])
        produced_batches = [edges([(2, 3), (1, 2)]), edges([(3, 4), (2, 3)]),
                            edges([(3, 4)])]
        fast = DeltaAccumulator(seed)
        reference = seed
        for produced in produced_batches:
            delta = produced.difference(reference)
            reference = reference.union(delta)
            assert fast.absorb(produced) == delta
        assert fast.relation() == reference

    def test_absorb_rejects_schema_mismatch(self):
        """Raw row-set mixing across schemas must fail loudly, as the
        seed's produced.difference(result) did."""
        wrong = Relation(("a", "b"), [(1, 2)])
        accumulator = DeltaAccumulator(edges([(1, 2)]))
        with pytest.raises(SchemaError):
            accumulator.absorb(wrong)
