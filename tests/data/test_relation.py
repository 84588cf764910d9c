"""Unit tests of the relational data model (Tup, Relation, predicates)."""

from __future__ import annotations

import pytest

from repro.data import (And, ColumnEq, Compare, Eq, In, Not, Or, Relation,
                        TruePredicate, Tup, conjunction)
from repro.errors import SchemaError


class TestTup:
    def test_mapping_behaviour(self):
        t = Tup(src=1, dst=2)
        assert t["src"] == 1
        assert len(t) == 2
        assert dict(t) == {"src": 1, "dst": 2}

    def test_equality_and_hash_are_order_insensitive(self):
        assert Tup(a=1, b=2) == Tup({"b": 2, "a": 1})
        assert hash(Tup(a=1, b=2)) == hash(Tup(b=2, a=1))

    def test_rename_drop_project_merge(self):
        t = Tup(src=1, dst=2)
        assert t.rename("dst", "trg") == Tup(src=1, trg=2)
        assert t.drop("dst") == Tup(src=1)
        assert t.project(("src",)) == Tup(src=1)
        assert t.merge(Tup(dst=2, extra=3)) == Tup(src=1, dst=2, extra=3)

    def test_merge_conflict_raises(self):
        with pytest.raises(ValueError):
            Tup(src=1).merge(Tup(src=2))

    def test_invalid_column_names_rejected(self):
        with pytest.raises(TypeError):
            Tup({"": 1})


class TestRelationConstruction:
    def test_from_dicts_and_pairs_agree(self):
        from_dicts = Relation.from_dicts([{"src": 1, "trg": 2}])
        from_pairs = Relation.from_pairs([(1, 2)], columns=("src", "trg"))
        assert from_dicts == from_pairs

    def test_duplicate_rows_are_eliminated(self):
        relation = Relation.from_pairs([(1, 2), (1, 2)], columns=("a", "b"))
        assert len(relation) == 1

    def test_schema_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Relation.from_dicts([{"a": 1}, {"b": 2}])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            Relation(("a", "a"), [])

    def test_empty_relation_needs_explicit_schema(self):
        with pytest.raises(SchemaError):
            Relation.from_dicts([])
        assert len(Relation.empty(("a",))) == 0

    def test_membership(self):
        relation = Relation.from_pairs([(1, 2)], columns=("src", "trg"))
        assert {"src": 1, "trg": 2} in relation
        assert {"src": 2, "trg": 1} not in relation


class TestRelationOperators:
    def setup_method(self):
        self.r = Relation.from_dicts([
            {"a": 1, "b": 10}, {"a": 2, "b": 20}, {"a": 3, "b": 20}])
        self.s = Relation.from_dicts([
            {"b": 10, "c": "x"}, {"b": 20, "c": "y"}, {"b": 30, "c": "z"}])

    def test_natural_join(self):
        joined = self.r.natural_join(self.s)
        assert joined.columns == ("a", "b", "c")
        assert len(joined) == 3
        assert {"a": 2, "b": 20, "c": "y"} in joined

    def test_join_without_common_columns_is_cartesian(self):
        left = Relation.from_dicts([{"a": 1}, {"a": 2}])
        right = Relation.from_dicts([{"b": 3}])
        assert len(left.natural_join(right)) == 2

    def test_antijoin(self):
        result = self.r.antijoin(Relation.from_dicts([{"b": 20, "c": "y"}]))
        assert result.to_dicts() == [{"a": 1, "b": 10}]

    def test_antijoin_no_common_columns(self):
        empty_right = Relation.empty(("z",))
        assert self.r.antijoin(empty_right) == self.r
        nonempty_right = Relation.from_dicts([{"z": 1}])
        assert len(self.r.antijoin(nonempty_right)) == 0

    def test_union_and_difference_require_same_schema(self):
        with pytest.raises(SchemaError):
            self.r.union(self.s)
        with pytest.raises(SchemaError):
            self.r.difference(self.s)

    def test_filter_with_predicates(self):
        assert len(self.r.filter(Eq("b", 20))) == 2
        assert len(self.r.filter(Compare("a", ">", 1))) == 2
        assert len(self.r.filter(In("a", {1, 3}))) == 2
        assert len(self.r.filter(And(Eq("b", 20), Eq("a", 2)))) == 1
        assert len(self.r.filter(Or(Eq("a", 1), Eq("a", 2)))) == 2
        assert len(self.r.filter(Not(Eq("b", 20)))) == 1
        assert len(self.r.filter(TruePredicate())) == 3

    def test_filter_missing_column_raises(self):
        with pytest.raises(SchemaError):
            self.r.filter(Eq("missing", 1))

    def test_column_equality_predicate(self):
        relation = Relation.from_dicts([{"a": 1, "b": 1}, {"a": 1, "b": 2}])
        assert len(relation.filter(ColumnEq("a", "b"))) == 1

    def test_rename(self):
        renamed = self.r.rename("b", "value")
        assert renamed.columns == ("a", "value")
        with pytest.raises(SchemaError):
            self.r.rename("missing", "x")
        with pytest.raises(SchemaError):
            self.r.rename("a", "b")

    def test_rename_many_swap(self):
        relation = Relation.from_dicts([{"a": 1, "b": 2}])
        swapped = relation.rename_many({"a": "b", "b": "a"})
        assert swapped.to_dicts() == [{"a": 2, "b": 1}]

    def test_order_preserving_rename_shares_the_row_set(self):
        """``src -> _n1`` on ``(src, trg)``: the rewriter's usual rename."""
        edges = Relation.from_pairs([(1, 2), (2, 3)], columns=("src", "trg"))
        renamed = edges.rename("src", "_n1")
        assert renamed.columns == ("_n1", "trg")
        assert renamed.rows is edges.rows
        assert renamed.to_dicts() == [{"_n1": 1, "trg": 2},
                                      {"_n1": 2, "trg": 3}]
        many = edges.rename_many({"src": "a", "trg": "b"})
        assert many.columns == ("a", "b")
        assert many.rows is edges.rows
        assert edges.rename_many({"src": "src"}) is edges

    def test_reordering_rename_realigns_the_rows(self):
        edges = Relation.from_pairs([(1, 2), (2, 3)], columns=("src", "trg"))
        renamed = edges.rename("src", "z")
        assert renamed.columns == ("trg", "z")
        assert renamed.rows == {(2, 1), (3, 2)}
        many = edges.rename_many({"src": "z"})
        assert many.columns == ("trg", "z")
        assert many.rows == renamed.rows
        # Indexes and encodings are keyed by column name: never shared.
        edges.index_on(("src",))
        assert not edges.rename("src", "_n1").has_index(("_n1",))

    def test_rename_chain_is_one_relabel(self):
        """The translator's head renames go through fresh temporaries
        (``src->_a, trg->_b, _a->x, _b->y``): step by step the middle
        schemas sort differently and every row is re-tupled twice; the
        net ``{src->x, trg->y}`` moves nothing."""
        edges = Relation.from_pairs([(1, 2), (2, 3)], columns=("src", "trg"))
        chain = [("src", "_n1"), ("trg", "_n0"), ("_n1", "x"), ("_n0", "y")]
        relabelled = edges.rename_chain(chain)
        assert relabelled.columns == ("x", "y")
        assert relabelled.rows is edges.rows
        # A genuine swap (a query written ``?y,?x``) still moves columns,
        # once, and equals the row operators applied in order.
        swap = [("src", "_n1"), ("trg", "_n0"), ("_n1", "y"), ("_n0", "x")]
        step_by_step = edges
        for old, new in swap:
            step_by_step = step_by_step.rename(old, new)
        swapped = edges.rename_chain(iter(swap))
        assert swapped == step_by_step
        assert swapped.to_dicts() == [{"x": 2, "y": 1}, {"x": 3, "y": 2}]
        assert edges.rename_chain([]) is edges
        # A name may be vacated and reused along the way.
        assert edges.rename_chain([("src", "t"), ("trg", "src"),
                                   ("t", "trg")]).rows == {(2, 1), (3, 2)}

    @pytest.mark.parametrize("chain", [
        [("src", "a"), ("missing", "b")],         # old absent at step 2
        [("src", "a"), ("src", "b")],             # old renamed away
        [("src", "trg")],                         # new present
        [("src", "a"), ("trg", "a")],             # new created earlier
    ])
    def test_rename_chain_raises_what_the_failing_step_raises(self, chain):
        edges = Relation.from_pairs([(1, 2)], columns=("src", "trg"))
        with pytest.raises(SchemaError) as chained:
            edges.rename_chain(chain)
        with pytest.raises(SchemaError) as stepped:
            relation = edges
            for old, new in chain:
                relation = relation.rename(old, new)
        assert str(chained.value) == str(stepped.value)

    def test_rename_many_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            self.r.rename_many({"a": "b"})

    def test_antiproject_deduplicates(self):
        reduced = self.r.antiproject("a")
        assert reduced.columns == ("b",)
        assert len(reduced) == 2

    def test_project(self):
        assert self.r.project(("a",)).column_values("a") == {1, 2, 3}

    def test_conjunction_helper(self):
        predicate = conjunction([Eq("a", 1), Eq("b", 10)])
        assert len(self.r.filter(predicate)) == 1
        assert isinstance(conjunction([]), TruePredicate)


class TestPartitioning:
    def test_round_robin_covers_all_rows(self):
        relation = Relation.from_pairs([(i, i + 1) for i in range(20)],
                                       columns=("src", "trg"))
        parts = relation.split_round_robin(4)
        assert len(parts) == 4
        assert sum(len(part) for part in parts) == 20

    def test_hash_partitioning_is_key_consistent(self):
        relation = Relation.from_pairs(
            [(i % 5, i) for i in range(50)], columns=("src", "trg"))
        parts = relation.split_by_columns(("src",), 3)
        for value in range(5):
            holders = [index for index, part in enumerate(parts)
                       if value in part.column_values("src")]
            assert len(holders) <= 1

    def test_invalid_partition_counts(self):
        relation = Relation.from_pairs([(1, 2)], columns=("src", "trg"))
        with pytest.raises(ValueError):
            relation.split_round_robin(0)
        with pytest.raises(SchemaError):
            relation.split_by_columns(("missing",), 2)


def seeded_relations():
    """Three relations whose ``repr`` order differs from their value order
    (mixed-width integers, strings, a ternary schema)."""
    import random
    rng = random.Random(20261003)
    integers = Relation.from_pairs(
        [(rng.randrange(2000), rng.randrange(2000)) for _ in range(300)],
        columns=("src", "trg"))
    strings = Relation.from_pairs(
        [(f"n{rng.randrange(150)}", f"N{rng.randrange(150)}")
         for _ in range(200)], columns=("x", "y"))
    ternary = Relation(("a", "b", "c"), [
        (rng.randrange(30), f"l{rng.randrange(4)}", rng.randrange(-9, 120))
        for _ in range(250)])
    return [integers, strings, ternary]


class TestCanonicalOrder:
    """``sorted_rows`` owns the order; its consumers only read it."""

    @pytest.mark.parametrize("relation", seeded_relations())
    def test_sorted_rows_is_the_repr_order_computed_once(self, relation):
        ordered = relation.sorted_rows()
        assert ordered == tuple(sorted(relation.rows, key=repr))
        assert relation.sorted_rows() is ordered

    def test_encoded_rows_are_derived_data(self):
        """The JSON encoding is a memo like the sorted rows: computed
        once, absent from a fresh relation."""
        import json
        relation = seeded_relations()[2]
        encoded = relation.encoded_rows()
        assert relation.encoded_rows() is encoded
        assert json.loads(encoded.data) == [
            list(row) for row in relation.sorted_rows()]
        derived = relation.union(relation)
        assert derived._encoded_cache is None
        assert Relation(relation.columns)._encoded_cache is None

    @pytest.mark.parametrize("relation", seeded_relations())
    def test_consumers_write_what_an_inline_sort_wrote(self, relation,
                                                       tmp_path):
        """The outputs as the per-call ``sorted(rows, key=repr)`` made
        them, row for row and byte for byte."""
        import csv
        from repro.data import write_relation_tsv
        reference = sorted(relation.rows, key=repr)
        columns = relation.columns
        assert relation.to_dicts() == [dict(zip(columns, row))
                                       for row in reference]
        for parts in (1, 3, 4):
            assert relation.split_round_robin(parts) == [
                Relation(columns, reference[start::parts])
                for start in range(parts)]
        expected = tmp_path / "expected.tsv"
        with expected.open("w", newline="") as handle:
            writer = csv.writer(handle, delimiter="\t")
            writer.writerow(columns)
            writer.writerows(reference)
        written = tmp_path / "written.tsv"
        write_relation_tsv(relation, written)
        assert written.read_bytes() == expected.read_bytes()


class TestGraphAndIO:
    def test_graph_relations_include_inverse_and_facts(self, small_labeled_graph):
        database = small_labeled_graph.relations()
        assert "knows" in database and "-knows" in database and "facts" in database
        assert database["-knows"].to_pairs("src", "trg") == {
            (b, a) for a, b in database["knows"].to_pairs("src", "trg")}
        assert len(database["facts"]) == len(small_labeled_graph)

    def test_graph_tsv_roundtrip(self, small_labeled_graph, tmp_path):
        from repro.data import read_graph_tsv, write_graph_tsv
        path = tmp_path / "graph.tsv"
        write_graph_tsv(small_labeled_graph, path)
        loaded = read_graph_tsv(path)
        assert set(loaded.iter_triples()) == set(small_labeled_graph.iter_triples())

    def test_relation_tsv_roundtrip(self, paper_edges, tmp_path):
        from repro.data import read_relation_tsv, write_relation_tsv
        path = tmp_path / "edges.tsv"
        write_relation_tsv(paper_edges, path)
        loaded = read_relation_tsv(path, types={"src": int, "trg": int})
        assert loaded == paper_edges

    def test_stats_catalog(self, paper_edges):
        from repro.data import StatisticsCatalog
        catalog = StatisticsCatalog({"E": paper_edges})
        stats = catalog.get("E")
        assert stats.cardinality == len(paper_edges)
        assert stats.distinct("src") == len(paper_edges.column_values("src"))
        assert catalog.get("unknown").cardinality == 1000
