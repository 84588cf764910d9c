"""End to end through fresh sessions: answers, metrics, mutations.

Every query here runs once on a session of its own, so it pays the whole
pipeline and the assertions see what one cold trip reports.
"""

from __future__ import annotations

import math

import pytest

from repro import PGLD, PPLW_SPARK, Session
from repro.errors import TranslationError


@pytest.fixture
def engine(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=3) as session:
        yield session


class TestQueryExecution:
    def test_simple_closure_query(self, engine):
        result = engine.ucrpq("?x,?y <- ?x knows+ ?y").collect()
        assert ("alice", "dave") in result.relation.to_pairs("x", "y")
        assert result.plans_explored >= 1
        assert not math.isnan(result.estimated_cost)

    def test_filtered_query_classes_are_reported(self, engine):
        result = engine.ucrpq("?x <- ?x isLocatedIn+ europe").collect()
        assert "C2" in result.query_classes
        assert result.relation.column_values("x") == {
            "grenoble", "lyon", "france", "inria"}

    def test_conjunctive_query(self, engine):
        result = engine.ucrpq("?x,?c <- ?x knows+ ?y, ?y livesIn ?c").collect()
        assert ("alice", "lyon") in result.relation.to_pairs("x", "c")

    def test_strategies_produce_identical_results(self, small_labeled_graph):
        query = "?x,?y <- ?x knows+/livesIn+ ?y"
        answers = []
        for options in ({"strategy": PGLD}, {"strategy": PPLW_SPARK}, {}):
            with Session(small_labeled_graph, **options) as session:
                answers.append(session.ucrpq(query).collect().relation)
        assert answers[0] == answers[1] == answers[2]

    def test_optimizer_can_be_disabled(self, small_labeled_graph):
        query = "?x <- grenoble isLocatedIn+ ?x"
        with Session(small_labeled_graph, optimize=True) as session:
            optimized = session.ucrpq(query).collect()
        with Session(small_labeled_graph, optimize=False) as session:
            unoptimized = session.ucrpq(query).collect()
        assert optimized.relation == unoptimized.relation
        assert unoptimized.plans_explored == 1

    def test_unknown_label_raises(self, engine):
        with pytest.raises(TranslationError):
            engine.ucrpq("?x,?y <- ?x unknownLabel+ ?y").collect()

    def test_metrics_are_attached(self, engine):
        result = engine.ucrpq("?x,?y <- ?x knows+ ?y").collect(strategy=PGLD)
        assert result.metrics.global_iterations >= 1
        assert result.metrics.shuffles >= 1

    def test_summary_is_flat_dictionary(self, engine):
        result = engine.ucrpq("?x,?y <- ?x knows+ ?y").collect()
        summary = result.summary()
        assert summary["rows"] == len(result.relation)
        assert "shuffles" in summary
        assert "partitioning" in summary


class TestIntrospection:
    def test_repr_is_informative(self, engine):
        assert "workers=3" in repr(engine)

    def test_accepts_plain_database_dict(self, small_labeled_graph):
        with Session(small_labeled_graph.relations()) as session:
            result = session.ucrpq("?x,?y <- ?x knows ?y").collect()
        assert len(result.relation) == 3


class TestMutations:
    def test_add_edges_updates_forward_inverse_and_facts(self, engine):
        before_facts = len(engine.database["facts"])
        touched = engine.add_edges("knows", [("dave", "erin")])
        assert set(touched) == {"knows", "-knows", "facts"}
        assert ("dave", "erin") in engine.database["knows"].to_pairs("src", "trg")
        assert ("erin", "dave") in engine.database["-knows"].to_pairs("src", "trg")
        assert len(engine.database["facts"]) == before_facts + 1
        assert engine.database_version == 1

    def test_remove_edges_reverts_add(self, engine):
        snapshot = {name: rel for name, rel in engine.database.items()}
        engine.add_edges("knows", [("dave", "erin")])
        engine.remove_edges("knows", [("dave", "erin")])
        for name, relation in snapshot.items():
            assert engine.database[name] == relation
        assert engine.database_version == 2

    def test_new_label_becomes_queryable_with_inverse(self, engine):
        engine.add_edges("mentors", [("alice", "bob")])
        assert len(engine.ucrpq("?x,?y <- ?x mentors ?y").collect().relation) == 1
        assert len(engine.ucrpq("?x,?y <- ?x -mentors ?y").collect().relation) == 1

    def test_mutating_inverse_directly_is_rejected(self, engine):
        with pytest.raises(TranslationError):
            engine.add_edges("-knows", [("bob", "alice")])

    def test_remove_from_unknown_relation_raises(self, engine):
        from repro.errors import EvaluationError
        with pytest.raises(EvaluationError):
            engine.remove_edges("nosuch", [("a", "b")])

    def test_schema_mismatch_leaves_database_unchanged(self, small_labeled_graph):
        """Atomicity: a rejected mutation must not partially apply."""
        from repro import Relation
        from repro.errors import SchemaError
        database = {
            "knows": Relation.from_pairs([("a", "b")], columns=("src", "trg")),
            "-knows": Relation(("x", "y"), [("b", "a")]),
        }
        with Session(database, num_workers=2) as engine:
            with pytest.raises(SchemaError):
                engine.add_edges("knows", [("c", "d")])
            assert len(engine.database["knows"]) == 1
            assert engine.database_version == 0
            assert engine.relation_version("knows") == 0
