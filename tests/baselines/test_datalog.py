"""Tests of the Datalog baseline: engine, translation, magic sets, BigDatalog."""

from __future__ import annotations

import pytest

from repro.algebra import evaluate
from repro.baselines.datalog import (Atom, BigDatalogEngine, Const,
                                     MagicSetSpecializer, Program, Rule,
                                     SemiNaiveEngine, Var, graph_to_edb,
                                     ucrpq_to_datalog)
from repro.errors import DatalogError
from repro.query import parse_query, translate_query


def transitive_closure_program() -> Program:
    x, y, z = Var("x"), Var("y"), Var("z")
    program = Program(goal="tc")
    program.add(Rule(Atom("tc", (x, y)), (Atom("edge", (x, y)),)))
    program.add(Rule(Atom("tc", (x, y)),
                     (Atom("tc", (x, z)), Atom("edge", (z, y)))))
    return program


class TestSemiNaiveEngine:
    def test_transitive_closure_on_chain(self):
        edb = {"edge": {(1, 2), (2, 3), (3, 4)}}
        facts = SemiNaiveEngine().evaluate(transitive_closure_program(), edb)
        assert facts["tc"] == {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}

    def test_transitive_closure_on_cycle_terminates(self):
        edb = {"edge": {(1, 2), (2, 3), (3, 1)}}
        facts = SemiNaiveEngine().evaluate(transitive_closure_program(), edb)
        assert len(facts["tc"]) == 9

    def test_facts_in_program(self):
        program = Program(goal="p")
        program.add(Rule(Atom("p", (Const(1), Const(2)))))
        facts = SemiNaiveEngine().evaluate(program, {})
        assert facts["p"] == {(1, 2)}

    def test_constants_in_body_filter(self):
        x = Var("x")
        program = Program(goal="from_one")
        program.add(Rule(Atom("from_one", (x,)), (Atom("edge", (Const(1), x)),)))
        facts = SemiNaiveEngine().evaluate(program, {"edge": {(1, 2), (2, 3)}})
        assert facts["from_one"] == {(2,)}

    def test_unsafe_rule_rejected(self):
        with pytest.raises(DatalogError):
            Rule(Atom("p", (Var("x"), Var("y"))), (Atom("edge", (Var("x"), Var("z"))),))

    def test_fact_budget_enforced(self):
        edb = {"edge": {(i, i + 1) for i in range(60)}}
        with pytest.raises(DatalogError):
            SemiNaiveEngine(max_facts=100).evaluate(
                transitive_closure_program(), edb)

    def test_malformed_edb_arity_rejected(self):
        edb = {"edge": {(1, 2), (3, 4, 5)}}
        with pytest.raises(DatalogError):
            SemiNaiveEngine().evaluate(transitive_closure_program(), edb)

    def test_arity_inconsistent_derivations_rejected(self):
        """Facts derived *after* an index was built are validated on the
        incremental extend path, not only at build time."""
        x, y, z = Var("x"), Var("y"), Var("z")
        program = Program(goal="p")
        # p first derives pairs (indexes get built for arity 2), then a
        # second head of arity 1 starts producing mismatched facts.
        program.add(Rule(Atom("p", (x, y)), (Atom("edge", (x, y)),)))
        program.add(Rule(Atom("q", (x, y)),
                         (Atom("p", (x, z)), Atom("edge", (z, y)))))
        program.add(Rule(Atom("p", (x,)), (Atom("q", (x, y)),)))
        with pytest.raises(DatalogError):
            SemiNaiveEngine().evaluate(program, {"edge": {(1, 2), (2, 3)}})

    def test_incremental_indexes_match_rebuild_results(self):
        """Index build/reuse counters move, answers do not."""
        edb = {"edge": {(i, i + 1) for i in range(20)}}
        engine = SemiNaiveEngine()
        facts = engine.evaluate(transitive_closure_program(), edb)
        assert engine.stats.index_builds > 0
        assert engine.stats.index_reuses > engine.stats.index_builds
        assert facts["tc"] == {(i, j) for i in range(21)
                               for j in range(i + 1, 21)}


class TestMagicSets:
    def test_bound_first_argument_is_specialized(self):
        query = parse_query("?x <- node_1 a+ ?x")
        program = ucrpq_to_datalog(query)
        specialized, report = MagicSetSpecializer().specialize(program)
        assert report.specialized
        assert not report.skipped

    def test_bound_second_argument_is_not_specialized(self):
        # Left-linear recursion cannot push a right-hand-side constant:
        # this is the Datalog limitation the paper exploits (class C2).
        query = parse_query("?x <- ?x a+ node_1")
        program = ucrpq_to_datalog(query)
        specialized, report = MagicSetSpecializer().specialize(program)
        assert report.skipped
        assert not report.specialized

    def test_specialized_program_gives_same_answers(self, small_labeled_graph):
        query = parse_query("?x <- grenoble isLocatedIn+ ?x")
        program = ucrpq_to_datalog(query)
        edb = graph_to_edb(small_labeled_graph)
        plain = SemiNaiveEngine().evaluate(program, edb)["answer"]
        specialized, _ = MagicSetSpecializer().specialize(program)
        optimized = SemiNaiveEngine().evaluate(specialized, edb)["answer"]
        assert plain == optimized

    def test_specialization_reduces_derived_facts(self, small_labeled_graph):
        query = parse_query("?x <- grenoble isLocatedIn+ ?x")
        program = ucrpq_to_datalog(query)
        edb = graph_to_edb(small_labeled_graph)
        plain_engine = SemiNaiveEngine()
        plain_engine.evaluate(program, edb)
        specialized, _ = MagicSetSpecializer().specialize(program)
        optimized_engine = SemiNaiveEngine()
        optimized_engine.evaluate(specialized, edb)
        assert optimized_engine.stats.facts_derived <= plain_engine.stats.facts_derived


class TestBigDatalogEngine:
    QUERIES = [
        "?x,?y <- ?x knows+ ?y",
        "?x <- ?x isLocatedIn+ europe",
        "?x <- grenoble isLocatedIn+ ?x",
        "?x,?y <- ?x livesIn/isLocatedIn+ ?y",
        "?x,?y <- ?x knows+/livesIn+ ?y",
        "?x,?y <- ?x knows|livesIn ?y",
        "?x,?y <- ?x -knows ?y",
    ]

    @pytest.mark.parametrize("query_text", QUERIES)
    def test_agrees_with_mu_ra_evaluation(self, query_text, small_labeled_graph):
        engine = BigDatalogEngine(small_labeled_graph)
        datalog_result = engine.run_query(query_text)
        query = parse_query(query_text)
        reference = evaluate(translate_query(query),
                             small_labeled_graph.relations())
        assert datalog_result.relation == reference

    def test_transitive_closure_is_decomposable(self, small_labeled_graph):
        engine = BigDatalogEngine(small_labeled_graph)
        result = engine.run_query("?x,?y <- ?x knows+ ?y")
        assert result.decomposable_predicates
        assert not result.non_decomposable_predicates

    def test_metrics_are_recorded(self, small_labeled_graph):
        engine = BigDatalogEngine(small_labeled_graph)
        result = engine.run_query("?x,?y <- ?x knows+ ?y")
        assert result.iterations >= 2
        assert engine.cluster.metrics.broadcasts >= 1

    def test_memory_budget_reported_as_failure(self, small_labeled_graph):
        engine = BigDatalogEngine(small_labeled_graph, max_facts=3)
        with pytest.raises(DatalogError):
            engine.run_query("?x,?y <- ?x knows+ ?y")
