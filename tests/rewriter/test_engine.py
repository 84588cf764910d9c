"""Tests of the plan-space exploration engine.

The main invariant: every plan in the explored space evaluates to the same
relation as the original query.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.algebra import (Fixpoint, evaluate, satisfies_fcond,
                           schemas_of_database, subterms_of_type)
from repro.algebra.conditions import fcond_holds_throughout
from repro.datasets import uniprot_graph, yago_like_graph
from repro.errors import FixpointConditionError
from repro.query import parse_query, translate_query
from repro.rewriter import (MuRewriter, RewriteContext, canonicalize, engine,
                            explore_plans)
from repro.workloads import uniprot_queries, yago_queries


@pytest.fixture
def database(small_labeled_graph):
    return small_labeled_graph.relations()


@pytest.fixture
def schemas(database):
    return schemas_of_database(database)


def explore_query(text: str, schemas, max_plans: int = 80):
    term = translate_query(parse_query(text))
    return term, explore_plans(term, schemas, max_plans=max_plans)


ALL_EQUIVALENT_QUERIES = [
    "?x,?y <- ?x knows+ ?y",
    "?x <- ?x isLocatedIn+ europe",
    "?x <- grenoble isLocatedIn+ ?x",
    "?x,?y <- ?x livesIn/isLocatedIn+ ?y",
    "?x,?y <- ?x knows+/livesIn ?y",
    "?x,?y <- ?x knows+/livesIn+ ?y",
    "?x <- ?x livesIn/isLocatedIn+ europe",
]


class TestPlanEquivalence:
    @pytest.mark.parametrize("query_text", ALL_EQUIVALENT_QUERIES)
    def test_all_plans_compute_the_same_result(self, query_text, database, schemas):
        term, plans = explore_query(query_text, schemas)
        reference = evaluate(term, database)
        assert len(plans) >= 2, "exploration should find alternative plans"
        for plan in plans:
            assert evaluate(plan, database) == reference

    def test_original_plan_is_included_first(self, schemas):
        term, plans = explore_query("?x,?y <- ?x knows+ ?y", schemas)
        assert plans[0] == canonicalize(term)


class TestPlanSpaceContents:
    def test_filtered_closure_gets_pushed_plan(self, database, schemas):
        # ?x <- ?x isLocatedIn+ europe (class C2) needs reversal + pushing:
        # some plan must contain a fixpoint whose constant part is filtered,
        # and that plan must produce far fewer intermediate tuples.
        from repro.algebra import EvaluationStats
        term, plans = explore_query("?x <- ?x isLocatedIn+ europe", schemas)
        baseline = EvaluationStats()
        evaluate(term, database, stats=baseline)
        best_tuples = baseline.tuples_produced
        for plan in plans[1:]:
            stats = EvaluationStats()
            evaluate(plan, database, stats=stats)
            best_tuples = min(best_tuples, stats.tuples_produced)
        assert best_tuples < baseline.tuples_produced

    def test_concatenated_closures_get_merged_plan(self, schemas):
        term, plans = explore_query("?x,?y <- ?x knows+/livesIn+ ?y", schemas)
        merged_plans = [
            plan for plan in plans
            if len(subterms_of_type(plan, Fixpoint)) == 1
        ]
        assert merged_plans, "merge-closures should produce a single-fixpoint plan"

    def test_exploration_respects_max_plans(self, schemas):
        term = translate_query(parse_query("?x,?y <- ?x knows+/livesIn+ ?y"))
        plans = explore_plans(term, schemas, max_plans=5)
        assert len(plans) <= 5

    def test_exploration_is_deterministic(self, schemas):
        term = translate_query(parse_query("?x <- ?x isLocatedIn+ europe"))
        first = explore_plans(term, schemas)
        second = explore_plans(term, schemas)
        assert first == second

    def test_non_recursive_query_still_explores(self, database, schemas):
        term = translate_query(parse_query("?x,?y <- ?x knows/livesIn ?y"))
        plans = explore_plans(term, schemas)
        reference = evaluate(term, database)
        for plan in plans:
            assert evaluate(plan, database) == reference


class TestRewriterConfiguration:
    def test_engine_with_no_rules_returns_input_only(self, schemas):
        term = translate_query(parse_query("?x,?y <- ?x knows+ ?y"))
        rewriter = MuRewriter(rules=[])
        assert rewriter.explore(term, schemas) == [canonicalize(term)]

    def test_rewrites_at_root_only(self, schemas):
        from repro.algebra import RelVar, closure, compose
        term = compose(closure(RelVar("knows")), closure(RelVar("livesIn")))
        rewriter = MuRewriter()
        rewrites = rewriter.rewrites_at_root(term, schemas)
        assert any(isinstance(rewrite, Fixpoint) for rewrite in rewrites)


def fcond_everywhere(plan) -> bool:
    return all(satisfies_fcond(node) for node in subterms_of_type(plan, Fixpoint))


def unchecked(monkeypatch):
    """Explore as if the whole-plan Fcond check were not there."""
    monkeypatch.setattr(engine, "fcond_holds_throughout", lambda term: True)


class TestVariantsBreakingFcondAreDropped:
    """A rule checks Fcond where it applies; the whole plan is checked
    before it enters the explored space."""

    NESTED = translate_query(parse_query("?x,?y <- ?x (a/b+)+ ?y"))
    AB_SCHEMAS = {"a": ("src", "trg"), "b": ("src", "trg")}

    def test_the_nested_closure_explores_only_fcond_plans(self):
        plans = explore_plans(self.NESTED, self.AB_SCHEMAS)
        assert len(plans) > 1
        assert all(fcond_everywhere(plan) for plan in plans)
        # Each distinct rejected variant is counted once, however often
        # the rules regenerate it.
        assert plans.fcond_dropped == 3

    def test_the_one_pass_check_agrees_with_satisfies_fcond(self):
        context = RewriteContext(base_schemas=self.AB_SCHEMAS)
        variants = [variant
                    for plan in explore_plans(self.NESTED, self.AB_SCHEMAS)
                    for variant in MuRewriter()._variants(plan, context)]
        verdicts = [fcond_holds_throughout(v) for v in variants]
        assert verdicts == [fcond_everywhere(v) for v in variants]
        assert set(verdicts) == {True, False}

    def test_unchecked_a_mutually_recursive_variant_gets_in(self,
                                                            monkeypatch):
        # ... and the exploration dies on it, as it did before the check.
        unchecked(monkeypatch)
        with pytest.raises(FixpointConditionError, match="mutually recursive"):
            explore_plans(self.NESTED, self.AB_SCHEMAS)

    @pytest.fixture(scope="class")
    def workload(self):
        """The rewriter a session explores with, and the 25 Yago and 25
        Uniprot workload queries translated against their graphs."""
        uniprot = uniprot_graph(num_edges=400, seed=3)
        terms = []
        for graph, queries in ((yago_like_graph(scale=60, seed=3),
                                yago_queries()),
                               (uniprot, uniprot_queries(uniprot))):
            with Session(graph) as session:
                snapshot = session.snapshot()
                terms += [(session.translate(session.parse(query.text),
                                             snapshot=snapshot),
                           snapshot.schemas) for query in queries]
                rewriter = session.rewriter
        return rewriter, terms

    def test_the_workload_plan_spaces_are_unchanged(self, workload,
                                                    monkeypatch):
        rewriter, terms = workload
        checked = [rewriter.explore(term, schemas) for term, schemas in terms]
        unchecked(monkeypatch)
        assert checked == [rewriter.explore(term, schemas)
                           for term, schemas in terms]
        assert len(terms) == 50
        assert sum(map(len, checked)) == 706
        assert sum(space.fcond_dropped for space in checked) == 0
