"""Tests of the cardinality estimator, the cost model and plan selection."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import Session
from repro.algebra import (Filter, RelVar, closure, compose, evaluate,
                           free_variables, schemas_of_database)
from repro.cost import (CardinalityEstimator, CostModel, rank_plans,
                        select_best_plan)
from repro.cost.selection import RankedPlan
from repro.data import Eq, Relation
from repro.data.stats import StatisticsCatalog
from repro.errors import CostEstimationError
from repro.datasets import uniprot_graph, yago_like_graph
from repro.query import parse_query, translate_query
from repro.rewriter import explore_plans
from repro.workloads import uniprot_queries, yago_queries


@pytest.fixture
def database(small_labeled_graph):
    return small_labeled_graph.relations()


@pytest.fixture
def catalog(database):
    return StatisticsCatalog(database)


class TestCardinalityEstimator:
    def test_base_relation_is_exact(self, database, catalog):
        estimator = CardinalityEstimator(catalog)
        assert estimator.cardinality(RelVar("knows")) == len(database["knows"])

    def test_equality_filter_reduces_cardinality(self, catalog):
        estimator = CardinalityEstimator(catalog)
        base = estimator.cardinality(RelVar("isLocatedIn"))
        filtered = estimator.cardinality(
            Filter(Eq("src", "grenoble"), RelVar("isLocatedIn")))
        assert 0 < filtered <= base

    def test_union_adds_cardinalities(self, database, catalog):
        estimator = CardinalityEstimator(catalog)
        union = RelVar("knows").union(RelVar("livesIn"))
        assert estimator.cardinality(union) == (
            len(database["knows"]) + len(database["livesIn"]))

    def test_join_uses_distinct_counts(self, database, catalog):
        estimator = CardinalityEstimator(catalog)
        term = compose(RelVar("livesIn"), RelVar("isLocatedIn"))
        estimate = estimator.cardinality(term)
        actual = len(evaluate(term, database))
        # The estimate should be in the right ballpark (within 10x).
        assert estimate <= 10 * max(1, actual) + 10
        assert estimate >= 0

    def test_fixpoint_estimate_at_least_seed(self, database, catalog):
        estimator = CardinalityEstimator(catalog)
        term = closure(RelVar("isLocatedIn"))
        assert estimator.cardinality(term) >= len(database["isLocatedIn"])

    def test_cartesian_product(self):
        left = Relation.from_pairs([(1, 2), (3, 4)], columns=("a", "b"))
        right = Relation.from_pairs([(5, 6)], columns=("c", "d"))
        estimator = CardinalityEstimator(
            StatisticsCatalog({"L": left, "R": right}))
        assert estimator.cardinality(RelVar("L").join(RelVar("R"))) == 2

    def test_requires_a_catalog(self):
        with pytest.raises(TypeError):
            CardinalityEstimator()


class TestCostModel:
    def test_requires_statistics(self):
        with pytest.raises(CostEstimationError):
            CostModel()
        with pytest.raises(CostEstimationError):
            rank_plans([RelVar("knows")])

    def test_cost_is_positive_and_monotone_in_operators(self, catalog):
        model = CostModel(catalog)
        scan = model.cost(RelVar("knows"))
        filtered = model.cost(Filter(Eq("src", "alice"), RelVar("knows")))
        assert scan > 0
        assert filtered >= scan

    def test_pushed_filter_plan_is_cheaper(self, database, catalog):
        # C3-style query: the plan that pushes the source filter into the
        # closure must be estimated cheaper than the filter-on-top plan.
        model = CostModel(catalog)
        fixpoint = closure(RelVar("isLocatedIn"))
        unpushed = Filter(Eq("src", "grenoble"), fixpoint)
        from repro.rewriter import PushFilterIntoFixpoint, RewriteContext
        context = RewriteContext(base_schemas=schemas_of_database(database))
        pushed = PushFilterIntoFixpoint().apply_or_raise(unpushed, context)
        assert model.cost(pushed) < model.cost(unpushed)

    def test_merged_closures_cheaper_than_materialising_both(self, database, catalog):
        model = CostModel(catalog)
        term = compose(closure(RelVar("knows")), closure(RelVar("isLocatedIn")))
        from repro.rewriter import MergeClosures, RewriteContext
        context = RewriteContext(base_schemas=schemas_of_database(database))
        merged = MergeClosures().apply_or_raise(term, context)
        assert model.cost(merged) <= model.cost(term) * 2


class TestPlanSelection:
    def test_rank_plans_sorted_by_cost(self, database, catalog):
        term = translate_query(parse_query("?x <- grenoble isLocatedIn+ ?x"))
        plans = explore_plans(term, schemas_of_database(database))
        ranked = rank_plans(plans, catalog=catalog)
        costs = [plan.cost for plan in ranked]
        assert costs == sorted(costs)

    def test_selected_plan_is_correct(self, database, catalog):
        term = translate_query(parse_query("?x <- ?x isLocatedIn+ europe"))
        plans = explore_plans(term, schemas_of_database(database))
        best = select_best_plan(plans, catalog=catalog)
        assert evaluate(best.term, database) == evaluate(term, database)

    def test_selection_on_empty_plan_list_raises(self, catalog):
        from repro.errors import PlanSelectionError
        with pytest.raises(PlanSelectionError):
            select_best_plan([], catalog=catalog)

    def test_unrankable_plan_goes_last(self, catalog):
        good = RelVar("knows")
        bad = RelVar("missing-relation").join(RelVar("also-missing"))
        ranked = rank_plans([bad, good], catalog=catalog)
        assert ranked[0].term == good

    def test_only_estimation_errors_rank_last(self, catalog):
        from repro.errors import CostEstimationError
        good, bad = RelVar("knows"), RelVar("livesIn")

        class Model(CostModel):
            failure = CostEstimationError

            def report(self, term, env=None):
                if term == bad:
                    raise self.failure("cannot cost")
                return super().report(term, env)

        model = Model(catalog)
        ranked = rank_plans([bad, good], cost_model=model)
        assert [plan.term for plan in ranked] == [good, bad]
        assert ranked[1].cost == float("inf")
        # A defect of the cost model is not ranked away.
        model.failure = ZeroDivisionError
        with pytest.raises(ZeroDivisionError):
            rank_plans([bad, good], cost_model=model)


class _Unmemoized(CardinalityEstimator):
    """The estimator as it was before sub-term estimates were memoized:
    every ``estimate`` re-walks its whole subtree.  Kept here as the
    reference only."""

    def _estimate(self, term, env):
        if isinstance(term, RelVar):
            return super()._estimate(term, env)
        return self._compute(term, env)


class TestEstimatesAreMemoizedNotChanged:
    """``rank_plans`` costs each sub-term once; nothing it returns moves."""

    @pytest.fixture(scope="class")
    def plan_spaces(self):
        """Every plan ``explore`` returns for the 25 Yago and the 25
        Uniprot workload queries, with the catalog it is costed on."""
        uniprot = uniprot_graph(num_edges=400, seed=3)
        spaces = []
        for graph, queries in ((yago_like_graph(scale=60, seed=3),
                                yago_queries()),
                               (uniprot, uniprot_queries(uniprot))):
            with Session(graph) as session:
                snapshot = session.snapshot()
                for query in queries:
                    term = session.translate(session.parse(query.text),
                                             snapshot=snapshot)
                    spaces.append((query.qid, snapshot.catalog,
                                   session.rewriter.explore(
                                       term, snapshot.schemas)))
        return spaces

    def test_costs_estimates_and_ranking_are_bit_identical(self, plan_spaces):
        assert len(plan_spaces) == 50
        plans_costed = 0
        for qid, catalog, plans in plan_spaces:
            reference = CostModel(estimator=_Unmemoized(catalog=catalog))
            memoized = CostModel(catalog=catalog)   # one per rank_plans call
            expected_ranking = []
            for plan in plans:
                expected = reference.report(plan)
                # Exact float equality and whole RelationStats (per-column
                # distinct counts included), not an approximation.
                assert memoized.report(plan) == expected, f"{qid}: {plan}"
                expected_ranking.append(RankedPlan(
                    plan, expected.cost, expected.estimate.cardinality))
            expected_ranking.sort(key=lambda ranked: ranked.cost)
            assert rank_plans(plans, catalog=catalog) == expected_ranking, qid
            plans_costed += len(plans)
        assert plans_costed > 500

    def test_each_sub_term_is_estimated_once_per_binding_of_its_free_variables(
            self, plan_spaces):
        """Bindings of variables the sub-term does not read are not part
        of what it is estimated under: a sub-term constant in a fixpoint's
        variable is estimated once, not once per simulated round."""
        _, catalog, plans = max(plan_spaces, key=lambda space: len(space[2]))
        model = CostModel(catalog=catalog)
        computed = []
        compute = model.estimator._compute

        def counting(term, env):
            free = free_variables(term)
            computed.append((term, *((name, id(stats))
                                     for name, stats in env.items()
                                     if name in free)))
            return compute(term, env)

        model.estimator._compute = counting
        for plan in plans:
            model.report(plan)
        assert len(computed) == len(set(computed))


#: What ``_compute`` ran for ``recursive-cold``'s 7 distinct queries when
#: an estimate was keyed on every binding of its environment.
COMPUTED_KEYED_ON_THE_WHOLE_ENVIRONMENT = 2464


def test_recursive_cold_plans_are_costed_in_1442_sub_term_estimates(
        monkeypatch):
    """The end-to-end benchmark's ``recursive-cold`` queries, explored and
    ranked as its operations do (one ``CostModel`` per ``rank_plans``),
    on its database: an exact count of the estimator's work."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[2] / "benchmarks"))
    from e2e import workloads
    data = workloads.build_dataset()
    texts = list(dict.fromkeys(
        op.text for op in workloads.recursive_cold(data, seed=7)))
    assert len(texts) == 7
    computed = 0
    with Session(data.database) as session:
        snapshot = session.snapshot()
        for text in texts:
            term = session.translate(session.parse(text), snapshot=snapshot)
            plans = session.rewriter.explore(term, snapshot.schemas)
            model = CostModel(catalog=snapshot.catalog)
            compute = model.estimator._compute

            def counting(node, env, compute=compute):
                nonlocal computed
                computed += 1
                return compute(node, env)

            model.estimator._compute = counting
            rank_plans(plans, cost_model=model)
    assert computed == 1442 < COMPUTED_KEYED_ON_THE_WHOLE_ENVIRONMENT
