"""EXPLAIN ANALYZE: the span tree, the report accessors, the rendering."""

from __future__ import annotations

import pytest

from repro import Session
from repro.data import LabeledGraph
from repro.obs import explain
from repro.obs.explain import (ExplainAnalyzeReport, build_tree, render_tree)
from repro.obs.tracing import SpanRecord

TC_QUERY = "?x,?y <- ?x knows+ ?y"


def _record(span_id: str, parent_id: str | None, name: str,
            started_at: float = 0.0, **attributes: object) -> SpanRecord:
    return SpanRecord(trace_id="t", span_id=span_id, parent_id=parent_id,
                      name=name, started_at=started_at, duration_seconds=0.01,
                      attributes=tuple(attributes.items()))


class TestTree:
    def test_build_tree_resolves_parents_and_orders_children(self):
        records = [  # finish order: children first, siblings shuffled
            _record("c2", "root", "second", started_at=2.0),
            _record("c1", "root", "first", started_at=1.0),
            _record("root", None, "query", started_at=0.0),
        ]
        (root,) = build_tree(records)
        assert root.name == "query"
        assert [child.name for child in root.children] == ["first", "second"]

    def test_unresolvable_parents_become_roots(self):
        records = [_record("a", "gone", "orphan")]
        (root,) = build_tree(records)
        assert root.name == "orphan"

    def test_find_walks_the_subtree(self):
        records = [
            _record("i1", "f", explain.ITERATION, started_at=1.0),
            _record("i2", "f", explain.ITERATION, started_at=2.0),
            _record("f", None, explain.FIXPOINT),
        ]
        (root,) = build_tree(records)
        assert len(root.find(explain.ITERATION)) == 2

    def test_render_tree_shows_names_attributes_durations(self):
        records = [
            _record("child", "root", "fixpoint.iteration",
                    started_at=1.0, delta=3),
            _record("root", None, "query", graph="hidden"),
        ]
        text = render_tree(build_tree(records))
        assert "query" in text
        assert "└─ fixpoint.iteration  [delta=3]" in text
        assert "graph=" not in text  # graph is a hidden attribute
        assert "ms)" in text or "us)" in text


@pytest.fixture
def session():
    """A fresh session per test: its first EXPLAIN ANALYZE executes."""
    graph = LabeledGraph(name="explain-kg")
    graph.add_edges([(f"n{i}", "knows", f"n{i + 1}") for i in range(8)]
                    + [("n0", "livesIn", "lyon")])
    with Session(graph, num_workers=2) as session:
        yield session


class TestExplainAnalyze:
    def test_recursive_query_shows_iterations_and_drift(self, session):
        report = session.ucrpq(TC_QUERY).explain_analyze()
        assert isinstance(report, ExplainAnalyzeReport)
        # The acceptance criterion: per-fixpoint-iteration spans with
        # observed cardinalities, plus estimate-vs-actual drift.
        assert report.fixpoints, "no fixpoint span recorded"
        assert report.iterations, "no per-iteration spans recorded"
        for iteration in report.iterations:
            assert iteration.attribute("delta") is not None
            assert iteration.attribute("total") is not None
        assert report.estimated_rows is not None
        assert report.actual_rows == len(report.result.relation)
        assert report.drift == pytest.approx(
            report.actual_rows / report.estimated_rows)
        fixpoint = report.fixpoints[0]
        assert fixpoint.attribute("actual_rows") == report.actual_rows
        assert fixpoint.attribute("drift") is not None

    def test_fixpoint_span_says_whether_operands_were_paid_for(self):
        graph = LabeledGraph(name="explain-operands")
        graph.add_edges([(f"n{i}", "knows", f"n{i + 1}") for i in range(8)])
        with Session(graph, num_workers=2) as fresh:
            cold = fresh.ucrpq(TC_QUERY).explain_analyze().fixpoints[0]
            # Forget the answer, not the snapshot: the query runs again.
            fresh.result_cache.clear()
            warm = fresh.ucrpq(TC_QUERY).explain_analyze().fixpoints[0]
        assert cold.attribute("operands") == warm.attribute("operands") == 1
        assert cold.attribute("operand_rows") \
            == warm.attribute("operand_rows") == 8
        # First execution on the snapshot evaluates the operand, the
        # second finds it (encoded and indexed) on the snapshot.
        assert cold.attribute("operands_evaluated") == 1
        assert warm.attribute("operands_evaluated") == 0

    def test_single_root_covering_every_stage(self, session):
        report = session.ucrpq(TC_QUERY).explain_analyze()
        assert len(report.roots) == 1
        root = report.roots[0]
        assert root.name == explain.QUERY
        names = {node.name for node in root.walk()}
        assert explain.PLAN in names
        assert explain.EXECUTE in names
        assert explain.PHYSICAL in names

    def test_cache_outcomes_cold_then_hot(self, session):
        graph = LabeledGraph(name="explain-cold")
        graph.add_edges([("a", "knows", "b"), ("b", "knows", "c")])
        with Session(graph, num_workers=2) as fresh:
            cold = fresh.ucrpq(TC_QUERY).explain_analyze()
            hot = fresh.ucrpq(TC_QUERY).explain_analyze()
            fresh.add_edges("knows", [("c", "d")])
            replanned = fresh.ucrpq(TC_QUERY).explain_analyze()
        assert cold.plan_cache_hit is False
        assert cold.result_cache_hit is False
        assert hot.plan_cache_hit is True
        assert hot.result_cache_hit is True
        assert hot.iterations == []  # a result-cache hit executes nothing
        # New statistics: the selection misses and the plan phase reruns.
        assert replanned.plan_cache_hit is False
        assert "plan cache: miss" in str(replanned)
        assert "dropped by Fcond: 0" in str(replanned)
        assert "dropped by Fcond" not in str(hot)

    def test_render_contains_summary_and_tree(self, session):
        report = session.ucrpq(TC_QUERY).explain_analyze()
        text = str(report)
        assert text.startswith(f"EXPLAIN ANALYZE  {TC_QUERY}")
        assert f"rows: {report.actual_rows}" in text
        assert "drift:" in text
        assert "plan cache:" in text
        assert "fixpoint.iteration" in text

    def test_tracing_stays_off_for_other_queries(self, session):
        from repro.obs import tracing
        session.ucrpq(TC_QUERY).explain_analyze()
        assert tracing.tracing_enabled() is False

    def test_datalog_front_end(self, session):
        report = session.datalog(TC_QUERY).explain_analyze()
        names = {record.name for record in report.records}
        assert "query.parse" in names
        assert "query.translate" in names
        assert "query.evaluate" in names
        evaluate = report.spans("query.evaluate")[0]
        assert evaluate.attribute("iterations") >= 1
        assert report.actual_rows == len(report.result.relation)
