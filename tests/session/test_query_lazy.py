"""Laziness and memoization of the staged Query pipeline.

The acceptance contract of the Session API: constructing a handle does
no work at all (not even parsing), each stage runs exactly once on first
access, and the stages agree with the batch entry points.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.errors import (PlanSelectionError, QueryParseError,
                          TranslationError)

QUERY = "?x,?y <- ?x knows+ ?y"


@pytest.fixture
def session(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=2) as session:
        yield session


class TestConstructionIsFree:
    def test_construction_does_not_parse(self, session, monkeypatch):
        calls = []
        import repro.session.session as session_module
        original = session_module.parse_query

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(session_module, "parse_query", counting)
        query = session.ucrpq(QUERY)
        assert calls == []
        query.ast
        assert calls == [QUERY]
        query.ast  # memoized: no second parse
        query.term
        assert calls == [QUERY]
        assert repr(query).count("ast") == 1

    def test_malformed_text_only_fails_on_first_stage_access(self, session):
        query = session.ucrpq("?x <- ?x +broken")  # constructing is fine
        with pytest.raises(QueryParseError):
            query.ast

    def test_unknown_label_only_fails_at_translation(self, session):
        query = session.ucrpq("?x,?y <- ?x noSuchLabel+ ?y")
        query.ast  # parsing succeeds
        with pytest.raises(TranslationError):
            query.term

    def test_no_optimization_until_plan_stage(self, session):
        explores = []
        original = session.rewriter.explore

        def counting_explore(*args, **kwargs):
            explores.append(1)
            return original(*args, **kwargs)

        session.rewriter.explore = counting_explore
        query = session.ucrpq(QUERY)
        query.ast
        query.term
        query.normalized
        query.cache_key
        assert explores == []
        query.plan()
        assert explores == [1]
        query.plan()      # memoized on the handle
        query.collect()   # reuses the resolved plan
        assert explores == [1]


class TestStages:
    def test_stage_chain_is_consistent(self, session):
        query = session.ucrpq(QUERY)
        assert [v.name for v in query.ast.head] == ["x", "y"]
        assert query.cache_key  # canonical printed form, non-empty
        # The canonical form of the translated term is the plan identity:
        # an equivalent handle built from the parsed AST agrees.
        twin = session.ucrpq(query.ast)
        assert twin.cache_key == query.cache_key

    def test_planning_seeds_the_cache_key(self, session, monkeypatch):
        """The plan-cache key already holds the printed canonical form of
        the handle's own term; reading ``cache_key`` afterwards (the HTTP
        tier's plan digest) must not canonicalize a second time — except
        for a prepared binding, which planned its *template's* term."""
        from repro.rewriter.normalize import cache_key
        from repro.session import query as query_module
        handle = session.ucrpq(QUERY)
        bound = session.prepare("?y <- :start knows+ ?y").bind(start="alice")
        handle.run_once()
        bound.run_once()
        assert bound.cache_key == cache_key(bound.term)
        monkeypatch.setattr(
            query_module, "canonicalize",
            lambda term: pytest.fail("canonicalized a second time"))
        key = handle.cache_key
        # Reading the key pins nothing: a served handle keeps no snapshot.
        assert handle.pinned_snapshot is None
        assert key == cache_key(handle.term)

    def test_a_text_handle_reads_its_front_end_once(self, session,
                                                     monkeypatch):
        """The parse, the term and the classes come from one entry."""
        from repro.service.plan_cache import PlanCache
        reads = []
        original = PlanCache.front_end
        monkeypatch.setattr(
            PlanCache, "front_end",
            lambda cache, text: reads.append(text) or original(cache, text))
        handle = session.ucrpq(QUERY)
        assert handle.ast and handle.term and handle.classes is not None
        assert reads == [QUERY]

    def test_classes_are_reported(self, session):
        assert "C2" in session.ucrpq("?x <- ?x isLocatedIn+ europe").classes

    def test_raw_term_handle_has_no_ast(self, session):
        term = session.ucrpq(QUERY).term
        handle = session.term(term, classes=frozenset({"C7"}))
        with pytest.raises(TranslationError):
            handle.ast
        assert handle.classes == frozenset({"C7"})
        assert handle.count() > 0

    def test_explain_mentions_pipeline_and_classes(self, session):
        text = session.ucrpq("?x <- ?x isLocatedIn+ europe").explain()
        assert "C2" in text
        assert "plans explored" in text
        assert "front-end -> term -> normalize -> rank" in text


class TestActions:
    def test_collect_count_exists_agree(self, session):
        query = session.ucrpq(QUERY)
        result = query.collect()
        assert query.count() == len(result.relation)
        assert query.exists() is (len(result.relation) > 0)

    def test_collect_is_memoized_per_strategy(self, session):
        from repro import PGLD, PPLW_SPARK
        query = session.ucrpq(QUERY)
        assert query.collect() is query.collect()
        assert query.collect(PGLD) is not query.collect(PPLW_SPARK)

    def test_stream_batches_cover_the_result(self, session):
        query = session.ucrpq(QUERY)
        batches = list(query.stream(batch_size=3))
        assert all(len(batch) <= 3 for batch in batches)
        streamed = {row for batch in batches for row in batch}
        assert streamed == set(query.collect().relation.rows)

    def test_stream_rejects_nonpositive_batch(self, session):
        with pytest.raises(ValueError):
            next(session.ucrpq(QUERY).stream(batch_size=0))

    def test_stream_is_snapshot_consistent_under_mutations(self, session):
        """Mutations interleaved between yielded batches (or between
        creating and consuming the iterator) never change the stream:
        stream() pins the handle's snapshot and the batches cover exactly
        that version.  Before snapshots this silently depended on when
        the first batch was pulled."""
        handle = session.ucrpq(QUERY)
        stream = handle.stream(batch_size=2)
        pinned = handle.pinned_snapshot
        assert pinned is not None  # pinned at stream() call, not first next()
        expected = set(handle.collect().relation.rows)
        streamed: set = set()
        mutations = 0
        for batch in stream:
            streamed.update(batch)
            session.add_edges("knows", [(f"m{mutations}", f"m{mutations + 1}")])
            mutations += 1
        assert mutations >= 2  # the interleaving actually happened
        assert streamed == expected
        assert handle.pinned_snapshot is pinned
        # A fresh handle sees every interleaved commit.
        assert session.ucrpq(QUERY).count() > len(expected)

    def test_matches_an_uncached_session(self, small_labeled_graph, session):
        with Session(small_labeled_graph, num_workers=2) as uncached:
            eager, _, _ = uncached.ucrpq(QUERY).run_once(
                use_plan_cache=False, use_result_cache=False)
        assert session.ucrpq(QUERY).collect().relation == eager.relation


class TestUnknownStrategy:
    """A strategy name is checked where it enters — the session and every
    handle action — before anything is parsed, planned or cached.  The
    non-recursive query never reaches a fixpoint plan, so nothing later
    would reject it."""

    def test_the_session_rejects_it(self, small_labeled_graph):
        with pytest.raises(PlanSelectionError, match="plw-postgres"):
            Session(small_labeled_graph, strategy="plw-postgres")

    @pytest.mark.parametrize("text", ("?x,?y <- ?x knows ?y", QUERY),
                             ids=("non-recursive", "recursive"))
    def test_a_handle_rejects_it_before_planning(self, session, text):
        with pytest.raises(PlanSelectionError, match="plw-postgres"):
            session.ucrpq(text, strategy="plw-postgres")
        query = session.ucrpq(text)
        for action in (query.collect, query.run_once, query.plan,
                       query.explain_analyze, query.count):
            with pytest.raises(PlanSelectionError, match="unknown strategy"):
                action("plw-postgres")
        assert "staged=[nothing]" in repr(query)
        assert len(session.plan_cache) == len(session.result_cache) == 0
        assert query.collect("pgld").relation == query.collect().relation
