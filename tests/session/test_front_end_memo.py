"""The per-graph front-end memo: a text is parsed and translated once.

A handle built from UCRPQ text reads its AST, term and classes from the
graph's memo (``Session.front_end``), which sits beside the plan cache:
same capacity, cleared with it.  The label check is the one stage that
reads data, so it runs against the snapshot of every read; what the
memo stores is a pure function of the text, and a parse error stores
nothing.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import Session
from repro.data.graph import LabeledGraph
from repro.errors import QueryParseError, TranslationError
from repro.service import PlanCache
from repro.session import session as session_module

QUERY = "?x,?y <- ?x knows+ ?y"
OTHER = "?x,?y <- ?x livesIn/isLocatedIn+ ?y"
THIRD = "?x,?y <- ?x worksAt ?y"
LATE = "?x,?y <- ?x likes+ ?y"


@pytest.fixture
def session(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=2) as session:
        yield session


def count_calls(monkeypatch, name):
    """Count the calls of ``name`` where ``session.py`` imports it."""
    calls = []
    original = getattr(session_module, name)

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(session_module, name, counting)
    return calls


@pytest.fixture
def parses(monkeypatch):
    return count_calls(monkeypatch, "parse_query")


@pytest.fixture
def translations(monkeypatch):
    return count_calls(monkeypatch, "translate_query")


def rows(result):
    return sorted(result.relation.rows, key=repr)


def test_repeated_runs_parse_and_translate_once(session, parses,
                                                translations):
    results = [session.ucrpq(QUERY).run_once()[0] for _ in range(5)]
    assert parses == [QUERY]
    assert len(translations) == 1
    assert {tuple(rows(result)) for result in results} == {
        tuple(rows(session.ucrpq(QUERY).collect()))}


def test_stages_of_fresh_handles_share_one_entry(session, parses):
    first, second = session.ucrpq(QUERY), session.ucrpq(QUERY)
    assert first.term is second.term  # the first translation fills it
    assert first.ast is second.ast
    assert first.classes is second.classes
    assert parses == [QUERY]


def test_a_graph_without_the_label_raises_what_translate_raises(
        session, small_labeled_graph):
    other = LabeledGraph(name="other")
    other.add_edges([("a", "likes", "b")])
    session.attach("other", other)
    answered = session.ucrpq(QUERY).run_once()[0]
    assert len(answered.relation) > 0
    with pytest.raises(TranslationError) as raw:
        session.graph("other").translate(QUERY)
    for _ in range(2):
        with pytest.raises(TranslationError) as served:
            session.graph("other").ucrpq(QUERY).run_once()
        assert str(served.value) == str(raw.value)
    # The failure is not stored: the graph that has the label still
    # answers, and so does the other one once it gains the label.
    assert rows(session.ucrpq(QUERY).run_once()[0]) == rows(answered)
    session.graph("other").add_edges("knows", [("a", "b")])
    result = session.graph("other").ucrpq(QUERY).run_once()[0]
    assert rows(result) == [("a", "b")]


def test_a_label_added_later_fails_before_and_answers_after(session,
                                                            parses):
    before = session.read_view()
    for _ in range(2):
        with pytest.raises(TranslationError, match="likes"):
            session.ucrpq(LATE).run_once()
    session.add_edges("likes", [("alice", "bob"), ("bob", "carol")])
    served = session.ucrpq(LATE).run_once()[0]
    with Session(session.snapshot(), num_workers=2) as cold_session:
        cold = cold_session.ucrpq(LATE).run_once(
            use_plan_cache=False, use_result_cache=False)[0]
    assert rows(served) == rows(cold)
    assert len(served.relation) == 3
    # The label check is per snapshot: a view pinned before the commit
    # still lacks the label, though the head filled the memo.
    with pytest.raises(TranslationError, match="likes"):
        before.ucrpq(LATE).run_once()
    # The first failure stored the text's parse, not the failure; the
    # cold session parses for itself.
    assert parses.count(LATE) == 2


def test_a_parse_error_raises_on_every_call(session, parses):
    broken = "?x <- ?x +broken"
    for _ in range(3):
        with pytest.raises(QueryParseError):
            session.ucrpq(broken).run_once()
    assert parses == [broken] * 3


def test_the_memo_is_bounded_by_the_plan_cache_capacity(small_labeled_graph,
                                                        parses):
    with Session(small_labeled_graph, num_workers=2) as session:
        session._state.plan_cache = PlanCache(capacity=2)
        for text in (QUERY, OTHER, THIRD):
            session.ucrpq(text).run_once()
        assert parses == [QUERY, OTHER, THIRD]
        session.ucrpq(THIRD).run_once()
        assert parses == [QUERY, OTHER, THIRD]
        session.ucrpq(QUERY).run_once()  # evicted by THIRD
        assert parses == [QUERY, OTHER, THIRD, QUERY]


def test_clearing_the_plan_cache_empties_the_memo(session, parses):
    session.ucrpq(QUERY).run_once()
    session.plan_cache.clear()
    session.ucrpq(QUERY).run_once()
    assert parses == [QUERY, QUERY]


def test_concurrent_runs_of_one_text_agree_with_collect(session, parses):
    expected = rows(session.ucrpq(QUERY).collect())
    session.plan_cache.clear()
    answers, errors = [], []
    barrier = threading.Barrier(8)

    def serve():
        try:
            barrier.wait()
            for _ in range(20):
                answers.append(rows(session.ucrpq(QUERY).run_once()[0]))
        except BaseException as error:  # pragma: no cover - reported below
            errors.append(error)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=serve) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(answers) == 160
    assert all(answer == expected for answer in answers)
    # Racing fills may each parse once; none parses twice.
    assert 2 <= len(parses) <= 9


def test_ast_term_and_prepared_handles_do_not_touch_the_memo(session,
                                                            monkeypatch):
    touched = []
    original = PlanCache.front_end

    def counting(self, text):
        touched.append(text)
        return original(self, text)

    monkeypatch.setattr(PlanCache, "front_end", counting)
    parsed = session.parse(QUERY)
    term = session.translate(parsed)
    by_ast = session.ucrpq(parsed)
    by_ast.run_once()
    session.term(term).run_once()
    prepared = session.prepare("?y <- :start knows+ ?y")
    for start in ("alice", "bob"):
        bound = prepared.bind(start=start)
        bound.run_once()
        bound.classes  # noqa: B018 - reads the classes stage
    assert touched == []
    by_text = session.ucrpq(QUERY)
    by_text.run_once()
    assert set(touched) == {QUERY}
    assert by_ast.classes == by_text.classes


def test_parse_and_translate_stay_raw_stages(session, parses, translations):
    for _ in range(2):
        session.translate(QUERY)
    assert parses == [QUERY, QUERY]
    assert len(translations) == 2
