"""Property tests for canonical normalization and plan-space soundness.

Two properties the plan-space exploration silently relies on:

* :func:`repro.rewriter.normalize.canonicalize` is idempotent — a
  canonical form is its own canonical form, otherwise plan identity (and
  with it deduplication) is unstable;
* every plan returned by :class:`~repro.rewriter.engine.MuRewriter` is
  semantically equivalent to the original term — they must all evaluate to
  the same relation on a concrete database.

The test corpus is the set of plans the rewriter itself discovers for a
spread of translated workload queries, which exercises far more operator
shapes than hand-written terms would.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.algebra import evaluate, schemas_of_database
from repro.query.parser import parse_query
from repro.query.translate import translate_query
from repro.rewriter.engine import MuRewriter
from repro.rewriter.normalize import cache_key, canonicalize

QUERIES = (
    "?x,?y <- ?x knows+ ?y",
    "?x <- ?x livesIn/isLocatedIn+ europe",
    "?x,?y <- ?x knows+/livesIn ?y",
    "?x,?y <- ?x (knows|worksAt)+ ?y",
)


@pytest.fixture(scope="module")
def rewriter():
    return MuRewriter(max_plans=40)


def explored_plans(rewriter, database, query_text):
    term = translate_query(parse_query(query_text))
    return term, rewriter.explore(term, schemas_of_database(database))


@pytest.mark.parametrize("query_text", QUERIES)
def test_canonicalize_is_idempotent_on_explored_plans(
        small_labeled_graph, rewriter, query_text):
    database = small_labeled_graph.relations()
    term, plans = explored_plans(rewriter, database, query_text)
    assert len(plans) >= 1
    once = canonicalize(term)
    assert canonicalize(once) == once
    for plan in plans:
        # explore() returns canonical forms, so each plan must be a fixed
        # point of canonicalize.
        assert canonicalize(plan) == plan


@pytest.mark.parametrize("query_text", QUERIES)
def test_all_explored_plans_evaluate_identically(
        small_labeled_graph, rewriter, query_text):
    database = small_labeled_graph.relations()
    term, plans = explored_plans(rewriter, database, query_text)
    reference = evaluate(term, database)
    for plan in plans:
        assert evaluate(plan, database) == reference, (
            f"plan diverges from the original term:\n{plan}")


def test_canonicalize_stable_under_variable_renaming(small_labeled_graph):
    """Two alpha-equivalent fixpoints normalise to the same term."""
    from repro.algebra import RelVar, closure

    first = closure(RelVar("knows"), var="X_7")
    second = closure(RelVar("knows"), var="X_99")
    assert canonicalize(first) == canonicalize(second)


@pytest.mark.parametrize("query_text", QUERIES)
def test_cache_key_stable_across_sessions(small_labeled_graph, query_text):
    """The same UCRPQ translated in two different sessions keys identically.

    Each translation draws fresh generated column/variable names from the
    process-global counters, so two sessions (or two translations in one
    session) produce syntactically different terms; ``cache_key`` must
    erase that difference — it is what makes the serving layer's plan
    cache shareable across sessions.
    """
    first_session = Session(small_labeled_graph)
    second_session = Session(small_labeled_graph)
    first_term = first_session.translate(parse_query(query_text))
    second_term = second_session.translate(parse_query(query_text))
    # The raw terms genuinely differ (fresh names) ...
    assert cache_key(first_term) == cache_key(second_term)
    # ... and the key is exactly the printed canonical form, a plain string
    # (stable under hash randomisation, shareable between processes).
    assert isinstance(cache_key(first_term), str)
    assert canonicalize(first_term) == canonicalize(second_term)


def test_cache_key_distinguishes_different_queries(small_labeled_graph):
    engine = Session(small_labeled_graph)
    knows = engine.translate(parse_query("?x,?y <- ?x knows+ ?y"))
    works = engine.translate(parse_query("?x,?y <- ?x worksAt+ ?y"))
    assert cache_key(knows) != cache_key(works)


def test_cache_key_invariant_under_repeated_translation(small_labeled_graph):
    """Translating the same query many times never fragments the key."""
    engine = Session(small_labeled_graph)
    text = "?x,?y <- ?x knows+/livesIn ?y"
    keys = {cache_key(engine.translate(parse_query(text))) for _ in range(5)}
    assert len(keys) == 1


def test_session_executes_any_explored_plan(small_labeled_graph, rewriter):
    """Exploration output is executable end to end, not only comparable."""
    engine = Session(small_labeled_graph, optimize=False)
    database = small_labeled_graph.relations()
    term, plans = explored_plans(rewriter, database, QUERIES[0])
    reference = evaluate(term, database)
    for plan in plans[:10]:
        outcome = engine.execute_term(plan)
        assert outcome.relation == reference
