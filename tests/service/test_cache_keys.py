"""Service-side and session-side cache keys agree for every input form.

Regression test for the pre-Session duplication: ``QueryService`` used to
re-implement its own prepare/canonicalization path (``_prepare`` /
``_query_text``), so a drift between it and the engine pipeline could
silently split the plan cache.  Both now funnel into
``Session.resolve_plan``; one query submitted as text, as a parsed AST,
as a raw term, or planned directly on the session must land on one plan
cache entry.
"""

from __future__ import annotations

import pytest

from repro import QueryService, Session

TEXT = "?x,?y <- ?x knows+ ?y"


@pytest.fixture
def session(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=2) as session:
        yield session


def test_str_ucrpq_and_term_share_one_plan_entry(session):
    with QueryService(session, max_in_flight=1) as service:
        parsed = session.parse(TEXT)
        term = session.ucrpq(TEXT).term
        as_text = service.submit(TEXT, block=True).result()
        assert as_text.plan_cache_hit is False
        assert len(service.plan_cache) == 1
        as_ast = service.submit(parsed, block=True).result()
        assert as_ast.plan_cache_hit is True
        as_term = service.submit(term, block=True).result()
        assert as_term.plan_cache_hit is True
        assert len(service.plan_cache) == 1
        rows = {tuple(sorted(r.result.relation.rows))
                for r in (as_text, as_ast, as_term)}
        assert len(rows) == 1


def test_engine_side_plan_agrees_with_service_side(session):
    with QueryService(session, max_in_flight=1) as service:
        service.submit(TEXT, block=True).result()
        # The same query planned directly on the session (embedded use)
        # hits the entry the service created: one pipeline, one key space.
        handle = session.ucrpq(TEXT)
        handle.plan()
        assert handle.last_plan_cache_hit is True
        assert len(service.plan_cache) == 1


def test_canonical_identity_is_front_end_independent(session):
    by_text = session.ucrpq(TEXT)
    by_ast = session.ucrpq(session.parse(TEXT))
    by_builder = session.relation("knows").closure().between("?x", "?y")
    assert by_text.cache_key == by_ast.cache_key == by_builder.cache_key


def test_text_handles_share_the_memoized_term_and_key(session):
    """Two handles of one text read one memoized term, hence one key;
    the AST and builder front-ends still land on the same key."""
    first, second = session.ucrpq(TEXT), session.ucrpq(TEXT)
    assert first.term is second.term
    assert first.cache_key == second.cache_key
    by_ast = session.ucrpq(session.parse(TEXT))
    by_builder = session.relation("knows").closure().between("?x", "?y")
    assert by_ast.term is not first.term
    assert by_ast.cache_key == by_builder.cache_key == second.cache_key
    with QueryService(session, max_in_flight=1) as service:
        assert service.submit(TEXT, block=True).result().plan_cache_hit \
            is False
        for handle in (first, by_ast, by_builder):
            handle.plan()
            assert handle.last_plan_cache_hit is True
        assert len(service.plan_cache) == 1


def test_foreign_handle_fails_its_future_not_the_worker(session,
                                                        small_labeled_graph):
    """A bad submission resolves as failed instead of killing the worker."""
    from repro import Session
    with Session(small_labeled_graph) as other:
        foreign = other.ucrpq(TEXT)
        with QueryService(session, max_in_flight=1) as service:
            served = service.submit(foreign, block=True).result(timeout=30)
            assert served.status == "failed"
            assert "different session" in served.detail
            # The (single) worker is still alive and serves the next query.
            ok = service.submit(TEXT, block=True).result(timeout=30)
            assert ok.status == "ok"


def test_submitted_handle_keeps_its_own_strategy(session):
    """service.submit(handle) honors the handle's default strategy."""
    from repro import PGLD
    handle = session.ucrpq(TEXT, strategy=PGLD)
    with QueryService(session, max_in_flight=1) as service:
        served = service.submit(handle, block=True).result(timeout=30)
        assert served.status == "ok"
        # Pgld is the global driver loop: it iterates globally, never locally.
        assert served.result.metrics.global_iterations >= 1
        assert served.result.metrics.local_iterations == 0


def test_submitted_prepared_binding_shares_the_template_plan(session):
    """Prepared bindings served through the service still plan once."""
    explores = []
    original = session.rewriter.explore

    def counting_explore(*args, **kwargs):
        explores.append(1)
        return original(*args, **kwargs)

    session.rewriter.explore = counting_explore
    prepared = session.prepare("?y <- :start knows+ ?y")
    with QueryService(session, max_in_flight=1) as service:
        for start in ("alice", "bob", "carol"):
            served = service.submit(prepared.bind(start=start),
                                    block=True).result(timeout=30)
            assert served.status == "ok"
    assert explores == [1]
