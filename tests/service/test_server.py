"""QueryService behaviour: serving, caching, admission, timeouts, metrics."""

from __future__ import annotations

import threading
import time

import pytest

from repro import (QueryService, ServiceError, ServiceOverloadError,
                   Session)
from repro.data import LabeledGraph
from repro.service import FAILED, OK, REJECTED

KNOWS = "?x,?y <- ?x knows+ ?y"
LIVES = "?x <- ?x livesIn/isLocatedIn+ europe"
#: Both session caches off: every call plans and executes from scratch.
UNCACHED = {"enable_plan_cache": False, "enable_result_cache": False}


def ask(service, query):
    """Blocking submission: wait for a queue slot, then for the result."""
    return service.submit(query, block=True).result()


@pytest.fixture
def engine(small_labeled_graph):
    """A session with both caches on: the service serves with its policy."""
    with Session(small_labeled_graph, num_workers=2) as engine:
        yield engine


@pytest.fixture
def service(engine):
    with QueryService(engine, max_in_flight=2) as service:
        yield service


def test_query_matches_engine_and_caches_repeat(service, engine,
                                                small_labeled_graph):
    fresh = Session(small_labeled_graph, num_workers=2, **UNCACHED)
    expected = fresh.ucrpq(KNOWS).collect().relation
    first = ask(service, KNOWS)
    assert first.status == OK
    assert first.result.relation == expected
    assert first.plan_cache_hit is False and first.result_cache_hit is False
    second = ask(service, KNOWS)
    assert second.result.relation == expected
    assert second.plan_cache_hit is True and second.result_cache_hit is True
    fresh.close()


def test_submit_returns_future(service):
    future = service.submit(KNOWS)
    served = future.result(timeout=10)
    assert served.status == OK and served.rows > 0


def test_batch_preserves_order(service):
    results = service.batch([KNOWS, LIVES, KNOWS])
    assert [r.query_text for r in results] == [KNOWS, LIVES, KNOWS]
    assert all(r.status == OK for r in results)
    # The third submission repeats the first: it must be a cache hit.
    assert results[2].result_cache_hit is True


def test_unknown_label_maps_to_failed_status(service):
    served = ask(service, "?x,?y <- ?x nosuchlabel+ ?y")
    assert served.status == FAILED
    assert "nosuchlabel" in served.detail
    assert served.result is None


def test_mutation_invalidates_and_refreshes_results(service):
    before = ask(service, KNOWS)
    touched = service.add_edges("knows", [("dave", "erin")])
    assert "knows" in touched
    # The commit maintained nothing: the fresh-head query misses and
    # recomputes, and it must reflect the new edge.
    after = ask(service, KNOWS)
    assert after.result_cache_hit is False
    assert after.rows > before.rows
    assert ("dave", "erin") in after.result.relation.to_pairs("x", "y")
    service.remove_edges("knows", [("dave", "erin")])
    restored = ask(service, KNOWS)
    assert restored.result_cache_hit is False
    assert restored.result.relation == before.result.relation


def test_mutation_changes_cost_estimates_via_catalog(service, engine):
    base = engine.catalog.get("knows").cardinality
    service.add_edges("knows", [(f"n{i}", f"n{i+1}") for i in range(20)])
    assert engine.catalog.get("knows").cardinality == base + 20


def test_stats_and_versions_are_snapshot_atomic(engine):
    """A reader can never pair a new fingerprint with stale statistics:
    versions and the statistics catalog live on the same immutable
    snapshot, so the unlocked plan phase reads both from one object."""
    before = engine.snapshot()
    before_cardinality = before.catalog.get("knows").cardinality
    engine.add_edges("knows", [("p", "q")])
    after = engine.snapshot()
    assert after is not before
    assert after.version == before.version + 1
    assert after.catalog.get("knows").cardinality == before_cardinality + 1
    # The superseded snapshot still reports its own (old) pairing.
    assert before.catalog.get("knows").cardinality == before_cardinality
    assert before.relation_version("knows") != after.relation_version("knows")


def test_admission_control_rejects_when_queue_full(engine, registry):
    release = threading.Event()
    graph_lock_query = KNOWS

    service = QueryService(engine, max_in_flight=1, queue_capacity=1)
    try:
        # Occupy the single worker with a query that blocks on the engine
        # lock, then fill the one queue slot.
        with service.session.execution_lock:
            blocked = service.submit(graph_lock_query)
            time.sleep(0.05)  # let the worker pick it up and block
            queued = service.submit(graph_lock_query)
            with pytest.raises(ServiceOverloadError):
                service.submit(graph_lock_query)
        assert blocked.result(timeout=10).status == OK
        assert queued.result(timeout=10).status == OK
        assert registry.counter("repro_service_rejected_total").value == 1
    finally:
        release.set()
        service.close()


def test_expired_deadline_skips_execution(engine):
    service = QueryService(engine, max_in_flight=1)
    try:
        with service.session.execution_lock:
            # The worker blocks on this one...
            running = service.submit(KNOWS)
            # ...so this one waits in the queue past its deadline.
            stale = service.submit(KNOWS, timeout=0.01)
            time.sleep(0.1)
        assert running.result(timeout=10).status == OK
        served = stale.result(timeout=10)
        assert served.status == FAILED
        assert "timed out" in served.detail
        assert served.result is None
    finally:
        service.close()


def test_default_timeout_is_applied(engine):
    service = QueryService(engine, max_in_flight=1, default_timeout=0.0)
    try:
        with service.session.execution_lock:
            first = service.submit(KNOWS)   # deadline already expired
            time.sleep(0.05)
        assert first.result(timeout=10).status == FAILED
    finally:
        service.close()


def requests(registry, status, graph="default"):
    return registry.counter("repro_service_requests_total", graph=graph,
                            status=status).value


def test_metrics_snapshot_counts_and_percentiles(service, registry):
    for _ in range(4):
        ask(service, KNOWS)
    assert registry.counter("repro_service_submitted_total").value == 4
    assert requests(registry, OK) == 4 and requests(registry, FAILED) == 0
    # Throughput: requests served ok over the uptime health() publishes.
    service.health()
    uptime = registry.gauge("repro_service_uptime_seconds").value
    assert requests(registry, OK) / uptime > 0
    latency = registry.histogram("repro_service_latency_seconds")
    assert latency.count == 4
    percentiles = latency.percentiles()
    assert set(percentiles) == {0.50, 0.95, 0.99}
    assert percentiles[0.50] <= percentiles[0.99]
    hits = registry.counter("repro_result_cache_total", outcome="hit").value
    misses = registry.counter("repro_result_cache_total", outcome="miss").value
    assert hits / (hits + misses) == pytest.approx(0.75)
    flat = registry.snapshot()
    assert "repro_service_latency_seconds_p95" in flat
    assert "repro_service_queue_wait_seconds_p99" in flat
    assert 'repro_service_requests_total{graph="default",status="ok"} 4' \
        in registry.render_prometheus()


def test_requests_are_counted_per_graph_and_status(small_labeled_graph,
                                                   registry):
    """ok, failed and strict-mode rejected requests each count under
    their own status and the graph they addressed; a rejection is not a
    failure, and neither is a full admission queue."""
    second = LabeledGraph(name="second")
    second.add_edges([("s0", "knows", "s1"), ("s1", "knows", "s2")])
    unknown, bad = "?x,?y <- ?x nosuchlabel+ ?y", "?x,?y <- ?x nope ?y"
    with Session(small_labeled_graph, num_workers=2) as session:
        session.attach("second", second)
        with QueryService(session) as lenient, \
                QueryService(session, strict=True) as strict:
            assert ask(lenient, KNOWS).status == OK
            for graph in (None, "second"):
                assert lenient.submit(unknown, block=True, graph=graph) \
                    .result().status == FAILED
                assert strict.submit(bad, block=True, graph=graph) \
                    .result().status == REJECTED
            for _ in range(2):
                assert strict.submit(KNOWS, block=True, graph="second") \
                    .result().status == OK
    assert {(graph, status): requests(registry, status, graph)
            for graph in ("default", "second")
            for status in (OK, FAILED, REJECTED)} == {
        ("default", OK): 1, ("default", FAILED): 1,
        ("default", REJECTED): 1,
        ("second", OK): 2, ("second", FAILED): 1, ("second", REJECTED): 1}
    assert registry.counter("repro_service_rejected_total").value == 0
    text = registry.render_prometheus()
    assert 'repro_service_requests_total{graph="second",status="rejected"} 1' \
        in text
    assert 'repro_service_requests_total{graph="default",status="failed"} 1' \
        in text


def test_caches_can_be_disabled(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=2, **UNCACHED) as engine, \
            QueryService(engine) as service:
        assert repr(service).endswith("plan_cache=False, result_cache=False)")
        first = ask(service, KNOWS)
        second = ask(service, KNOWS)
        assert first.plan_cache_hit is None and first.result_cache_hit is None
        assert second.plan_cache_hit is None and second.result_cache_hit is None
        assert second.result.relation == first.result.relation


def test_closed_service_rejects_submissions(engine):
    service = QueryService(engine)
    service.close()
    with pytest.raises(ServiceError):
        service.submit(KNOWS)
    service.close()  # idempotent


def test_close_drains_queued_queries(engine):
    service = QueryService(engine, max_in_flight=1)
    futures = [service.submit(KNOWS) for _ in range(5)]
    service.close()
    assert all(f.result(timeout=10).status == OK for f in futures)


def test_non_optimizing_engine_is_served(small_labeled_graph):
    with Session(small_labeled_graph, optimize=False) as engine:
        with QueryService(engine) as service:
            served = ask(service, KNOWS)
            assert served.status == OK and served.rows > 0
            again = ask(service, KNOWS)
            # No plan cache without optimization, but results still memoize.
            assert again.plan_cache_hit is None
            assert again.result_cache_hit is True
