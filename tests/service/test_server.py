"""QueryService behaviour: serving, caching, admission, timeouts, metrics."""

from __future__ import annotations

import threading
import time

import pytest

from repro import (QueryService, ServiceError, ServiceOverloadError,
                   Session)
from repro.service import FAILED, OK

KNOWS = "?x,?y <- ?x knows+ ?y"
LIVES = "?x <- ?x livesIn/isLocatedIn+ europe"
#: Both session caches off: every call plans and executes from scratch.
UNCACHED = {"enable_plan_cache": False, "enable_result_cache": False}


def ask(service, query):
    """Blocking submission: wait for a queue slot, then for the result."""
    return service.submit(query, block=True).result()


@pytest.fixture
def engine(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=2, **UNCACHED) as engine:
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


def test_mutation_maintains_and_refreshes_results(service, engine):
    before = ask(service, KNOWS)
    touched = service.add_edges("knows", [("dave", "erin")])
    assert "knows" in touched
    # The insert-only commit maintained the cached fixpoint, so the
    # fresh-head query is served from the promoted entry — and it must
    # reflect the new edge, not the pre-commit rows.
    after = ask(service, KNOWS)
    assert after.result_cache_hit is True
    assert engine.last_maintenance.resumed == 1
    assert after.rows > before.rows
    assert ("dave", "erin") in after.result.relation.to_pairs("x", "y")
    # A removal invalidates: the entry falls back (decision logged) and
    # the next query recomputes through the normal miss path.
    service.remove_edges("knows", [("dave", "erin")])
    decisions = {d.action for d in engine.last_maintenance.decisions}
    assert "fallback-recompute" in decisions
    restored = ask(service, KNOWS)
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


def test_admission_control_rejects_when_queue_full(engine):
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
        assert service.metrics.snapshot().rejected == 1
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


def test_metrics_snapshot_counts_and_percentiles(service):
    for _ in range(4):
        ask(service, KNOWS)
    snap = service.metrics.snapshot()
    assert snap.submitted == 4 and snap.served == 4 and snap.failed == 0
    assert snap.throughput_qps > 0
    assert set(snap.latency_percentiles) == {"p50", "p95", "p99"}
    assert snap.latency_percentiles["p50"] <= snap.latency_percentiles["p99"]
    assert snap.result_cache_hit_rate == pytest.approx(0.75)
    summary = snap.summary()
    assert "latency_p95" in summary and "queue_wait_p99" in summary


def test_caches_can_be_disabled(engine):
    with QueryService(engine, enable_plan_cache=False,
                      enable_result_cache=False) as service:
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
    with Session(small_labeled_graph, optimize=False, **UNCACHED) as engine:
        with QueryService(engine) as service:
            served = ask(service, KNOWS)
            assert served.status == OK and served.rows > 0
            again = ask(service, KNOWS)
            # No plan cache without optimization, but results still memoize.
            assert again.plan_cache_hit is None
            assert again.result_cache_hit is True
