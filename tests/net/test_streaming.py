"""Streamed results: chunked batches, cursors, snapshot-pinned pages."""

from __future__ import annotations

import contextlib
import time

import pytest

from repro.net import HttpServer, ServerThread, ServiceClient, Tenant, \
    TenantRegistry
from repro.net.client import ResponseError
from repro.service import QueryService

KNOWS = "?x,?y <- ?x knows+ ?y"


def test_stream_matches_buffered_query(client):
    buffered = client.query(KNOWS)
    events = list(client.stream_query(KNOWS, batch_size=2))
    final = events[-1]
    assert final["done"] is True
    assert final["row_count"] == buffered["row_count"]
    assert final["snapshot_version"] == buffered["snapshot_version"]
    assert final["next_cursor"] is None
    rows = [row for event in events[:-1] for row in event["batch"]]
    assert rows == buffered["rows"]
    assert all(len(event["batch"]) <= 2 for event in events[:-1])
    assert [event["index"] for event in events[:-1]] == list(
        range(len(events) - 1))


def test_limit_returns_cursor_and_resume_continues(client):
    buffered = client.query(KNOWS)
    events = list(client.stream_query(KNOWS, batch_size=2, limit=3))
    final = events[-1]
    first_rows = [row for event in events[:-1] for row in event["batch"]]
    assert len(first_rows) == 3
    assert final["next_cursor"]
    resumed = list(client.stream_query(cursor=final["next_cursor"]))
    rest = [row for event in resumed[:-1] for row in event["batch"]]
    assert first_rows + rest == buffered["rows"]
    assert resumed[-1]["next_cursor"] is None
    # A cursor is not single-use: the same page can be re-read.
    again = list(client.stream_query(cursor=final["next_cursor"]))
    assert [row for event in again[:-1] for row in event["batch"]] == rest


def test_cursor_pages_stay_pinned_across_mutations(client):
    before = client.query(KNOWS)
    events = list(client.stream_query(KNOWS, limit=3, batch_size=3))
    cursor = events[-1]["next_cursor"]
    client.add_edges("default", "knows", [("dave", "erin")])
    after = client.query(KNOWS)
    assert after["row_count"] > before["row_count"]
    # The continuation still reads the stream's pinned snapshot.
    resumed = list(client.stream_query(cursor=cursor))
    assert resumed[-1]["row_count"] == before["row_count"]
    assert resumed[-1]["snapshot_version"] == before["snapshot_version"]
    rows = ([row for event in events[:-1] for row in event["batch"]]
            + [row for event in resumed[:-1] for row in event["batch"]])
    assert rows == before["rows"]


def test_stream_rows_follows_cursors_exhaustively(client):
    buffered = client.query(KNOWS)
    rows = list(client.stream_rows(KNOWS, batch_size=2, page_limit=4))
    assert rows == buffered["rows"]


def test_unknown_cursor_is_410(client):
    with pytest.raises(ResponseError) as excinfo:
        list(client.stream_query(cursor="bogus"))
    assert excinfo.value.status == 410


def test_stream_validation(client):
    with pytest.raises(ResponseError) as excinfo:
        list(client.stream_query(KNOWS, batch_size=0))
    assert excinfo.value.status == 400
    with pytest.raises(ResponseError) as excinfo:
        list(client.stream_query(KNOWS, limit=-1))
    assert excinfo.value.status == 400
    with pytest.raises(ResponseError) as excinfo:
        list(client.stream_query(KNOWS, graph="nope"))
    assert excinfo.value.status == 404


def test_datalog_frontend_cannot_stream(client):
    response = client._send("POST", "/v1/query/stream",
                            {"query": KNOWS, "frontend": "datalog"})
    assert response.status == 400
    response.read()


def test_cursor_is_scoped_to_its_tenant(net_service):
    registry = TenantRegistry([
        Tenant(name="a", token="token-a"),
        Tenant(name="b", token="token-b"),
    ])
    running = ServerThread(
        HttpServer(net_service, tenants=registry)).start()
    try:
        with ServiceClient(port=running.port, token="token-a") as alice, \
                ServiceClient(port=running.port, token="token-b") as bob:
            events = list(alice.stream_query(KNOWS, limit=2))
            cursor = events[-1]["next_cursor"]
            assert cursor
            with pytest.raises(ResponseError) as excinfo:
                list(bob.stream_query(cursor=cursor))
            assert excinfo.value.status == 403
            # The owner can still use it.
            assert list(alice.stream_query(cursor=cursor))
    finally:
        running.stop()


def test_abandoned_stream_leaves_the_client_usable(client):
    events = client.stream_query(KNOWS, batch_size=1)
    next(events)  # read one event, then abandon the generator
    events.close()
    assert client.query(KNOWS)["status"] == "ok"


# -- Streams are admitted like buffered queries ---------------------------------


@contextlib.contextmanager
def serving(session, **service_options):
    """A live server over a service configured by the test."""
    with QueryService(session, **service_options) as service:
        running = ServerThread(HttpServer(service)).start()
        try:
            with ServiceClient(port=running.port, timeout=30.0) as client:
                yield service, client
        finally:
            running.stop()


def test_strict_service_rejects_a_stream_like_a_query(net_session):
    bad = "?x,?y <- ?x nosuchlabel ?y"
    with serving(net_session, strict=True) as (_, client):
        with pytest.raises(ResponseError) as buffered:
            client.query(bad)
        with pytest.raises(ResponseError) as streamed:
            list(client.stream_query(bad))
    assert streamed.value.status == buffered.value.status == 400
    assert streamed.value.payload["status"] == "rejected"
    assert streamed.value.payload["diagnostics"] \
        == buffered.value.payload["diagnostics"] != []


def test_stream_past_its_deadline_is_504(net_session):
    with serving(net_session, default_timeout=1e-9) as (_, client):
        with pytest.raises(ResponseError) as excinfo:
            list(client.stream_query(KNOWS))
    assert excinfo.value.status == 504
    assert excinfo.value.payload["status"] == "failed"


def test_stream_is_refused_when_the_admission_queue_is_full(net_session):
    with serving(net_session, max_in_flight=1,
                 queue_capacity=1) as (service, client):
        with service.session.execution_lock:
            blocked = service.submit(KNOWS)  # the one worker waits here
            time.sleep(0.05)
            queued = service.submit(KNOWS)   # the one queue slot
            with pytest.raises(ResponseError) as excinfo:
                list(client.stream_query(KNOWS))
        assert excinfo.value.status == 503
        assert excinfo.value.retry_after is not None
        assert blocked.result(timeout=10).succeeded
        assert queued.result(timeout=10).succeeded
        assert service.metrics.snapshot().rejected == 1


def test_streams_are_counted_by_the_service(net_service, client):
    before = net_service.metrics.snapshot().served
    list(client.stream_query(KNOWS, batch_size=2))
    assert net_service.metrics.snapshot().served == before + 1
    # A cursor page slices rows already served: no second admission.
    cursor = list(client.stream_query(KNOWS, limit=2))[-1]["next_cursor"]
    list(client.stream_query(cursor=cursor))
    assert net_service.metrics.snapshot().served == before + 2


def test_hot_queries_and_a_stream_share_one_canonical_order(
        net_service, client, monkeypatch):
    from repro.data.relation import Relation
    observed = []
    sorted_rows = Relation.sorted_rows

    def recording(relation):
        ordered = sorted_rows(relation)
        observed.append(ordered)
        return ordered

    monkeypatch.setattr(Relation, "sorted_rows", recording)
    client.query(KNOWS)          # fills the result cache
    observed.clear()
    first, second = client.query(KNOWS), client.query(KNOWS)
    streamed = list(client.stream_rows(KNOWS, batch_size=2))
    assert first["cache"]["result_hit"] and second["cache"]["result_hit"]
    assert streamed == first["rows"] == second["rows"]
    assert len(observed) == 3
    assert observed[0] is observed[1] is observed[2]
