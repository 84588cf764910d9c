"""Streamed results: chunked batches, cursors, snapshot-pinned pages."""

from __future__ import annotations

import contextlib
import json
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.data import LabeledGraph, Relation
from repro.net import HttpServer, ServerThread, ServiceClient, Tenant, \
    TenantRegistry
from repro.net.client import ResponseError
from repro.net.protocol import json_body
from repro.net.server import _batches, _served_payload, _served_response
from repro.service import QueryService
from repro.service.server import OK, ServedResult

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


def test_a_cached_stream_reports_the_head_it_read(client):
    buffered = client.query(KNOWS)
    client.add_edges("default", "worksAt", [("dave", "cnrs")])
    events = list(client.stream_query(KNOWS))
    assert [row for event in events[:-1] for row in event["batch"]] \
        == buffered["rows"]
    assert buffered["snapshot_version"] == 0
    assert events[-1]["snapshot_version"] == 1


def test_stream_rows_follows_cursors_exhaustively(client):
    buffered = client.query(KNOWS)
    rows = list(client.stream_rows(KNOWS, batch_size=2, page_limit=4))
    assert rows == buffered["rows"]


@pytest.mark.parametrize("batch_size", [True, 2.9])
def test_a_boolean_or_fractional_batch_size_is_400(client, batch_size):
    with pytest.raises(ResponseError) as excinfo:
        list(client.stream_query(KNOWS, batch_size=batch_size))
    assert excinfo.value.status == 400


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


def test_stream_is_refused_when_the_admission_queue_is_full(net_session,
                                                            registry):
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
        assert registry.counter("repro_service_rejected_total").value == 1


def test_streams_are_counted_by_the_service(net_service, client, registry):
    served = registry.counter("repro_service_requests_total",
                              graph="default", status=OK)
    before = served.value
    list(client.stream_query(KNOWS, batch_size=2))
    assert served.value == before + 1
    # A cursor page slices rows already served: no second admission.
    cursor = list(client.stream_query(KNOWS, limit=2))[-1]["next_cursor"]
    list(client.stream_query(cursor=cursor))
    assert served.value == before + 2


def test_hot_queries_and_a_stream_share_one_canonical_order(
        net_service, client, monkeypatch):
    """Both endpoints serve one encoding of the cached result: hits and
    stream pages splice the same ``encoded_rows()`` object, and the
    result's rows are sorted at most once, by the miss that encoded
    them."""
    encodings, sorts = [], []
    encoded_rows, sorted_rows = Relation.encoded_rows, Relation.sorted_rows

    def recording_encoding(relation):
        encoded = encoded_rows(relation)
        encodings.append((relation, encoded))
        return encoded

    def recording_sort(relation):
        sorts.append(relation)
        return sorted_rows(relation)

    monkeypatch.setattr(Relation, "encoded_rows", recording_encoding)
    monkeypatch.setattr(Relation, "sorted_rows", recording_sort)
    client.query(KNOWS)          # fills the result cache
    encodings.clear()
    first, second = client.query(KNOWS), client.query(KNOWS)
    streamed = list(client.stream_rows(KNOWS, batch_size=2))
    assert first["cache"]["result_hit"] and second["cache"]["result_hit"]
    assert streamed == first["rows"] == second["rows"]
    assert len(encodings) == 3
    (relation, encoded), *others = encodings
    assert all(other is encoded for _, other in others)
    assert sum(sorted_relation is relation for sorted_relation in sorts) <= 1


# -- Served bytes are what json_body writes -------------------------------------


class _Opaque:
    """A value only ``default=str`` can encode."""

    def __init__(self, tag: int):
        self.tag = tag

    def __str__(self) -> str:
        return f'opaque "{self.tag}" \\ é'

    def __repr__(self) -> str:
        return f"_Opaque({self.tag})"


_HOSTILE_TEXT = st.text(alphabet=st.sampled_from(
    ['"', "\\", "]", ",", " ", "[", "a", "é", "☃", "\U0001d11e", "\x00",
     "\n", "\x1f", "\x7f"]), max_size=6)
_VALUES = st.one_of(
    _HOSTILE_TEXT, st.sampled_from(["], [", '"], ["', "\\\\"]),
    st.integers(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.booleans(), st.none(), st.builds(_Opaque, st.integers(0, 3)))


@st.composite
def _hostile_relations(draw):
    arity = draw(st.integers(0, 3))
    rows = draw(st.lists(st.tuples(*[_VALUES] * arity), max_size=25))
    return Relation([f"c{i}" for i in range(arity)], rows)


def _served(relation):
    """A successful service outcome over ``relation``."""
    result = SimpleNamespace(relation=relation, snapshot_version=4,
                             estimated_cost=12.5, plans_explored=3,
                             physical_strategies=("PPLW_SPARK",))
    return ServedResult(query_text=KNOWS, status=OK, result=result,
                        graph="default", plan_cache_hit=True,
                        result_cache_hit=True, queue_wait_seconds=1e-4,
                        service_seconds=2e-4, latency_seconds=3e-4)


@settings(max_examples=150, deadline=None)
@given(relation=_hostile_relations(), batch_size=st.integers(1, 9),
       limit=st.one_of(st.none(), st.integers(1, 12)))
def test_served_bytes_equal_json_body_of_the_row_lists(relation, batch_size,
                                                       limit):
    rows = [list(row) for row in relation.sorted_rows()]
    served = _served(relation)
    body = _served_response(served, None).body
    assert body == json_body({**_served_payload(served, None), "rows": rows})
    encoded = relation.encoded_rows()
    streamed, offset = [], 0
    while True:  # the first page, then one page per cursor
        end = len(rows) if limit is None else min(len(rows), offset + limit)
        chunks = list(_batches(encoded, offset, end, batch_size))
        starts = range(offset, end, batch_size)
        assert len(chunks) == len(starts)
        for index, (chunk, start) in enumerate(zip(chunks, starts)):
            batch = rows[start:start + batch_size][:end - start]
            assert chunk == json_body({"batch": batch, "index": index,
                                       "offset": start}) + b"\n"
            streamed.extend(json.loads(chunk)["batch"])
        offset = end
        if offset >= len(rows):
            break
    assert streamed == json.loads(body)["rows"]


def _raw(client, path, body):
    response = client._send("POST", path, body)
    assert response.status == 200
    return response.read()


def test_hostile_values_are_served_byte_for_byte(net_session):
    """Over the wire: every body and chunk is json_body of what it
    decodes to, and streams at every split list the buffered rows."""
    graph = LabeledGraph(name="hostile")
    names = ['"q"', "back\\slash", "], [", "ünï☃", "ctl\x01\n", "plain"]
    graph.add_edges([(a, "next", b) for a, b in zip(names, names[1:])])
    net_session.attach("hostile", graph)
    query = {"query": "?x,?y <- ?x next+ ?y", "graph": "hostile"}
    with serving(net_session) as (_, client):
        body = _raw(client, "/v1/query", query)
        buffered = json.loads(body)
        assert json_body(buffered) == body
        assert buffered["row_count"] == len(buffered["rows"]) == 15
        for batch_size, limit in ((1, None), (2, 3), (4, 7), (64, None)):
            rows, request = [], {**query, "batch_size": batch_size}
            if limit is not None:
                request["limit"] = limit
            while True:
                lines = _raw(client, "/v1/query/stream",
                             request).splitlines(keepends=True)
                for line in lines:
                    assert json_body(json.loads(line)) + b"\n" == line
                rows.extend(row for line in lines[:-1]
                            for row in json.loads(line)["batch"])
                cursor = json.loads(lines[-1])["next_cursor"]
                if cursor is None:
                    break
                request = {"cursor": cursor, "batch_size": batch_size,
                           "limit": limit}
            assert rows == buffered["rows"]


def test_an_empty_result_is_served_as_empty_rows(net_session):
    query = {"query": "?x,?y <- ?x isLocatedIn ?y, ?y knows ?x"}
    with serving(net_session) as (_, client):
        body = _raw(client, "/v1/query", query)
        lines = _raw(client, "/v1/query/stream", query).splitlines()
    payload = json.loads(body)
    assert json_body(payload) == body
    assert payload["rows"] == [] and payload["row_count"] == 0
    assert b'"rows": [], ' in body
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"done": True, "row_count": 0,
                                    "offset": 0, "next_cursor": None,
                                    "snapshot_version":
                                        payload["snapshot_version"]}


def test_the_datalog_frontend_is_served_from_the_same_encoding(
        net_session, client):
    body = _raw(client, "/v1/query", {"query": KNOWS, "frontend": "datalog"})
    payload = json.loads(body)
    assert json_body(payload) == body
    relation = net_session.datalog(KNOWS).collect().relation
    assert payload["rows"] == [list(row) for row in relation.sorted_rows()]
    assert payload["row_count"] == len(relation) > 0
