"""The HTTP endpoints end to end against a live in-process server."""

from __future__ import annotations

import time

import pytest

from repro.net import (HttpServer, ServerThread, ServiceClient, Tenant,
                       TenantRegistry)
from repro.net.client import ResponseError
from repro.service import UNBOUNDED, QueryService
from repro.session import Session

KNOWS = "?x,?y <- ?x knows+ ?y"
CITES = "?x,?y <- ?x cites+ ?y"
LIVES = "?x <- ?x livesIn/isLocatedIn+ europe"


def expected_rows(graph, query, strategy=None):
    """The single-threaded in-process answer, in wire row order."""
    session = Session(graph, num_workers=2)
    relation = session.ucrpq(query).collect(strategy).relation
    return [list(row) for row in sorted(relation.rows, key=repr)]


class TestQueryEndpoint:
    def test_query_matches_in_process_result(self, client,
                                             small_labeled_graph):
        response = client.query(KNOWS)
        assert response["status"] == "ok"
        assert response["graph"] == "default"
        assert response["rows"] == expected_rows(small_labeled_graph, KNOWS)
        assert response["row_count"] == len(response["rows"])
        assert response["columns"] == ["x", "y"]
        assert response["snapshot_version"] == 0
        assert response["plan"]["digest"]
        assert response["cache"] == {"plan_hit": False, "result_hit": False}
        assert response["timing"]["latency_seconds"] >= 0

    def test_repeat_query_hits_the_caches(self, client):
        client.query(KNOWS)
        repeat = client.query(KNOWS)
        assert repeat["cache"] == {"plan_hit": True, "result_hit": True}

    def test_named_graph_and_strategy(self, client):
        response = client.query(CITES, graph="citations",
                                strategy="pgld")
        assert response["graph"] == "citations"
        assert response["row_count"] == 6

    def test_datalog_frontend(self, client, small_labeled_graph):
        response = client.query(KNOWS, frontend="datalog")
        assert response["rows"] == expected_rows(small_labeled_graph, KNOWS)
        # The datalog path bypasses the serving caches.
        assert response["cache"] == {"plan_hit": None, "result_hit": None}

    def test_failed_query_is_400_with_detail(self, client):
        # The service serves it as FAILED; the tier maps it to 400 and
        # forwards the failure detail in the payload.
        with pytest.raises(ResponseError) as excinfo:
            client.query("?x,?y <- ?x nosuchlabel+ ?y")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["status"] == "failed"
        assert "nosuchlabel" in excinfo.value.payload["detail"]

    def test_unknown_strategy_is_400(self, client):
        # A non-recursive query reaches no fixpoint plan: only the check
        # where the strategy enters can refuse it.  Cached first, so the
        # refusal comes through the hit probe as well.
        for query in (KNOWS, "?x,?y <- ?x knows ?y"):
            client.query(query)
            with pytest.raises(ResponseError) as excinfo:
                client.query(query, strategy="plw-postgres")
            assert excinfo.value.status == 400
            assert "unknown strategy 'plw-postgres'" \
                in excinfo.value.payload["detail"]

    def test_validation_errors(self, client):
        for body_error in (
                lambda: client.query(""),
                lambda: client.query(KNOWS, frontend="sql"),
                lambda: client.query(KNOWS, timeout=-1),
        ):
            with pytest.raises(ResponseError) as excinfo:
                body_error()
            assert excinfo.value.status == 400

    @pytest.mark.parametrize("timeout", [True, float("nan")])
    def test_a_boolean_or_nan_timeout_is_400(self, client, timeout):
        with pytest.raises(ResponseError) as excinfo:
            client.query(KNOWS, timeout=timeout)
        assert excinfo.value.status == 400

    def test_unknown_graph_is_404(self, client):
        with pytest.raises(ResponseError) as excinfo:
            client.query(KNOWS, graph="nope")
        assert excinfo.value.status == 404

    def test_tiny_deadline_is_504_and_zero_disables_it(self, client):
        with pytest.raises(ResponseError) as excinfo:
            client.query(KNOWS, timeout=1e-9)
        assert excinfo.value.status == 504
        assert client.query(KNOWS, timeout=0)["status"] == "ok"

    def test_client_translates_unbounded_sentinel(self, client):
        assert client.query(KNOWS, timeout=UNBOUNDED)["status"] == "ok"


class TestRoutingAndHeaders:
    def test_unknown_route_is_404(self, client):
        with pytest.raises(ResponseError) as excinfo:
            client._json(client._send("GET", "/nope"))
        assert excinfo.value.status == 404

    def test_wrong_method_is_405_with_allow(self, client):
        response = client._send("POST", "/healthz", {})
        assert response.status == 405
        assert response.getheader("Allow") == "GET"
        response.read()

    def test_trace_id_header_on_every_response(self, client):
        response = client._send("GET", "/healthz")
        assert response.getheader("X-Trace-Id")
        response.read()

    def test_keep_alive_reuses_one_connection(self, client):
        client.query(KNOWS)
        connection = client._connection
        client.query(KNOWS)
        assert client._connection is connection


class TestMutationEndpoint:
    def test_add_then_remove_round_trip(self, client,
                                        small_labeled_graph):
        before = client.query(KNOWS)["row_count"]
        added = client.add_edges("default", "knows", [("dave", "erin")])
        assert added["committed"] is True
        assert added["snapshot_version"] == 1
        assert "knows" in added["touched"]
        after = client.query(KNOWS)
        assert after["row_count"] > before
        assert after["snapshot_version"] == 1
        removed = client.remove_edges("default", "knows",
                                      [("dave", "erin")])
        assert removed["snapshot_version"] == 2
        assert client.query(KNOWS)["rows"] == expected_rows(
            small_labeled_graph, KNOWS)

    def test_a_hit_after_an_unrelated_commit_reports_the_head(self, client):
        first = client.query(KNOWS)
        assert first["snapshot_version"] == 0
        client.add_edges("default", "worksAt", [("dave", "cnrs")])
        again = client.query(KNOWS)
        assert again["cache"]["result_hit"] is True
        assert again["rows"] == first["rows"]
        assert again["snapshot_version"] == 1

    def test_mixed_mutation_is_one_commit(self, client):
        response = client.mutate("default", "knows",
                                 add=[("x1", "x2")],
                                 remove=[("alice", "bob")])
        assert response["snapshot_version"] == 1

    def test_mutation_validation(self, client):
        with pytest.raises(ResponseError) as excinfo:
            client.mutate("default", "knows")
        assert excinfo.value.status == 400
        with pytest.raises(ResponseError) as excinfo:
            client.mutate("default", "", add=[("a", "b")])
        assert excinfo.value.status == 400
        with pytest.raises(ResponseError) as excinfo:
            client._json(client._send(
                "POST", "/v1/graphs/default/edges",
                {"label": "knows", "add": [["only-one"]]}))
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("pair", [[["x"], "y"], [{"k": 1}, "y"]])
    def test_an_array_or_object_node_id_is_400(self, client, pair):
        with pytest.raises(ResponseError) as excinfo:
            client._json(client._send(
                "POST", "/v1/graphs/default/edges",
                {"label": "knows", "add": [pair]}))
        assert excinfo.value.status == 400

    def test_mutation_on_unknown_graph_is_404(self, client):
        with pytest.raises(ResponseError) as excinfo:
            client.add_edges("nope", "knows", [("a", "b")])
        assert excinfo.value.status == 404


class TestOpsEndpoints:
    def test_healthz_shape(self, client):
        health = client.health()
        assert health["http_status"] == 200
        assert health["status"] == "ok"
        assert health["server_state"] == "serving"
        assert health["uptime_seconds"] > 0
        assert health["queue_high_water"] >= 0
        assert health["open_connections"] >= 1

    def test_metrics_exposes_http_and_service_families(self, client):
        client.query(KNOWS)
        text = client.metrics()
        assert "repro_http_requests_total" in text
        assert "repro_http_request_seconds" in text
        assert "repro_http_in_flight" in text
        assert "repro_service_uptime_seconds" in text
        assert "repro_service_queue_high_water" in text
        assert 'route="/v1/query"' in text

    def test_explain_reports_spans_and_cache_outcomes(self, client):
        explain = client.explain(KNOWS)
        assert explain["rows"] > 0
        assert explain["graph"] == "default"
        assert explain["spans"], "expected at least one span tree"
        names = {span["name"] for span in explain["spans"]}
        assert "query" in names
        assert explain["plan_cache_hit"] in (True, False)

    def test_explain_requires_query(self, client):
        with pytest.raises(ResponseError) as excinfo:
            client.explain("")
        assert excinfo.value.status == 400


class TestTenancyOverHttp:
    @pytest.fixture
    def secured(self, net_service):
        registry = TenantRegistry([
            Tenant(name="acme", token="acme-token",
                   graphs=frozenset({"default"}), rate_limit=1000.0),
            Tenant(name="cite", token="cite-token",
                   graphs=frozenset({"citations"}),
                   default_graph="citations"),
            Tenant(name="throttled", token="throttled-token",
                   rate_limit=1.0, burst=1.0),
        ])
        running = ServerThread(
            HttpServer(net_service, tenants=registry)).start()
        yield running
        running.stop()

    def test_missing_and_unknown_tokens_are_401(self, secured):
        with ServiceClient(port=secured.port) as anonymous:
            with pytest.raises(ResponseError) as excinfo:
                anonymous.query(KNOWS)
            assert excinfo.value.status == 401
        with ServiceClient(port=secured.port, token="wrong") as bad:
            with pytest.raises(ResponseError) as excinfo:
                bad.query(KNOWS)
            assert excinfo.value.status == 401

    def test_graph_mapping_enforced(self, secured):
        with ServiceClient(port=secured.port, token="acme-token") as acme:
            assert acme.query(KNOWS)["graph"] == "default"
            with pytest.raises(ResponseError) as excinfo:
                acme.query(CITES, graph="citations")
            assert excinfo.value.status == 403

    def test_default_graph_follows_the_tenant(self, secured):
        with ServiceClient(port=secured.port, token="cite-token") as cite:
            assert cite.query(CITES)["graph"] == "citations"

    def test_ops_endpoints_stay_open(self, secured):
        with ServiceClient(port=secured.port) as anonymous:
            assert anonymous.health()["http_status"] == 200
            assert "repro_http_requests_total" in anonymous.metrics()

    def test_rate_limit_answers_429_with_retry_after(self, secured):
        with ServiceClient(port=secured.port,
                           token="throttled-token") as throttled:
            throttled.query(KNOWS)
            with pytest.raises(ResponseError) as excinfo:
                throttled.query(KNOWS)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after >= 1
            assert excinfo.value.payload["retry_after_seconds"] > 0

    def test_rate_limited_requests_count_in_metrics(self, secured):
        with ServiceClient(port=secured.port,
                           token="throttled-token") as throttled:
            throttled.query(KNOWS)
            with pytest.raises(ResponseError):
                throttled.query(KNOWS)
            text = throttled.metrics()
        assert "repro_http_rate_limited_total" in text


def test_service_owns_nothing_by_default(net_service):
    """Closing the tier must not close a service it does not own."""
    running = ServerThread(HttpServer(net_service)).start()
    running.stop()
    assert net_service.health()["status"] == "ok"


def test_server_owns_service_when_asked(small_labeled_graph):
    service = QueryService(Session(small_labeled_graph), own_engine=True)
    running = ServerThread(
        HttpServer(service, own_service=True)).start()
    with ServiceClient(port=running.port) as client:
        assert client.query(KNOWS)["status"] == "ok"
    running.stop()
    assert service.health()["status"] == "closed"


class TestHitsSkipTheQueue:
    """A plan + result cache hit is answered without a queue slot."""

    @pytest.fixture
    def saturated(self, small_labeled_graph):
        """One worker, one queue slot, both taken by blocked misses; a
        client with the cached ``LIVES``."""
        service = QueryService(Session(small_labeled_graph, num_workers=2),
                               max_in_flight=1, queue_capacity=1,
                               own_engine=True)
        running = ServerThread(HttpServer(service)).start()
        try:
            with ServiceClient(port=running.port, timeout=30.0) as client:
                client.query(LIVES)
                with service.session.execution_lock:
                    blocked = service.submit(KNOWS)
                    time.sleep(0.05)  # the worker picks it up and blocks
                    queued = service.submit(KNOWS)
                    yield client
                assert blocked.result(timeout=10).status == "ok"
                assert queued.result(timeout=10).status == "ok"
        finally:
            running.stop()
            service.close()

    def test_a_cached_query_answers_200(self, saturated):
        response = saturated.query(LIVES)
        assert response["status"] == "ok"
        assert response["cache"] == {"plan_hit": True, "result_hit": True}
        assert response["timing"]["queue_wait_seconds"] == 0

    def test_a_cached_stream_sends_its_first_page(self, saturated):
        events = saturated.stream_query(LIVES, batch_size=1)
        first = next(events)
        assert first["index"] == 0 and len(first["batch"]) == 1
        assert [event for event in events if event.get("done")]

    def test_an_uncached_query_is_still_503(self, saturated):
        with pytest.raises(ResponseError) as excinfo:
            saturated.query("?x,?y <- ?x knows/knows ?y")
        assert excinfo.value.status == 503


def test_a_late_cached_query_is_504(small_labeled_graph):
    with QueryService(Session(small_labeled_graph), default_timeout=1e-9,
                      own_engine=True) as service:
        running = ServerThread(HttpServer(service)).start()
        try:
            with ServiceClient(port=running.port) as client:
                assert client.query(KNOWS, timeout=0)["status"] == "ok"
                with pytest.raises(ResponseError) as excinfo:
                    client.query(KNOWS)
        finally:
            running.stop()
    assert excinfo.value.status == 504
    assert excinfo.value.payload["detail"].startswith("deadline exceeded")
