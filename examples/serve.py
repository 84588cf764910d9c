"""Serving tier end to end: an HTTP server, concurrent clients, quotas.

Run with::

    python examples/serve.py

Boots an :class:`~repro.net.server.HttpServer` (the asyncio serving
tier) over a :class:`~repro.service.QueryService` on an ephemeral port,
with two tenants mapped to different graphs.  Three client threads —
each its own blocking :class:`~repro.net.client.ServiceClient`
connection — replay a skewed query mix over HTTP; halfway through, a
mutation commits a new snapshot through ``POST /v1/graphs/.../edges``,
a large result is read back with the streaming endpoint (chunked
ndjson + continuation cursor), and a rate-limited tenant runs into 429.
The script ends with ``/v1/explain``, ``/healthz`` and the Prometheus
``/metrics`` text — then drains the server like SIGTERM would.
"""

from __future__ import annotations

import random
import threading

from repro import LabeledGraph, QueryService, Session
from repro.net import HttpServer, ServerThread, Tenant, TenantRegistry
from repro.net.client import ResponseError, ServiceClient


def build_graph() -> LabeledGraph:
    """A small social/location graph with a few recursive shapes."""
    graph = LabeledGraph(name="serve-example")
    rng = random.Random(42)
    people = [f"p{i}" for i in range(30)]
    cities = ["lyon", "grenoble", "paris", "berlin"]
    for person in people:
        graph.add_edge(person, "knows", rng.choice(people))
        graph.add_edge(person, "livesIn", rng.choice(cities))
    for city in cities[:-1]:
        graph.add_edge(city, "isLocatedIn", "europe")
    return graph


QUERIES = [
    "?x,?y <- ?x knows+ ?y",
    "?x <- ?x livesIn/isLocatedIn+ europe",
    "?x,?y <- ?x knows+/livesIn ?y",
]

TENANTS = TenantRegistry([
    Tenant(name="analytics", token="analytics-token",
           graphs=frozenset({"default", "tiny"})),
    Tenant(name="throttled", token="throttled-token",
           rate_limit=2.0, burst=2.0),
])


def client(port: int, client_id: int, requests: int) -> None:
    rng = random.Random(client_id)
    with ServiceClient(port=port, token="analytics-token") as http:
        for _ in range(requests):
            text = rng.choice(QUERIES)
            response = http.query(text)
            cache = response["cache"]
            label = ("result-cache hit" if cache["result_hit"]
                     else "plan-cache hit" if cache["plan_hit"]
                     else "cold")
            print(f"  client {client_id}: {response['row_count']:4d} rows "
                  f"in {response['timing']['service_seconds'] * 1000:7.2f}"
                  f" ms  ({label})")


def replay(port: int) -> None:
    threads = [threading.Thread(target=client, args=(port, i, 4))
               for i in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def main() -> None:
    session = Session(build_graph(), num_workers=4)
    tiny = LabeledGraph(name="tiny")
    tiny.add_edge("a", "knows", "b")
    tiny.add_edge("b", "knows", "c")
    session.attach("tiny", tiny)
    service = QueryService(session, max_in_flight=3, own_engine=True)
    server = HttpServer(service, tenants=TENANTS, own_service=True)
    with ServerThread(server) as running:
        print(f"== Serving on http://127.0.0.1:{running.port} ==")
        http = ServiceClient(port=running.port, token="analytics-token")

        print("\n== First replay: three concurrent HTTP clients ==")
        replay(running.port)

        print("\n== Mutation over HTTP: a snapshot commit ==")
        committed = http.add_edges("default", "knows",
                                   [("p0", "p29"), ("p29", "p1")])
        print(f"  touched relations: {', '.join(committed['touched'])}")
        print(f"  head snapshot: v{committed['snapshot_version']} "
              f"(older cached entries simply age out)")

        print("\n== Second replay: mutated relations re-execute ==")
        replay(running.port)

        print("\n== Streaming: chunked batches + a continuation cursor ==")
        events = list(http.stream_query(QUERIES[0], batch_size=64,
                                        limit=128))
        final = events[-1]
        streamed = sum(len(event["batch"]) for event in events[:-1])
        print(f"  first response: {streamed} rows in "
              f"{len(events) - 1} chunked batches "
              f"(total {final['row_count']}, "
              f"snapshot v{final['snapshot_version']})")
        if final["next_cursor"]:
            rest = list(http.stream_query(cursor=final["next_cursor"]))
            remaining = sum(len(event["batch"]) for event in rest[:-1])
            print(f"  cursor resume: {remaining} more rows from the same "
                  f"pinned snapshot")

        print("\n== Multi-graph: the same server serves a second dataset ==")
        response = http.query(QUERIES[0], graph="tiny")
        print(f"  {QUERIES[0]!r} on graph 'tiny': "
              f"{response['row_count']} rows (default graph untouched)")

        print("\n== Quotas: the throttled tenant hits its rate limit ==")
        with ServiceClient(port=running.port,
                           token="throttled-token") as throttled:
            served = failed = 0
            retry_after = 0.0
            for _ in range(6):
                try:
                    throttled.query(QUERIES[0])
                    served += 1
                except ResponseError as error:
                    assert error.status == 429
                    failed += 1
                    retry_after = error.retry_after or retry_after
            print(f"  {served} served, {failed} answered 429 "
                  f"(Retry-After {retry_after:.0f}s)")

        print("\n== EXPLAIN ANALYZE over HTTP ==")
        explain = http.explain(QUERIES[0])
        print(f"  rows={explain['rows']} "
              f"estimated={explain['estimated_rows']} "
              f"plan_cache_hit={explain['plan_cache_hit']} "
              f"spans={len(explain['spans'])}")

        print("\n== Health ==")
        for key, value in sorted(http.health().items()):
            print(f"  {key}: {value}")

        print("\n== /metrics (Prometheus text, repro_http_* families) ==")
        print("\n".join(line for line in http.metrics().splitlines()
                        if line.startswith(("# TYPE repro_http",
                                            "repro_http"))))
        http.close()

        print("\n== Graceful shutdown: drain, then close ==")
        running.stop()
        print(f"  server state: {server.state}")


if __name__ == "__main__":
    main()
