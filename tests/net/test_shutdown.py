"""Graceful shutdown: drain semantics, 503s, and forced close.

The tests add a ``/slow`` test route so "in flight" is under the
test's control rather than depending on query runtimes.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.net import HttpServer, ServerThread, ServiceClient
from repro.net.server import CLOSED, DRAINING, Response

KNOWS = "?x,?y <- ?x knows+ ?y"


def make_server(net_service, *, sleep_seconds: float,
                drain_grace: float) -> ServerThread:
    server = HttpServer(net_service, drain_grace=drain_grace)

    async def slow(request, params, context) -> Response:
        await asyncio.sleep(sleep_seconds)
        return Response(200, {"slept": sleep_seconds})

    server.router.add("GET", "/slow", slow)
    return ServerThread(server).start()


def test_in_flight_request_completes_during_drain(net_service):
    running = make_server(net_service, sleep_seconds=0.5, drain_grace=10.0)
    outcome: dict = {}

    def slow_call():
        with ServiceClient(port=running.port) as client:
            outcome.update(client._json(client._send("GET", "/slow")))

    worker = threading.Thread(target=slow_call)
    worker.start()
    time.sleep(0.15)  # let the slow request reach the handler
    started = time.perf_counter()
    running.signal()  # SIGTERM equivalent: start the drain
    worker.join(timeout=10)
    elapsed = time.perf_counter() - started
    assert outcome == {"slept": 0.5}, "in-flight request must complete"
    assert elapsed < 5.0
    running.stop()
    assert running.server.state == CLOSED


def test_draining_server_answers_503_and_closes_listener(net_service):
    running = make_server(net_service, sleep_seconds=1.0, drain_grace=10.0)
    holder = ServiceClient(port=running.port)
    results: list = []

    def slow_call():
        results.append(holder._json(holder._send("GET", "/slow")))

    worker = threading.Thread(target=slow_call)
    # A second, kept-alive connection established while still serving:
    bystander = ServiceClient(port=running.port)
    assert bystander.health()["server_state"] == "serving"
    worker.start()
    time.sleep(0.15)
    running.signal()
    time.sleep(0.1)
    assert running.server.state == DRAINING
    # Queued-but-unstarted work on the open connection: clean 503.
    response = bystander._send("GET", "/healthz")
    assert response.status == 503
    body = response.read()
    assert b"draining" in body
    assert response.getheader("Connection") == "close"
    # The listener is closed: fresh connections are refused.
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", running.port), timeout=1.0)
    worker.join(timeout=10)
    assert results == [{"slept": 1.0}]
    bystander.close()
    holder.close()
    running.stop()


def test_second_signal_forces_immediate_close(net_service):
    running = make_server(net_service, sleep_seconds=30.0, drain_grace=30.0)
    failure: list = []

    def doomed_call():
        try:
            with ServiceClient(port=running.port, timeout=10.0) as client:
                client._json(client._send("GET", "/slow"))
        except Exception as error:
            failure.append(error)

    worker = threading.Thread(target=doomed_call)
    worker.start()
    time.sleep(0.15)
    started = time.perf_counter()
    running.signal()   # drain (would wait 30s for the sleeper)
    time.sleep(0.1)
    running.signal()   # force
    worker.join(timeout=10)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, "forced close must not wait out the grace"
    assert failure, "the aborted in-flight request must surface an error"
    running.stop()
    assert running.server.state == CLOSED


def test_drain_grace_bounds_the_wait(net_service):
    running = make_server(net_service, sleep_seconds=30.0, drain_grace=0.3)
    with ServiceClient(port=running.port, timeout=10.0) as client:
        worker = threading.Thread(
            target=lambda: _swallow(client, "/slow"))
        worker.start()
        time.sleep(0.15)
        started = time.perf_counter()
        running.signal()
        worker.join(timeout=10)
        assert time.perf_counter() - started < 5.0
    running.stop()
    assert running.server.state == CLOSED


def _swallow(client: ServiceClient, path: str) -> None:
    try:
        client._json(client._send("GET", path))
    except Exception:
        pass


def test_shutdown_is_idempotent(net_service):
    running = ServerThread(HttpServer(net_service)).start()
    running.stop()
    running.stop()
    assert running.server.state == CLOSED


def test_streaming_response_completes_during_drain(client, server):
    events = client.stream_query(KNOWS, batch_size=1)
    first = next(events)
    server.signal()
    remaining = list(events)
    assert remaining[-1]["done"] is True
    rows = first["batch"] + [row for event in remaining[:-1]
                             for row in event["batch"]]
    assert len(rows) == remaining[-1]["row_count"]


def test_stop_after_a_signalled_shutdown_returns_at_once(net_service):
    """``stop()`` racing the tail of a shutdown the server began itself:
    its own shutdown call can land on a loop already being torn down and
    never run, so ``stop()`` must also return when the thread exits."""
    for _ in range(50):
        running = ServerThread(HttpServer(net_service)).start()
        running.signal()
        deadline = time.monotonic() + 5.0
        while running.server.state != CLOSED:
            assert time.monotonic() < deadline, "the drain never finished"
            time.sleep(0)  # yield, staying inside the teardown window
        started = time.perf_counter()
        running.stop()
        assert time.perf_counter() - started < 1.0
        assert not running._thread.is_alive()
