"""Shared fixtures for the serving-tier tests: a live server per test."""

from __future__ import annotations

import pytest

from repro.data import LabeledGraph
from repro.net import HttpServer, ServerThread, ServiceClient
from repro.service import QueryService
from repro.session import Session


def make_citations_graph() -> LabeledGraph:
    graph = LabeledGraph(name="citations")
    graph.add_edges([
        ("p1", "cites", "p2"),
        ("p2", "cites", "p3"),
        ("p3", "cites", "p4"),
        ("p1", "cites", "p3"),
    ])
    return graph


@pytest.fixture
def net_session(small_labeled_graph) -> Session:
    session = Session(small_labeled_graph, num_workers=2)
    session.attach("citations", make_citations_graph())
    return session


@pytest.fixture
def net_service(net_session) -> QueryService:
    with QueryService(net_session, max_in_flight=4,
                      own_engine=True) as service:
        yield service


@pytest.fixture
def server(net_service) -> ServerThread:
    running = ServerThread(HttpServer(net_service)).start()
    yield running
    running.stop()


@pytest.fixture
def client(server) -> ServiceClient:
    with ServiceClient("127.0.0.1", server.port, timeout=30.0) as client:
        yield client
