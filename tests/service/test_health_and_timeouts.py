"""Satellites: the UNBOUNDED timeout sentinel and the new health fields."""

from __future__ import annotations

import time

import pytest

from repro import QueryService, Session, UNBOUNDED
from repro.service import FAILED, OK

KNOWS = "?x,?y <- ?x knows+ ?y"


@pytest.fixture
def session(small_labeled_graph):
    return Session(small_labeled_graph, num_workers=2)


class TestUnboundedSentinel:
    """``timeout=None`` means "use the default"; ``UNBOUNDED`` disables it."""

    def test_none_falls_back_to_the_default_timeout(self, session):
        with QueryService(session, default_timeout=1e-9) as service:
            served = service.submit(KNOWS).result(timeout=10)
            assert served.status == FAILED
            assert served.detail.startswith(("timed out",
                                             "deadline exceeded"))

    def test_unbounded_overrides_the_default_timeout(self, session):
        with QueryService(session, default_timeout=1e-9) as service:
            served = service.submit(KNOWS,
                                    timeout=UNBOUNDED).result(timeout=10)
            assert served.status == OK

    def test_explicit_timeout_still_wins(self, session):
        with QueryService(session, default_timeout=1e-9) as service:
            served = service.submit(KNOWS, timeout=30.0).result(timeout=10)
            assert served.status == OK

    def test_sentinel_repr_and_identity(self):
        assert repr(UNBOUNDED) == "UNBOUNDED"
        from repro.service.server import UNBOUNDED as again
        assert again is UNBOUNDED


class TestHealthFields:
    def test_uptime_is_positive_and_monotone(self, session):
        with QueryService(session) as service:
            first = service.health()["uptime_seconds"]
            assert first > 0
            time.sleep(0.01)
            second = service.health()["uptime_seconds"]
            assert second > first

    def test_queue_high_water_tracks_backlog(self, session):
        with QueryService(session, max_in_flight=1) as service:
            assert service.health()["queue_high_water"] == 0
            futures = [service.submit(f"?x,?y <- ?x knows{'+' * (i % 2)} ?y")
                       for i in range(16)]
            for future in futures:
                future.result(timeout=30)
            assert service.health()["queue_high_water"] >= 1

    def test_health_reports_exactly_its_documented_fields(self, session):
        """Commits run no background work, so there is no backlog field."""
        with QueryService(session) as service:
            service.add_edges("knows", [("dave", "erin")])
            health = service.health()
        assert set(health) == {
            "status", "uptime_seconds", "queue_depth", "queue_capacity",
            "queue_high_water", "in_flight", "workers",
            "last_commit_version"}

    def test_health_publishes_prometheus_gauges(self, session):
        from repro.obs.metrics import get_registry
        with QueryService(session) as service:
            service.health()
            text = get_registry().render_prometheus()
        assert "repro_service_uptime_seconds" in text
        assert "repro_service_queue_high_water" in text
