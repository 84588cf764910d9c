"""Shared fixtures for the analyzer/sanitizer tests."""

from __future__ import annotations

import pytest

from repro.session import Session


@pytest.fixture
def kg_session(small_labeled_graph) -> Session:
    return Session(small_labeled_graph, num_workers=2)
