"""Percentiles and the shared table formatter."""

from __future__ import annotations

import pytest

from repro.bench import comparison_table, render_table
from repro.bench.harness import MeasuredRun
from repro.service import percentile


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([4.2], 0.99) == 4.2

    def test_median_interpolates(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_p95_of_uniform_range(self):
        values = list(range(101))  # 0..100
        assert percentile(values, 0.95) == pytest.approx(95.0)
        assert percentile(values, 0.99) == pytest.approx(99.0)


class TestSharedRenderer:
    def test_render_table_alignment(self):
        text = render_table("Title", ["a", "bb"], [["x", "y"], ["zz", "w"]])
        lines = text.splitlines()
        assert lines[1] == "=" * len("Title")
        assert all(len(line) == len(lines[2]) for line in lines[2:])

    def test_comparison_table_unchanged_shape(self):
        runs = [
            MeasuredRun(system="A", query_id="Q1", dataset="d",
                        seconds=0.5, rows=10),
            MeasuredRun(system="B", query_id="Q1", dataset="d",
                        seconds=1.0, rows=10, status="failed"),
        ]
        table = comparison_table(runs, "Fig")
        assert "0.500s" in table and "X" in table
        assert table.splitlines()[2].startswith("query_id")
