"""The metrics registry: instruments, labels, exports, pipeline publication."""

from __future__ import annotations

import json
import threading

import pytest

from repro import Session
from repro.data import LabeledGraph
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               get_registry, set_registry)


class TestInstruments:
    def test_counter_accumulates_and_rejects_negatives(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(3)
        assert gauge.value == 12.0

    def test_histogram_exact_count_and_sum_windowed_percentiles(self):
        histogram = Histogram(window=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            histogram.observe(value)
        assert histogram.count == 6          # lifetime-exact
        assert histogram.sum == 21.0         # lifetime-exact
        quantiles = histogram.percentiles((0.5,))
        assert 3.0 <= quantiles[0.5] <= 6.0  # window holds the last 4


class TestRegistry:
    def test_get_or_create_returns_the_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_things_total", graph="g1")
        second = registry.counter("repro_things_total", graph="g1")
        assert first is second

    def test_label_sets_are_distinct_instruments(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", graph="g1").inc()
        registry.counter("repro_things_total", graph="g2").inc(2)
        snapshot = registry.snapshot()
        assert snapshot['repro_things_total{graph="g1"}'] == 1
        assert snapshot['repro_things_total{graph="g2"}'] == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_m_total", a="1", b="2")
        b = registry.counter("repro_m_total", b="2", a="1")
        assert a is b

    def test_one_name_one_kind(self):
        registry = MetricsRegistry()
        registry.counter("repro_thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_thing")

    def test_snapshot_expands_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("repro_latency_seconds").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["repro_latency_seconds_count"] == 1
        assert snapshot["repro_latency_seconds_sum"] == 0.5
        assert "repro_latency_seconds_p50" in snapshot

    def test_concurrent_increments_are_not_lost(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_hits_total")

        def worker() -> None:
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 4000


class TestExports:
    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_commits_total", graph="yago").inc(3)
        registry.gauge("repro_snapshot_version", graph="yago").set(7)
        registry.histogram("repro_execution_seconds").observe(0.25)
        text = registry.render_prometheus()
        assert "# TYPE repro_commits_total counter" in text
        assert 'repro_commits_total{graph="yago"} 3' in text
        assert "# TYPE repro_snapshot_version gauge" in text
        assert 'repro_snapshot_version{graph="yago"} 7' in text
        assert "# TYPE repro_execution_seconds histogram" in text
        assert "repro_execution_seconds_count 1" in text
        assert 'repro_execution_seconds{quantile="0.5"} 0.25' in text

    def test_jsonl_export_parses_line_by_line(self):
        registry = MetricsRegistry()
        registry.counter("repro_commits_total", graph="g").inc()
        registry.histogram("repro_execution_seconds").observe(1.0)
        lines = registry.render_jsonl().strip().splitlines()
        entries = [json.loads(line) for line in lines]
        assert {entry["metric"] for entry in entries} == {
            "repro_commits_total", "repro_execution_seconds"}
        counter = next(e for e in entries
                       if e["metric"] == "repro_commits_total")
        assert counter["type"] == "counter"
        assert counter["labels"] == {"graph": "g"}
        assert counter["value"] == 1

    def test_empty_registry_renders_empty(self):
        registry = MetricsRegistry()
        assert registry.render_prometheus() == ""
        assert registry.render_jsonl() == ""

    def test_set_registry_swaps_and_restores(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


def _chain_graph() -> LabeledGraph:
    graph = LabeledGraph(name="metrics-kg")
    graph.add_edges([(f"n{i}", "knows", f"n{i + 1}") for i in range(6)])
    return graph


class TestPipelinePublication:
    """The instrumented call sites really publish into the registry."""

    def test_execution_commit_and_cache_metrics(self, registry):
        with Session(_chain_graph(), num_workers=2) as session:
            session.ucrpq("?x,?y <- ?x knows+ ?y").collect()
            session.ucrpq("?x,?y <- ?x knows+ ?y").run_once()
            session.add_edges("knows", [("n6", "n7")])
        snapshot = registry.snapshot()
        assert snapshot['repro_executions_total{graph="default"}'] >= 1
        assert snapshot['repro_plan_cache_total{outcome="miss"}'] >= 1
        assert snapshot['repro_plan_cache_total{outcome="hit"}'] >= 1
        assert snapshot['repro_result_cache_total{outcome="hit"}'] >= 1
        assert snapshot['repro_commits_total{graph="default"}'] == 1
        assert snapshot['repro_snapshot_version{graph="default"}'] == 1
        assert snapshot["repro_execution_seconds_count"] >= 1
        # Cluster communication counters ride along with each execution.
        assert snapshot['repro_tasks_launched_total{graph="default"}'] >= 1

    def test_cache_off_publishes_nothing_for_that_cache(self, registry):
        with Session(_chain_graph(), num_workers=2,
                     enable_plan_cache=False) as session:
            session.ucrpq("?x,?y <- ?x knows ?y").collect()
        snapshot = registry.snapshot()
        assert not any(key.startswith("repro_plan_cache_total")
                       for key in snapshot)
