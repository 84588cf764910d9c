"""Folding rounds and spans into metrics, on synthetic input."""

import pytest

from e2e.results import OpRecord, fold_rounds, fold_spans, round_metrics
from e2e.spans import OP, PROBE, Span, SpanRecorder, self_seconds
from e2e.workloads import ADD, HTTP, QUERY, STREAM


def ops(walls, kind=QUERY, **fields):
    return [OpRecord(kind=kind, wall=wall, cpu=wall / 2, **fields)
            for wall in walls]


def test_round_metrics_on_a_known_round():
    metrics = round_metrics(ops([0.010, 0.020, 0.030, 0.040, 0.100],
                                comm_rows=10))
    assert metrics["throughput_ops_s"] == pytest.approx(5 / 0.2)
    assert metrics["latency_p50_ms"] == pytest.approx(30.0)
    # Linear interpolation between the two slowest operations.
    assert metrics["latency_p90_ms"] == pytest.approx(40 + 0.6 * 60)
    assert metrics["cpu_ms_per_op"] == pytest.approx(20.0)
    assert metrics["comm_rows_per_op"] == 10
    assert metrics["write_p50_ms"] == 0.0
    assert metrics["first_batch_p50_ms"] == 0.0


def test_write_and_first_batch_percentiles_use_their_own_operations():
    mixed = (ops([0.005] * 4, kind=HTTP) + ops([0.080, 0.100], kind=ADD)
             + ops([0.050], kind=STREAM, first_batch=0.012))
    metrics = round_metrics(mixed)
    assert metrics["write_p50_ms"] == pytest.approx(90.0)
    assert metrics["first_batch_p50_ms"] == pytest.approx(12.0)


def test_the_reported_value_is_the_median_over_rounds():
    rounds = [ops([0.010] * 4), ops([0.011] * 4), ops([0.200] * 4),
              ops([0.009] * 4), ops([0.012] * 4)]
    metrics = fold_rounds(rounds)
    # The stalled third round moves neither latency nor throughput.
    assert metrics["latency_p50_ms"] == pytest.approx(11.0)
    assert metrics["throughput_ops_s"] == pytest.approx(4 / 0.044)


def span(id, parent, name, start, end, op=0, factor=1.0, **counts):
    return Span(id=id, parent=parent, op=op, name=name, start=start, end=end,
                factor=factor, counts=counts)


def test_self_time_subtracts_what_children_cover():
    spans = [
        span(0, None, OP, 0.0, 10.0),
        span(1, 0, "a", 1.0, 4.0),
        span(2, 0, "b", 3.0, 6.0),           # overlaps "a" by one second
        span(3, 2, "c", 3.5, 5.5),
        span(4, 0, "d", 9.0, 12.0),          # runs past its parent
    ]
    own = self_seconds(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(2.0)
    assert own[4] == pytest.approx(3.0)


def test_self_time_is_calibrated_by_the_span_factor():
    spans = [span(0, None, OP, 0.0, 4.0, factor=0.5),
             span(1, 0, "a", 1.0, 2.0, factor=0.5)]
    assert self_seconds(spans) == {0: pytest.approx(1.5),
                                   1: pytest.approx(0.5)}


def test_recorder_nests_spans_and_numbers_operations():
    ticks = iter(range(100))
    recorder = SpanRecorder(now=lambda: float(next(ticks)))
    for _ in range(2):
        recorder.next_op()
        with recorder.span(OP) as root:
            with recorder.span("layer") as layer:
                layer.counts["rows"] = 3
            recorder.add("reported", 0.25, 0.75, parent=root)
    names = [(s.op, s.name, s.parent) for s in recorder.spans]
    assert names == [(0, OP, None), (0, "layer", 0), (0, "reported", 0),
                     (1, OP, None), (1, "layer", 3), (1, "reported", 3)]
    assert recorder.spans[1].end - recorder.spans[1].start == 1.0


def test_fold_spans_reports_medians_means_ratios_and_coverage():
    spans = []
    for op, execute in enumerate((0.040, 0.060, 0.080)):
        base = 10 * op
        first = len(spans)
        spans += [
            span(first, None, OP, base, base + execute + 0.010, op=op),
            span(first + 1, first, "query.parse", base, base + 0.002, op=op),
            span(first + 2, first, "distributed.execute", base + 0.005,
                 base + 0.005 + execute, op=op, tuples_shuffled=30,
                 kernel_reuses=3, kernel_compiles=1, task_ms=5.0),
            span(first + 3, None, PROBE, base + 1, base + 2, op=op),
            span(first + 4, first + 3, "algebra.evaluate", base + 1,
                 base + 1 + execute / 2, op=op),
        ]
    metrics = fold_spans(spans, ops=3, measured_seconds=0.2)
    assert metrics["distributed.execute_ms"] == pytest.approx(60.0)
    assert metrics["algebra.evaluate_ms"] == pytest.approx(30.0)
    assert metrics["distributed.overhead_ms"] == pytest.approx(30.0)
    assert metrics["distributed.tuples_shuffled"] == pytest.approx(30.0)
    assert metrics["distributed.task_ms"] == pytest.approx(5.0)
    assert metrics["algebra.kernel_reuse_ratio"] == pytest.approx(0.75)
    assert metrics["session.plan_cache_hit_ratio"] == 0.0
    assert metrics["net.request_ms"] == 0.0
    # Roots last 0.05 + 0.07 + 0.09; the probes explain none of it.
    assert metrics["obs.trace_overhead_ratio"] == pytest.approx(0.21 / 0.2)
    assert metrics["bench.layer_coverage_ratio"] == pytest.approx(
        (0.18 + 0.006) / 0.2)


def test_fold_spans_scales_durations_and_ms_counts_by_the_factor():
    spans = [span(0, None, OP, 0.0, 0.1, factor=0.5),
             span(1, 0, "net.request", 0.0, 0.1, factor=0.5,
                  stream_rows=1000, first_batch_ms=20.0)]
    metrics = fold_spans(spans, ops=1, measured_seconds=0.05)
    assert metrics["net.request_ms"] == pytest.approx(50.0)
    assert metrics["net.stream_rows_per_s"] == pytest.approx(1000 / 0.05)
    assert metrics["obs.trace_overhead_ratio"] == pytest.approx(1.0)
