"""Folding raw timings into the declared metrics.

End-to-end metrics are computed per round from calibrated operation
times and reported as the median over rounds; per-layer metrics are
folded from the spans of the traced rounds.  ``*_ms`` metrics taken from
span durations are medians over the spans of that name; counts are means
per operation (they repeat exactly, so a mean loses nothing), with
``*_ms`` counts scaled to reference-machine time like any duration.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from repro.percentiles import percentile

from .spans import OP, Span, self_seconds
from .workloads import STREAM, WRITES


@dataclass
class OpRecord:
    """One measured operation, in reference-machine seconds."""

    kind: str
    wall: float
    cpu: float
    comm_rows: int = 0
    #: Start of the request to the first streamed batch (streams only).
    first_batch: float | None = None


def _p50_ms(values: list[float]) -> float:
    return 1000.0 * percentile(values, 0.5)


def round_metrics(ops: list[OpRecord]) -> dict[str, float]:
    walls = [op.wall for op in ops]
    return {
        "throughput_ops_s": len(ops) / sum(walls),
        "latency_p50_ms": _p50_ms(walls),
        "latency_p90_ms": 1000.0 * percentile(walls, 0.9),
        "cpu_ms_per_op": 1000.0 * sum(op.cpu for op in ops) / len(ops),
        "comm_rows_per_op": sum(op.comm_rows for op in ops) / len(ops),
        "write_p50_ms": _p50_ms([op.wall for op in ops if op.kind in WRITES]),
        "first_batch_p50_ms": _p50_ms([op.first_batch for op in ops
                                       if op.kind == STREAM
                                       and op.first_batch is not None]),
    }


def fold_rounds(rounds: list[list[OpRecord]]) -> dict[str, float]:
    """Median over rounds of every per-round metric."""
    per_round = [round_metrics(ops) for ops in rounds]
    return {name: statistics.median(values[name] for values in per_round)
            for name in per_round[0]}


#: Span name -> the metric that reports its median duration.
DURATIONS = {
    "query.parse": "query.parse_ms",
    "query.translate": "query.translate_ms",
    "rewriter.explore": "rewriter.explore_ms",
    "cost.rank": "cost.rank_ms",
    "session.resolve_plan": "session.resolve_plan_ms",
    "session.bind": "session.bind_ms",
    "session.execute_plan_hit": "session.execute_plan_hit_ms",
    "session.commit": "session.commit_ms",
    "distributed.execute": "distributed.execute_ms",
    "algebra.evaluate": "algebra.evaluate_ms",
    "service.submit": "service.submit_ms",
    "service.queue_wait": "service.queue_wait_ms",
    "service.server_latency": "service.server_latency_ms",
    "service.commit": "service.commit_ms",
    "net.request": "net.request_ms",
    "net.healthz": "net.healthz_ms",
    "net.serialize": "net.serialize_ms",
}
#: Metric -> (span, span): median over operations of first minus second.
DIFFERENCES = {
    "distributed.overhead_ms": ("distributed.execute", "algebra.evaluate"),
    "net.overhead_ms": ("net.request", "service.server_latency"),
    "service.maintenance_ms": ("service.commit", "session.commit"),
}
#: Span count -> the metric that reports its mean per operation.
COUNTS = {
    "plans_explored": "rewriter.plans_explored",
    "tuples_shuffled": "distributed.tuples_shuffled",
    "tuples_broadcast": "distributed.tuples_broadcast",
    "tasks_launched": "distributed.tasks_launched",
    "global_iterations": "distributed.global_iterations",
    "local_iterations": "distributed.local_iterations",
    "task_ms": "distributed.task_ms",
    "kernel_compiles": "algebra.kernel_compiles",
    "encode_ms": "data.encode_ms",
    "index_builds": "data.index_builds",
    "rows_out": "data.rows_out",
    "maintenance_resumed": "service.maintenance_resumed",
    "maintenance_rederived": "service.maintenance_rederived",
    "maintenance_fallbacks": "service.maintenance_fallbacks",
    "maintenance_skipped": "service.maintenance_skipped",
    "response_bytes": "net.response_bytes",
}
#: Metric -> (useful outcomes, attempts), both sums of span counts.
RATIOS = {
    "algebra.kernel_reuse_ratio": (("kernel_reuses",),
                                   ("kernel_reuses", "kernel_compiles")),
    "data.index_reuse_ratio": (("index_reuses",),
                               ("index_reuses", "index_builds")),
    "session.plan_cache_hit_ratio": (("plan_hits",), ("plan_lookups",)),
    "session.result_cache_hit_ratio": (("result_hits",), ("result_lookups",)),
}


def fold_spans(spans: list[Span], ops: int,
               measured_seconds: float) -> dict[str, float]:
    """Per-layer metrics of the traced rounds.

    ``ops`` operations were replayed; the same operations took
    ``measured_seconds`` (reference-machine time) in the untraced rounds.
    """
    by_name: dict[str, list[Span]] = {}
    by_op: dict[int, dict[str, float]] = {}
    totals: dict[str, float] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        by_op.setdefault(span.op, {})[span.name] = span.seconds
        for name, value in span.counts.items():
            scale = span.factor if name.endswith("_ms") else 1.0
            totals[name] = totals.get(name, 0.0) + value * scale

    def total(names) -> float:
        return sum(totals.get(name, 0.0) for name in names)

    metrics = {}
    for name, metric in DURATIONS.items():
        metrics[metric] = _p50_ms([s.seconds for s in by_name.get(name, ())])
    for metric, (first, second) in DIFFERENCES.items():
        metrics[metric] = _p50_ms([named[first] - named[second]
                                   for named in by_op.values()
                                   if first in named and second in named])
    for name, metric in COUNTS.items():
        metrics[metric] = totals.get(name, 0.0) / ops
    for metric, (useful, attempts) in RATIOS.items():
        attempted = total(attempts)
        metrics[metric] = total(useful) / attempted if attempted else 0.0
    streams = [s for s in by_name.get("net.request", ())
               if "stream_rows" in s.counts]
    metrics["net.stream_rows_per_s"] = (
        total(("stream_rows",)) / sum(s.seconds for s in streams)
        if streams else 0.0)

    # Layer spans are the descendants of an OP root; a PROBE subtree is a
    # side measurement and explains none of the operation's time.
    in_op: set[int] = set()
    for span in spans:                      # parents precede children
        if span.name == OP or span.parent in in_op:
            in_op.add(span.id)
    own = self_seconds(spans)
    roots = sum(span.seconds for span in by_name.get(OP, ()))
    layers = sum(own[span.id] for span in spans
                 if span.id in in_op and span.name != OP)
    metrics["obs.trace_overhead_ratio"] = roots / measured_seconds
    metrics["bench.layer_coverage_ratio"] = layers / measured_seconds
    return metrics
