"""Observability: tracing, metrics, structured logs, EXPLAIN ANALYZE.

The operational layer of the system (ROADMAP item 5's substrate):

* :mod:`repro.obs.tracing` — hierarchical spans, ContextVar-propagated
  across threads; off by default with near-zero cost,
* :mod:`repro.obs.metrics` — one registry of named counters / gauges /
  histograms with Prometheus-text and JSON-lines exports,
* :mod:`repro.obs.logs` — JSON-lines structured logging with trace
  correlation (``configure_logging`` is the documented entry point),
* :mod:`repro.obs.explain` — the span-tree report behind
  :meth:`Query.explain_analyze`.
"""

from .explain import ExplainAnalyzeReport, SpanNode, build_tree, render_tree
from .logs import (
    JsonLinesFormatter,
    configure_logging,
    get_logger,
    log_event,
    span_exporter,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .tracing import (
    NOOP_SPAN,
    Span,
    SpanRecord,
    Tracer,
    activate,
    configure_tracing,
    current_span_id,
    current_trace_id,
    current_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "NOOP_SPAN",
    "Counter",
    "ExplainAnalyzeReport",
    "Gauge",
    "Histogram",
    "JsonLinesFormatter",
    "MetricsRegistry",
    "Span",
    "SpanNode",
    "SpanRecord",
    "Tracer",
    "activate",
    "build_tree",
    "configure_logging",
    "configure_tracing",
    "current_span_id",
    "current_trace_id",
    "current_tracer",
    "get_logger",
    "get_registry",
    "log_event",
    "render_tree",
    "set_registry",
    "span",
    "span_exporter",
    "tracing_enabled",
]
