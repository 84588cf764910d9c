"""EXPLAIN ANALYZE: render one traced execution as an annotated span tree.

:meth:`Query.explain_analyze` executes a query under a private, enabled
:class:`~repro.obs.tracing.Tracer` and hands the finished records here.
The report shows, per pipeline stage, the measured wall time and what the
stage observed — plan-cache and result-cache outcomes, the physical
strategy chosen per fixpoint, per-iteration delta and accumulated
cardinalities, and the **estimate-vs-actual drift**: the ratio between
the cost model's estimated cardinality and the rows the execution
actually produced.  Drift is the raw material of ROADMAP item 4's
feedback-driven optimizer — a recorded actual to compare future
estimates against.

The renderer is deliberately dumb: it only reads
:class:`~repro.obs.tracing.SpanRecord` data, so anything that shows up
in a trace (maintenance decisions, commits, service requests) renders
the same way, and tests can assert on the structured report rather than
on screen-scraped text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .tracing import SpanRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..session.session import QueryResult

#: Span names the instrumented pipeline emits (shared vocabulary between
#: the call sites, this renderer and the tests — see DESIGN.md's span
#: taxonomy table).
QUERY = "query"
PARSE = "query.parse"
TRANSLATE = "query.translate"
PLAN = "session.resolve_plan"
EXECUTE = "session.execute_plan"
PHYSICAL = "execute.term"
FIXPOINT = "fixpoint"
ITERATION = "fixpoint.iteration"
LOCAL_LOOP = "fixpoint.local_loop"
COMMIT = "session.commit"
MAINTENANCE = "maintenance.pass"
MAINTENANCE_ENTRY = "maintenance.entry"
SERVICE_REQUEST = "service.request"
HTTP_REQUEST = "http.request"

#: Attributes whose values are rendered specially.
_HIDDEN_ATTRIBUTES = frozenset({"graph"})


@dataclass
class SpanNode:
    """One span with its children resolved (the render tree)."""

    record: SpanRecord
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.name

    def attribute(self, key: str, default: object = None) -> object:
        return self.record.attribute(key, default)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["SpanNode"]:
        return [node for node in self.walk() if node.name == name]

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly rendering of the subtree (the wire shape)."""
        return {
            "name": self.record.name,
            "duration_seconds": round(self.record.duration_seconds, 6),
            "attributes": {key: value
                           for key, value in self.record.attributes},
            "children": [child.to_dict() for child in self.children],
        }


def build_tree(records: list[SpanRecord]) -> list[SpanNode]:
    """Resolve parent links into trees (roots in start order).

    Records arrive in *finish* order (children before parents); children
    of one parent are re-sorted by start time so iteration spans render
    in iteration order.
    """
    nodes = {record.span_id: SpanNode(record) for record in records}
    roots: list[SpanNode] = []
    for record in records:
        node = nodes[record.span_id]
        parent = nodes.get(record.parent_id) if record.parent_id else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.record.started_at)
    roots.sort(key=lambda root: root.record.started_at)
    return roots


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3g}"
    return str(value)


def _format_attributes(record: SpanRecord) -> str:
    parts = [f"{key}={_format_value(value)}"
             for key, value in record.attributes
             if key not in _HIDDEN_ATTRIBUTES]
    return f"  [{', '.join(parts)}]" if parts else ""


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds * 1e6:.0f} us"


def render_tree(roots: list[SpanNode]) -> str:
    """The classic box-drawing tree, one line per span."""
    lines: list[str] = []

    def visit(node: SpanNode, prefix: str, branch: str,
              child_prefix: str) -> None:
        record = node.record
        lines.append(f"{prefix}{branch}{record.name}"
                     f"{_format_attributes(record)}"
                     f"  ({_format_duration(record.duration_seconds)})")
        for index, child in enumerate(node.children):
            last = index == len(node.children) - 1
            visit(child, child_prefix,
                  "└─ " if last else "├─ ",
                  child_prefix + ("   " if last else "│  "))

    for root in roots:
        visit(root, "", "", "")
    return "\n".join(lines)


@dataclass
class ExplainAnalyzeReport:
    """Everything :meth:`Query.explain_analyze` produced.

    ``str(report)`` (or ``report.render()``) is the human surface;
    the fields are the structured surface tests and the future
    feedback-driven optimizer read.
    """

    query_text: str
    result: "QueryResult"
    records: list[SpanRecord]
    roots: list[SpanNode] = field(init=False)

    def __post_init__(self) -> None:
        self.roots = build_tree(self.records)

    # -- Structured accessors ------------------------------------------------

    def spans(self, name: str) -> list[SpanNode]:
        """Every span of the given name, in start order."""
        found = [node for root in self.roots for node in root.find(name)]
        found.sort(key=lambda node: node.record.started_at)
        return found

    @property
    def fixpoints(self) -> list[SpanNode]:
        return self.spans(FIXPOINT)

    @property
    def iterations(self) -> list[SpanNode]:
        return self.spans(ITERATION)

    @property
    def plan_cache_hit(self) -> bool | None:
        return self._stage_attribute(PLAN, "cache_hit")

    @property
    def result_cache_hit(self) -> bool | None:
        return self._stage_attribute(EXECUTE, "result_cache_hit")

    @property
    def estimated_rows(self) -> int | None:
        value = self._stage_attribute(PLAN, "estimated_rows")
        return int(value) if value is not None else None

    @property
    def actual_rows(self) -> int:
        return len(self.result.relation)

    @property
    def drift(self) -> float | None:
        """actual / estimated rows (1.0 = the cost model was spot on).

        ``None`` when no estimate exists (optimizer off, cached plan
        without a recorded estimate).
        """
        estimated = self.estimated_rows
        if not estimated:
            return None
        return self.actual_rows / estimated

    def _stage_attribute(self, span_name: str, key: str) -> object:
        for node in self.spans(span_name):
            value = node.attribute(key)
            if value is not None:
                return value
        return None

    def to_dict(self) -> dict[str, object]:
        """The report as JSON-friendly data (the ``/v1/explain`` body)."""
        return {
            "query": self.query_text,
            "rows": self.actual_rows,
            "estimated_rows": self.estimated_rows,
            "drift": self.drift,
            "plan_cache_hit": self.plan_cache_hit,
            "result_cache_hit": self.result_cache_hit,
            "fixpoint_iterations": len(self.iterations),
            "spans": [root.to_dict() for root in self.roots],
        }

    # -- Rendering -----------------------------------------------------------

    def render(self) -> str:
        header = [f"EXPLAIN ANALYZE  {self.query_text}"]
        drift = self.drift
        summary = [
            f"rows: {self.actual_rows}",
            f"estimated: {self.estimated_rows if self.estimated_rows is not None else 'n/a'}",
            f"drift: {f'{drift:.2f}x' if drift is not None else 'n/a'}",
            f"plan cache: {_cache_label(self.plan_cache_hit)}",
            f"result cache: {_cache_label(self.result_cache_hit)}",
        ]
        dropped = self._stage_attribute(PLAN, "fcond_dropped")
        if dropped is not None:
            summary.append(f"dropped by Fcond: {dropped}")
        iterations = self.iterations
        if iterations:
            summary.append(f"fixpoint iterations: {len(iterations)}")
        header.append("  " + "  |  ".join(summary))
        return "\n".join(header) + "\n\n" + render_tree(self.roots) + "\n"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return (f"ExplainAnalyzeReport(rows={self.actual_rows}, "
                f"spans={len(self.records)})")


def _cache_label(hit: bool | None) -> str:
    if hit is None:
        return "off"
    return "hit" if hit else "miss"
