"""The benchmark's own span recorder (the traced pass).

Spans are recorded around the calls the benchmark makes into each layer
of the program — the program's own tracer stays off — kept in memory,
and written out as JSON lines when the workload ends.  One operation's
spans share its ``op`` number; a span's ``parent`` is the span that was
open when it started.  A span may carry counts taken at the same
boundary (rows, tuples shuffled, cache hits), so ratios are measured
where the work happens.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

#: Root of one replayed operation; its duration is the end-to-end time.
OP = "op"
#: Root of a side measurement that is not part of the operation (the
#: centralized evaluation of the same plan, an in-process submit, ...).
PROBE = "probe"


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    #: Multiplier that turns this span's duration into reference-machine
    #: time; set once the surrounding timed call has been bracketed.
    factor: float = 1.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Calibrated duration."""
        return (self.end - self.start) * self.factor


class SpanRecorder:
    def __init__(self, now=time.perf_counter):
        self._now = now
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._op = -1

    def next_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        span = Span(id=len(self.spans), parent=parent, op=self._op,
                    name=name, start=self._now())
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = self._now()
            self._open.pop()

    def add(self, name: str, start: float, end: float, parent: Span) -> Span:
        """Record a span measured elsewhere (a server-reported duration)."""
        span = Span(id=len(self.spans), parent=parent.id, op=parent.op,
                    name=name, start=start, end=end)
        self.spans.append(span)
        return span

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Calibrated self time per span id.

    A span's self time is its duration minus the part of its interval
    that its children cover (overlapping children are not counted twice,
    and a child is clipped to its parent's interval).
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            start = max(child.start, reach)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result[span.id] = (span.end - span.start - covered) * span.factor
    return result
