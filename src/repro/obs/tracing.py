"""Low-overhead hierarchical tracing for the query pipeline.

One query through the session is a *trip*: parse, translate, plan,
execute, fixpoint loops, per-iteration deltas, cache lookups and
commits.  This module records that trip as a tree of
**spans** — named, timed intervals with attributes — so the operator of a
long-running service (and :meth:`Query.explain_analyze`) can see where a
query's time went and what each stage observed.

Design constraints, in order:

1. **Off means free.**  Tracing is disabled by default and the disabled
   path must stay invisible on the hot fixpoint loop
   (``benchmarks/bench_obs_overhead.py`` asserts <= 5%).  Call sites
   either hoist ``tracer.enabled`` into a local before a loop, or call
   :func:`span` / :func:`current_tracer` at per-query granularity where a
   single :class:`~contextvars.ContextVar` read is noise.
2. **Spans nest across threads.**  The active tracer and the current
   span travel in :class:`~contextvars.ContextVar`\\ s.  The one thread
   hand-off inside the system (the service's request workers) copies the
   submitting context with
   :func:`contextvars.copy_context`, so a span opened by the submitter is
   the parent of everything the worker does — and two concurrent queries
   never adopt each other's spans, because each task runs in its own
   context copy.
3. **Cluster tasks are in-process calls.**  A task wave runs on the
   calling thread (:meth:`~repro.distributed.cluster.SparkCluster.run_tasks`),
   so a worker's spans nest under the driver's open span directly.

A :class:`Tracer` owns a bounded buffer of finished span records; the
buffer (not live ``Span`` objects) is the read surface — renderers build
the tree from records after the fact.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar

from ..check.sanitizer import ordered_lock
from dataclasses import dataclass

#: Default bound on buffered finished spans per tracer: a forgotten
#: enabled tracer must not grow without limit on a busy service.
DEFAULT_SPAN_CAPACITY = 8192

#: Per-process monotonically increasing span id suffix.
_ids = itertools.count(1)


def _new_span_id() -> str:
    """A span id unique across the processes of one execution.

    The pid prefix keeps ids from separate processes (two servers
    logging to one sink) disjoint without any coordination.
    """
    return f"{os.getpid():x}-{next(_ids):x}"


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: immutable, renderer-friendly."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    started_at: float
    duration_seconds: float
    attributes: tuple[tuple[str, object], ...] = ()

    def attribute(self, key: str, default: object = None) -> object:
        for name, value in self.attributes:
            if name == key:
                return value
        return default


class Span:
    """A live span: context manager, attribute sink, ContextVar scope."""

    __slots__ = ("tracer", "name", "trace_id", "span_id", "parent_id",
                 "started_at", "_perf_started", "_attributes", "_token")

    def __init__(self, tracer: "Tracer", name: str, trace_id: str,
                 parent_id: str | None, attributes: dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.started_at = time.time()
        self._perf_started = time.perf_counter()
        self._attributes = attributes
        self._token = None

    @property
    def enabled(self) -> bool:
        return True

    def set_attribute(self, key: str, value: object) -> "Span":
        self._attributes[key] = value
        return self

    def __enter__(self) -> "Span":
        self._token = _current_span.set(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._token is not None:
            _current_span.reset(self._token)
            self._token = None
        self.tracer._finish(SpanRecord(
            trace_id=self.trace_id, span_id=self.span_id,
            parent_id=self.parent_id, name=self.name,
            started_at=self.started_at,
            duration_seconds=time.perf_counter() - self._perf_started,
            attributes=tuple(self._attributes.items())))

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id})"


class _NoopSpan:
    """The shared do-nothing span the disabled path hands out.

    Entering it does not touch the ContextVar, so a disabled ``with``
    block costs two method calls and nothing else.
    """

    __slots__ = ()

    enabled = False
    span_id = None
    trace_id = None

    def set_attribute(self, key: str, value: object) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Nothing to finish; never swallows the exception."""

    def __repr__(self) -> str:
        return "Span(<disabled>)"


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Produces spans and buffers their finished records (bounded).

    ``enabled=False`` (the default) makes :meth:`span` return the shared
    no-op span without allocating anything.  An optional ``exporter``
    callable receives every finished :class:`SpanRecord` — the JSON-lines
    structured logger plugs in here (see :mod:`repro.obs.logs`).
    """

    def __init__(self, enabled: bool = False,
                 capacity: int = DEFAULT_SPAN_CAPACITY,
                 exporter: Callable[[SpanRecord], None] | None = None):
        self.enabled = enabled
        self.exporter = exporter
        self._records: deque[SpanRecord] = deque(maxlen=capacity)
        self._lock = ordered_lock("obs.tracer")

    def span(self, name: str, **attributes: object):
        """Open a span under the current one (a no-op span when disabled)."""
        if not self.enabled:
            return NOOP_SPAN
        parent = _current_span.get()
        if parent is not None and parent.enabled:
            return Span(self, name, parent.trace_id, parent.span_id,
                        attributes)
        # A new root: the trace id doubles as the root span's id, so log
        # correlation needs only one value.
        span = Span(self, name, "pending", None, attributes)
        span.trace_id = span.span_id
        return span

    def _finish(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
        if self.exporter is not None:
            self.exporter(record)

    def records(self) -> list[SpanRecord]:
        """Finished spans, oldest first (an independent copy)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __repr__(self) -> str:
        return (f"Tracer(enabled={self.enabled}, "
                f"buffered={len(self)})")


#: The disabled singleton ambient tracer: what every call site sees until
#: someone activates a real one.
_DISABLED_TRACER = Tracer(enabled=False)

#: Process-wide default, swapped by :func:`configure_tracing`.  Contexts
#: (and threads, which start on fresh contexts) that never called
#: :func:`activate` fall back to it.
_default_tracer: Tracer = _DISABLED_TRACER

_active_tracer: ContextVar[Tracer | None] = ContextVar("repro_active_tracer",
                                                       default=None)
_current_span: ContextVar[Span | None] = ContextVar("repro_current_span",
                                                    default=None)

#: Benchmark escape hatch (see :func:`suspended`): when set, the ambient
#: helpers short-circuit before the ContextVar read, giving the overhead
#: benchmark a floor to measure the disabled path against.
_suspended = False


def current_tracer() -> Tracer:
    """The tracer active in this context (a disabled one by default)."""
    if _suspended:
        return _DISABLED_TRACER
    tracer = _active_tracer.get()
    return tracer if tracer is not None else _default_tracer


def tracing_enabled() -> bool:
    """Fast ambient check call sites hoist before hot loops."""
    return current_tracer().enabled


def span(name: str, **attributes: object):
    """Open a span on the ambient tracer (no-op span when disabled)."""
    if _suspended:
        return NOOP_SPAN
    return current_tracer().span(name, **attributes)


def current_span_id() -> str | None:
    """Id of the innermost open span of this context, or ``None``."""
    current = _current_span.get()
    return current.span_id if current is not None else None


def current_trace_id() -> str | None:
    """Trace id of this context (for log correlation), or ``None``."""
    current = _current_span.get()
    return current.trace_id if current is not None else None


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` the ambient tracer of this context.

    Scoped: the previous tracer is restored on exit, and the activation
    travels with :func:`contextvars.copy_context` into worker threads.
    """
    token = _active_tracer.set(tracer)
    try:
        yield tracer
    finally:
        _active_tracer.reset(token)


def configure_tracing(enabled: bool = True,
                      capacity: int = DEFAULT_SPAN_CAPACITY,
                      exporter: Callable[[SpanRecord], None] | None = None,
                      ) -> Tracer:
    """Install a process-default tracer (the non-scoped entry point).

    For scoped tracing — one query, one test — prefer ``activate(Tracer
    (enabled=True))``; this function swaps the process-wide *fallback*,
    affecting every thread and context that has not activated its own.
    """
    global _default_tracer
    tracer = Tracer(enabled=enabled, capacity=capacity, exporter=exporter)
    _default_tracer = tracer
    return tracer


@contextmanager
def suspended() -> Iterator[None]:
    """Short-circuit even the disabled-path ContextVar reads.

    This exists for one caller: ``benchmarks/bench_obs_overhead.py``
    measures the cost of the *disabled* tracing path against this floor.
    It is not a general off switch — it is the measurement baseline.
    """
    global _suspended
    _suspended = True
    try:
        yield
    finally:
        _suspended = False
