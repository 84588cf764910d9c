"""The query service: concurrent, cached serving on top of a Session.

:class:`QueryService` turns a single-caller :class:`~repro.session.Session`
into a serving subsystem for many concurrent clients:

* **Admission control** — a submission whose plan and result are both
  cached is answered on the calling thread (:meth:`Query.cached_result`
  looks them up against the head); it takes no queue slot and no
  worker, so it bypasses the queue bound and is not counted in
  ``health()["in_flight"]``.  Every other submission goes through a
  bounded queue; when it is full, :meth:`QueryService.submit` rejects
  the query (:class:`~repro.errors.ServiceOverloadError`) instead of
  letting work pile up unboundedly; ``submit(block=True)`` and
  :meth:`~QueryService.batch` apply backpressure instead.
  :meth:`~QueryService.submit` is the one way in: the HTTP tier routes
  every request that returns query rows, buffered or streamed, through
  it.
* **Scheduling** — a configurable number of worker threads
  (``max_in_flight``) drain the queue.  The *plan phase* (translation,
  rewriting, cost ranking, cache lookups) runs concurrently across
  workers; the *execution phase* serializes on the session's execution
  lock so all queries share the session's one
  :class:`~repro.distributed.cluster.SparkCluster` instead of
  oversubscribing it (mirroring a Spark driver scheduling jobs onto one
  fixed pool of executors).
* **One pipeline** — every request is coerced into a lazy
  :class:`~repro.session.Query` handle and served through the session's
  shared :meth:`~repro.session.Session.resolve_plan` /
  :meth:`~repro.session.Session.execute_plan` stages — the exact same
  code path (and therefore the exact same cache keys) as embedded use.
* **Caching** — the session's :class:`~repro.service.plan_cache.PlanCache`
  and :class:`~repro.service.result_cache.ResultCache` (one pair per
  attached graph), consulted on every request.  Result keys are
  snapshot-fingerprint-qualified and plan keys name the schemas and
  statistics they were computed from, so result-cache hits are served
  without the execution lock and mutations never purge anything.
* **Mutations** — :meth:`add_edges` / :meth:`remove_edges` forward to the
  session's mutation API, which commits a copy-on-write successor
  snapshot and atomically swaps the graph's head; in-flight queries keep
  reading the snapshot they pinned.
* **Multi-graph** — ``submit(..., graph="yago")`` scopes a request to a
  graph previously registered with :meth:`Session.attach`: it is planned
  against that graph's head snapshot and lands in that graph's caches,
  so one service instance serves many datasets.
* **Timeouts** — a per-query deadline (``timeout`` seconds from
  submission) maps to the benchmark harness's ``failed`` status: queries
  that exceed it while queued are not executed at all, and queries (hits
  included) answered after it are reported failed.
* **Metrics** — every admission, rejection and served request is counted
  straight into the process registry (:func:`~repro.obs.metrics.get_registry`):
  ``repro_service_submitted_total``, ``repro_service_rejected_total``,
  ``repro_service_requests_total{graph,status}`` and the
  ``repro_service_latency_seconds`` / ``repro_service_queue_wait_seconds``
  histograms, which ``/metrics`` renders.

Typical use::

    from repro import Session, QueryService

    session = Session(graph, num_workers=4)
    with QueryService(session, max_in_flight=4) as service:
        future = service.submit("?x,?y <- ?x knows+ ?y")
        served = future.result()
        print(served.status, len(served.result.relation))
"""

from __future__ import annotations

import contextvars
import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..check.sanitizer import ordered_lock
from ..data.snapshot import DEFAULT_GRAPH
from ..errors import (AnalysisError, ReproError, ServiceError,
                      ServiceOverloadError)
from ..obs import tracing
from ..obs.metrics import get_registry
from .plan_cache import PlanCache
from .result_cache import ResultCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..algebra.terms import Term
    from ..query.ast import UCRPQ
    from ..session.session import QueryResult, Session

#: Serving statuses; the strings match the benchmark harness's run
#: statuses so served results drop into the same reporting.
OK = "ok"
FAILED = "failed"
#: Strict-mode admission verdict: the query never reached the optimizer
#: because static analysis found errors (see :attr:`ServedResult.diagnostics`).
REJECTED = "rejected"


class _Unbounded:
    """Sentinel: explicitly *no* deadline, even when a default is set.

    ``submit(timeout=None)`` means "use the service default", which left
    no way to opt out of a configured ``default_timeout``.  Pass
    ``timeout=UNBOUNDED`` to run without any deadline.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "UNBOUNDED"


#: Pass as ``timeout=`` to disable the deadline regardless of the
#: service's ``default_timeout``.
UNBOUNDED = _Unbounded()

#: Default number of queries processed concurrently.
DEFAULT_MAX_IN_FLIGHT = 2
#: Default bound of the admission queue.
DEFAULT_QUEUE_CAPACITY = 64

_SHUTDOWN = object()


@dataclass
class ServedResult:
    """Everything the service reports about one query."""

    query_text: str
    status: str
    result: "QueryResult | None" = None
    detail: str = ""
    #: Name of the graph the query was actually served against (the
    #: submission's ``graph=`` or the handle's own scope; ``None`` only
    #: for requests that failed before reaching a graph).
    graph: str | None = None
    #: ``True``/``False`` when the cache was consulted, ``None`` otherwise.
    plan_cache_hit: bool | None = None
    result_cache_hit: bool | None = None
    queue_wait_seconds: float = 0.0
    #: Time spent planning + executing (excludes the queue wait).
    service_seconds: float = 0.0
    #: End-to-end latency: submission to completion.
    latency_seconds: float = 0.0
    #: Structured analyzer findings (``Diagnostic.to_dict()`` payloads).
    #: Populated when a strict-mode service rejects the query
    #: (``status == REJECTED``); empty otherwise.
    diagnostics: tuple = ()

    @property
    def succeeded(self) -> bool:
        return self.status == OK

    @property
    def rows(self) -> int:
        return len(self.result.relation) if self.result is not None else 0


@dataclass
class _Task:
    query: "str | UCRPQ | Term"
    strategy: str | None
    deadline: float | None
    submitted_at: float
    future: Future
    graph: str | None = None
    #: Copy of the submitter's context: the worker serves the request
    #: inside it, so the submitter's active tracer and open span parent
    #: the request's spans — and concurrent requests, each in their own
    #: copy, can never leak spans into one another.
    context: contextvars.Context = field(
        default_factory=contextvars.copy_context)


class QueryService:
    """A concurrent, cached, admission-controlled front end to one session.

    The service does not own the session unless ``own_engine=True``;
    closing the service then also closes the session.  It serves from
    the session's own per-graph caches as they are, so a session warmed
    before the service was built answers its first repeat as a hit.
    """

    def __init__(self, engine: "Session", *,
                 max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
                 queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
                 default_timeout: float | None = None,
                 strict: bool = False,
                 own_engine: bool = False):
        if max_in_flight <= 0:
            raise ServiceError("max_in_flight must be positive")
        if queue_capacity <= 0:
            raise ServiceError("queue_capacity must be positive")
        self.session = engine
        self.default_timeout = default_timeout
        #: Strict mode: statically analyze each query on its first trip
        #: through the plan phase (plan-cache hits skip the analysis) and
        #: reject queries whose report has errors with ``status ==
        #: REJECTED`` and structured :attr:`ServedResult.diagnostics`.
        self.strict = strict
        self._own_engine = own_engine
        self._queue: queue.Queue = queue.Queue(maxsize=queue_capacity)
        self._started_at = time.monotonic()
        #: Deepest the admission queue has ever been (an operator's early
        #: warning that capacity is being approached).  Monotone and
        #: advisory, so the benign read-modify-write race is acceptable.
        self._queue_high_water = 0
        self._closed = False
        self._close_lock = ordered_lock("service.close")
        self._in_flight = 0
        self._in_flight_lock = ordered_lock("service.in-flight")
        self._workers = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"query-service-{index}")
            for index in range(max_in_flight)
        ]
        for worker in self._workers:
            worker.start()

    @property
    def plan_cache(self) -> PlanCache:
        """The plan cache of the session's default graph."""
        return self.session.plan_cache

    @property
    def result_cache(self) -> ResultCache:
        """The result cache of the session's default graph."""
        return self.session.result_cache

    # -- Client API -----------------------------------------------------------

    def submit(self, query: "str | UCRPQ | Term", strategy: str | None = None,
               timeout: "float | None | _Unbounded" = None,
               block: bool = False,
               graph: str | None = None) -> Future:
        """Serve a query; returns a future resolving to a :class:`ServedResult`.

        A plan + result cache hit is answered here, on the calling
        thread: the future comes back already resolved, with a queue
        wait of 0.  It needs no queue slot, so a full queue never
        refuses it, and it is not counted in ``health()["in_flight"]``.
        Anything else is enqueued for a worker.  With ``block=False``
        (the default) a full admission queue rejects the query with
        :class:`ServiceOverloadError`; with ``block=True`` the caller
        waits for a slot (backpressure).  ``timeout`` starts a
        deadline at submission time (defaults to ``default_timeout``;
        pass :data:`UNBOUNDED` to explicitly disable the deadline even
        when a default is configured).  ``graph`` scopes the query to a
        named graph of the session (see :meth:`Session.attach`);
        ``None`` means the default graph.
        """
        if self._closed:
            raise ServiceError("the query service is closed")
        if timeout is UNBOUNDED:
            timeout = None
        elif timeout is None:
            timeout = self.default_timeout
        now = time.perf_counter()
        deadline = now + timeout if timeout is not None else None
        served = self._answer_hit(query, strategy, graph, now, deadline)
        if served is not None:
            future = Future()
            future.set_result(served)
            return future
        task = _Task(query=query, strategy=strategy, deadline=deadline,
                     submitted_at=now, future=Future(), graph=graph)
        try:
            self._queue.put(task, block=block)
        except queue.Full:
            get_registry().counter("repro_service_rejected_total").inc()
            raise ServiceOverloadError(
                f"admission queue full ({self._queue.maxsize} queued)") from None
        depth = self._queue.qsize()
        if depth > self._queue_high_water:
            self._queue_high_water = depth
        if self._closed:
            # close() may have finished between the check above and the put:
            # the task could sit behind the shutdown markers (or in an
            # already-drained queue) with nobody left to resolve its future.
            # Claim it; if a worker or the close-drain got there first the
            # claim fails and their outcome stands.
            if task.future.set_running_or_notify_cancel():
                task.future.set_exception(
                    ServiceError("the query service is closed"))
            raise ServiceError("the query service is closed")
        get_registry().counter("repro_service_submitted_total").inc()
        return task.future

    def batch(self, queries, strategy: str | None = None,
              timeout: float | None = None) -> list[ServedResult]:
        """Submit many queries at once and wait for all of them (in order)."""
        futures = [self.submit(query, strategy=strategy, timeout=timeout,
                               block=True)
                   for query in queries]
        return [future.result() for future in futures]

    # -- Health ----------------------------------------------------------------

    def health(self) -> dict[str, object]:
        """Operational health of the service (the future ``/health`` body).

        Reports admission-queue depth and capacity, how many requests the
        workers are serving right now and the last committed snapshot
        version of every attached graph.  Cheap enough to poll: every
        field is a counter or a dictionary lookup — no locks that
        queries contend on.
        """
        with self._in_flight_lock:
            in_flight = self._in_flight
        session = self.session
        versions = {name: session.graph(name).snapshot().version
                    for name in session.graphs()}
        uptime = time.monotonic() - self._started_at
        registry = get_registry()
        registry.gauge("repro_service_uptime_seconds").set(uptime)
        registry.gauge("repro_service_queue_high_water").set(
            self._queue_high_water)
        return {
            "status": "closed" if self._closed else "ok",
            "uptime_seconds": uptime,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self._queue.maxsize,
            "queue_high_water": self._queue_high_water,
            "in_flight": in_flight,
            "workers": len(self._workers),
            "last_commit_version": versions,
        }

    # -- Mutations ------------------------------------------------------------

    def add_edges(self, label: str, pairs,
                  graph: str | None = None) -> tuple[str, ...]:
        """Add edges through the session (atomic snapshot commit).

        Never blocks behind running queries and never purges caches:
        the new head snapshot simply keys new cache entries.
        """
        return self._scope(graph).add_edges(label, pairs)

    def remove_edges(self, label: str, pairs,
                     graph: str | None = None) -> tuple[str, ...]:
        """Remove edges through the session (atomic snapshot commit)."""
        return self._scope(graph).remove_edges(label, pairs)

    def _scope(self, graph: str | None):
        """The session (view) a request or mutation addresses."""
        return self.session if graph is None else self.session.graph(graph)

    # -- Worker side -----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            task = self._queue.get()
            try:
                if task is _SHUTDOWN:
                    return
                # Serve inside the submitter's context copy (trace
                # propagation; see _Task.context).
                task.context.run(self._process, task)
            finally:
                self._queue.task_done()

    def _process(self, task: _Task) -> None:
        if not task.future.set_running_or_notify_cancel():
            return
        with self._in_flight_lock:
            self._in_flight += 1
        try:
            self._process_admitted(task)
        finally:
            with self._in_flight_lock:
                self._in_flight -= 1

    def _process_admitted(self, task: _Task) -> None:
        started = time.perf_counter()
        queue_wait = started - task.submitted_at
        if task.deadline is not None and started > task.deadline:
            served = ServedResult(
                query_text=str(task.query), status=FAILED,
                detail=f"timed out after {queue_wait:.3f}s in the admission "
                       f"queue", queue_wait_seconds=queue_wait)
        else:
            # Everything that can raise — including coercing the
            # submission into a handle (e.g. a Query built on a different
            # session) — runs inside the guard, so a bad submission fails
            # its own future instead of killing the worker thread.
            try:
                handle = self._handle(task.query, task.graph)
                served = self._serve(handle, task, queue_wait)
            except AnalysisError as error:
                served = ServedResult(
                    query_text=str(task.query), status=REJECTED,
                    detail=str(error), graph=task.graph,
                    diagnostics=tuple(d.to_dict()
                                      for d in error.diagnostics),
                    queue_wait_seconds=queue_wait)
            except ReproError as error:
                served = ServedResult(query_text=str(task.query),
                                      status=FAILED, detail=str(error),
                                      graph=task.graph,
                                      queue_wait_seconds=queue_wait)
            except BaseException as error:  # pragma: no cover - defensive
                task.future.set_exception(error)
                return
        task.future.set_result(_finish(served, started, task.deadline))

    def _handle(self, query, graph: str | None):
        """The lazy handle a submission is served as, in its graph."""
        scope = self._scope(graph)
        handle = scope.as_query(query)
        if graph is not None and handle.session.graph_name != scope.graph_name:
            # A pre-built handle carries its own graph scope; a
            # conflicting graph= would silently serve the wrong dataset
            # under the requested graph's name.
            raise ServiceError(
                f"the submitted handle is scoped to graph "
                f"{handle.session.graph_name!r}; it cannot be served as "
                f"graph {graph!r}")
        return handle

    def _answer_hit(self, query, strategy: str | None, graph: str | None,
                    submitted_at: float,
                    deadline: float | None) -> ServedResult | None:
        """Serve a plan + result cache hit on the calling thread, or ``None``.

        The lookup-only probe (:meth:`Query.cached_result`) against the
        head: a hit is answered here, without a queue slot or a worker,
        and counted as :meth:`_process_admitted` counts a served request
        (a queue wait of 0).  Anything else — a miss, a partial miss, a
        Datalog or prepared handle, a conflicting ``graph=`` or any
        :class:`ReproError` on the way — answers ``None`` and is queued,
        so errors keep the queued path's shape.
        """
        try:
            handle = self._handle(query, graph)
            probe = getattr(handle, "cached_result", None)
            result = probe(strategy) if probe is not None else None
        except ReproError:
            return None
        if result is None:
            return None
        served_graph = handle.session.graph_name
        # Opened after the probe: a miss gets its span from the worker
        # that serves it, so every request has exactly one.
        with tracing.span("service.request", graph=served_graph) as span:
            if span.enabled:
                span.set_attribute("rows", len(result.relation))
            served = ServedResult(query_text=handle.describe(), status=OK,
                                  result=result, plan_cache_hit=True,
                                  result_cache_hit=True, graph=served_graph)
        get_registry().counter("repro_service_submitted_total").inc()
        return _finish(served, submitted_at, deadline)

    def _serve(self, handle, task: _Task, queue_wait: float) -> ServedResult:
        """One request through the session's shared staged pipeline.

        Delegates to :meth:`Query.run_once`, the un-memoized serving
        path: the handle's own default strategy and (for prepared
        bindings) its shared template plan are honored, ``task.strategy``
        takes precedence when given, and the session caches are consulted
        afresh per request against the head snapshot captured at the
        start of the call.  The plan phase and result-cache hits run
        concurrently across workers with no lock at all; only cache-miss
        executions serialize on the session's execution lock.
        """
        with tracing.span("service.request",
                          graph=handle.session.graph_name) as request_span:
            if hasattr(handle, "run_once"):
                result, plan_hit, result_hit = handle.run_once(
                    task.strategy, check=self.strict)
            else:
                # Datalog baseline handles have no serving path (and no
                # plan/result caches); evaluate them directly.  Strict
                # mode still vets the translated program first.
                if self.strict:
                    handle.check().raise_if_errors()
                result = handle.collect()
                plan_hit = result_hit = None
            if request_span.enabled:
                request_span.set_attribute("rows", len(result.relation))
        # Attribute by the graph actually served: a pre-built handle
        # scoped to a named graph carries its scope even when submitted
        # without graph=.
        return ServedResult(query_text=handle.describe(), status=OK,
                            result=result, plan_cache_hit=plan_hit,
                            result_cache_hit=result_hit,
                            graph=handle.session.graph_name,
                            queue_wait_seconds=queue_wait)

    # -- Lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drain queued queries, stop the workers, optionally close the session.

        Queued queries submitted before ``close`` are still served (the
        shutdown markers sit behind them in the queue); new submissions are
        rejected immediately.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(_SHUTDOWN, block=True)
        for worker in self._workers:
            worker.join()
        # A submit racing with close can slip a task in behind the shutdown
        # markers; fail it rather than leaving its future unresolved.
        while True:
            try:
                task = self._queue.get_nowait()
            except queue.Empty:
                break
            if task is not _SHUTDOWN and task.future.set_running_or_notify_cancel():
                task.future.set_exception(
                    ServiceError("the query service is closed"))
            self._queue.task_done()
        if self._own_engine:
            self.session.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"QueryService(workers={len(self._workers)}, "
                f"queue={self._queue.maxsize})")


def _finish(served: ServedResult, started: float,
            deadline: float | None) -> ServedResult:
    """Time, deadline-check and count one served request.

    ``started`` is when service began (a worker's dequeue, or the
    submission for a hit answered on the calling thread).  An answer
    ready after its deadline is reported failed: a late answer is a
    timeout to its client.
    """
    finished = time.perf_counter()
    served.service_seconds = finished - started
    served.latency_seconds = served.queue_wait_seconds + served.service_seconds
    if deadline is not None and served.status == OK and finished > deadline:
        served.status = FAILED
        served.detail = (f"deadline exceeded: served in "
                         f"{served.latency_seconds:.3f}s")
    registry = get_registry()
    registry.counter("repro_service_requests_total",
                     graph=served.graph or DEFAULT_GRAPH,
                     status=served.status).inc()
    registry.histogram("repro_service_latency_seconds") \
        .observe(served.latency_seconds)
    registry.histogram("repro_service_queue_wait_seconds") \
        .observe(served.queue_wait_seconds)
    return served
