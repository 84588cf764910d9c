"""The asyncio HTTP serving tier over one :class:`QueryService`.

:class:`HttpServer` binds ``asyncio.start_server`` to a
:class:`~repro.service.QueryService` and exposes the session pipeline on
the wire — stdlib only, one process, many concurrent connections:

====== ============================ ===========================================
Method Path                         Purpose
====== ============================ ===========================================
POST   ``/v1/query``                One query, buffered JSON result
POST   ``/v1/query/stream``         Chunked ndjson batches + continuation
                                    tokens (snapshot-pinned pagination)
POST   ``/v1/analyze``              Static analysis: diagnostics, no execution
POST   ``/v1/graphs/{graph}/edges`` Edge mutations through the commit lock
GET    ``/v1/explain``              EXPLAIN ANALYZE as JSON
GET    ``/healthz``                 :meth:`QueryService.health` + server state
GET    ``/metrics``                 Prometheus text from the process registry
====== ============================ ===========================================

Request handling is fully asynchronous: parsing, dispatch and
``/healthz`` run on the event loop; every request that returns query
rows — buffered or streamed — is admitted through
:meth:`QueryService.submit`, so one queue bound, deadline, strict-mode
gate and set of service metrics covers both endpoints.  A plan + result
cache hit is answered by ``submit`` on the loop's own thread, a lookup
with no queue, worker or loop wake-up; any other request runs on the
service's worker threads while the loop awaits its future.  The
remaining blocking session calls (mutations, static analysis, EXPLAIN
ANALYZE, the ``/metrics`` render) run on the loop's default thread-pool
executor.  A result's rows are JSON-encoded once, in canonical order
(:meth:`Relation.encoded_rows`); a ``/v1/query`` body splices them in,
and a stream writes one slice per batch on the loop, yielding between
batches.  A stream failing before its first chunk answers as
``/v1/query`` would.
Every request runs inside an
``http.request`` trace span whose id is echoed in the ``X-Trace-Id``
response header and in the JSON access log, and publishes
``repro_http_*`` metrics into the process registry.

**Tenancy.**  With a :class:`~repro.net.tenancy.TenantRegistry`, every
``/v1/*`` request must carry ``Authorization: Bearer <token>``; the
token maps to named graphs and the tenant's token-bucket rate limit and
max-in-flight quota (breaches answer 429 with ``Retry-After``).  The
ops endpoints stay unauthenticated so probes and scrapers need no
credentials.  Without a registry the server runs open (anonymous tenant,
no quotas).

**Shutdown state machine.**  ``serving → draining → closed``: the first
SIGTERM (or :meth:`shutdown`) closes the listener and answers 503 on
kept-alive connections while in-flight requests — including streaming
responses — run to completion within a bounded grace period; a second
SIGTERM forces the close immediately.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import math
import secrets
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field, replace

from ..data.relation import EncodedRows
from ..errors import (AnalysisError, AuthorizationError, DatasetError,
                      NetworkError, ProtocolError, QuotaExceededError,
                      ReproError, ServiceError, ServiceOverloadError)
from ..obs import tracing
from ..obs.logs import get_logger, log_event
from ..obs.metrics import get_registry
from ..service.server import UNBOUNDED, QueryService
from ..session.query import DatalogQuery, Query
from .protocol import (ChunkedResponseWriter, json_body, read_request,
                       send_response)
from .router import MethodNotAllowed, Router
from .tenancy import ANONYMOUS, Tenant, TenantRegistry

_LOGGER = get_logger("repro.net")

#: Server lifecycle states (see the shutdown state machine above).
SERVING = "serving"
DRAINING = "draining"
CLOSED = "closed"

#: Default bounded grace (seconds) for draining in-flight requests.
DEFAULT_DRAIN_GRACE = 5.0
#: Rows per streamed batch when a request names no ``batch_size``.
DEFAULT_STREAM_BATCH = 256
#: Continuation-token registry bounds: tokens held, and seconds each lives.
DEFAULT_CONTINUATION_CAPACITY = 256
DEFAULT_CONTINUATION_TTL = 300.0

#: Query front-ends a request body may select.
_FRONTENDS = ("ucrpq", "datalog")


@dataclass
class Response:
    """A buffered handler outcome, rendered by the dispatch loop."""

    status: int = 200
    payload: object = None
    headers: tuple[tuple[str, str], ...] = ()
    content_type: str = "application/json"
    #: Pre-encoded body (``/metrics``, a served result's envelope with
    #: its encoded rows spliced in); wins over ``payload``.
    body: bytes | None = None


@dataclass
class _Streamed:
    """A handler already wrote its (chunked) response itself."""

    status: int
    bytes_written: int
    keep_alive: bool = True


@dataclass
class _RequestContext:
    """What a handler may need beyond the parsed request."""

    tenant: Tenant
    writer: asyncio.StreamWriter
    keep_alive: bool
    #: Headers the dispatch loop wants on every response (trace id).
    base_headers: tuple[tuple[str, str], ...]


@dataclass
class _Continuation:
    """One cursor: a result's encoded rows plus the read position.

    Holding the (immutable) encoding is what keeps every page of one
    stream on one snapshot version, whatever commits in between.
    """

    rows: EncodedRows
    offset: int
    snapshot_version: int | None
    tenant: str
    created: float = field(default_factory=time.monotonic)


class HttpServer:
    """HTTP/1.1 front end over one :class:`QueryService` (stdlib asyncio)."""

    def __init__(self, service: QueryService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 tenants: TenantRegistry | None = None,
                 drain_grace: float = DEFAULT_DRAIN_GRACE,
                 own_service: bool = False):
        self.service = service
        self.host = host
        self.port = port
        self.tenants = tenants
        self.drain_grace = drain_grace
        self._own_service = own_service
        self._state = SERVING
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[asyncio.Task] = set()
        self._in_flight_requests = 0
        self._signals = 0
        self._force: asyncio.Event | None = None
        self._closed_event: asyncio.Event | None = None
        #: token -> continuation; insertion-ordered, bounded, TTL-purged.
        self._continuations: dict[str, _Continuation] = {}
        self.router = Router()
        self.router.add("POST", "/v1/query", self._handle_query)
        self.router.add("POST", "/v1/query/stream", self._handle_stream)
        self.router.add("POST", "/v1/analyze", self._handle_analyze)
        self.router.add("POST", "/v1/graphs/{graph}/edges",
                        self._handle_edges)
        self.router.add("GET", "/v1/explain", self._handle_explain)
        self.router.add("GET", "/healthz", self._handle_healthz)
        self.router.add("GET", "/metrics", self._handle_metrics)

    # -- Lifecycle -------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    async def start(self) -> "HttpServer":
        """Bind the listener; ``self.port`` then holds the bound port."""
        self._loop = asyncio.get_running_loop()
        self._force = asyncio.Event()
        self._closed_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._serve_connection, host=self.host, port=self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        log_event(_LOGGER, "server started", host=self.host, port=self.port,
                  tenants=len(self.tenants.tenants) if self.tenants else 0)
        return self

    async def serve_until_closed(self) -> None:
        """Block until :meth:`shutdown` completed (the serve loop body)."""
        await self._closed_event.wait()

    async def run(self) -> None:
        """Start and serve until shut down (the ``serve.py`` entry)."""
        await self.start()
        await self.serve_until_closed()

    def install_signal_handlers(self,
                                loop: asyncio.AbstractEventLoop) -> None:
        """SIGTERM/SIGINT → graceful drain; a second signal forces close."""
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, self._on_signal)

    def _on_signal(self) -> None:
        """First signal starts the drain; the second forces the close.

        Runs on the event loop (``loop.add_signal_handler`` contract), so
        the counter and the force event need no locking.
        """
        self._signals += 1
        if self._signals == 1:
            log_event(_LOGGER, "shutdown signal: draining",
                      grace_seconds=self.drain_grace)
            self._loop.create_task(self.shutdown())
        else:
            log_event(_LOGGER, "second shutdown signal: forcing close")
            self._force.set()

    async def shutdown(self, grace: float | None = None) -> None:
        """Stop accepting, drain with bounded grace, then close.

        Idempotent: a second concurrent call returns once the first
        finishes (set :attr:`_force` — or send a second signal — to make
        the first skip the remaining grace).
        """
        if self._state == CLOSED:
            return
        if self._state == DRAINING:
            await self._closed_event.wait()
            return
        self._state = DRAINING
        self._server.close()
        await self._server.wait_closed()
        grace = self.drain_grace if grace is None else grace
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while (self._in_flight_requests > 0 and not self._force.is_set()
               and loop.time() < deadline):
            with contextlib.suppress(TimeoutError):
                await asyncio.wait_for(self._force.wait(), timeout=0.02)
        forced = self._in_flight_requests > 0
        self._state = CLOSED
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._continuations.clear()
        if self._own_service:
            self.service.close()
        log_event(_LOGGER, "server closed", forced=forced)
        self._closed_event.set()

    # -- Connection loop -------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as error:
                    with contextlib.suppress(Exception):
                        await send_response(
                            writer, error.status,
                            json_body({"error": str(error)}),
                            keep_alive=False)
                    break
                if request is None:
                    break
                if not await self._dispatch(request, writer):
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request, writer) -> bool:
        """One request end to end; returns whether to keep the connection."""
        if self._state != SERVING:
            # Draining: kept-alive connections get a clean 503 + close.
            with contextlib.suppress(Exception):
                await send_response(
                    writer, 503,
                    json_body({"error": "server is draining"}),
                    headers=(("Retry-After", "1"),), keep_alive=False)
            return False
        started = time.perf_counter()
        registry = get_registry()
        self._in_flight_requests += 1
        registry.gauge("repro_http_in_flight").inc()
        route_name = request.path
        tenant_name = "-"
        status = 500
        bytes_out = 0
        keep_alive = request.keep_alive
        admission = None
        trace_id = uuid.uuid4().hex[:16]
        try:
            with tracing.span("http.request", method=request.method,
                              path=request.path) as span:
                if span.enabled:
                    trace_id = span.trace_id
                base_headers = (("X-Trace-Id", trace_id),)
                try:
                    route, params = self.router.resolve(request.method,
                                                        request.path)
                    route_name = route.name
                    tenant = self._authenticate(request)
                    tenant_name = tenant.name
                    if self.tenants is not None \
                            and request.path.startswith("/v1/"):
                        admission = self.tenants.admit(tenant)
                    context = _RequestContext(
                        tenant=tenant, writer=writer, keep_alive=keep_alive,
                        base_headers=base_headers)
                    outcome = await route.handler(request, params, context)
                except asyncio.CancelledError:
                    raise
                except BaseException as error:
                    if isinstance(error, QuotaExceededError):
                        registry.counter("repro_http_rate_limited_total",
                                         tenant=tenant_name).inc()
                    status, payload, extra = _map_error(error)
                    if status >= 500 and not isinstance(error, ReproError):
                        log_event(_LOGGER, "request failed",
                                  path=request.path, error=repr(error))
                    bytes_out = await send_response(
                        writer, status, json_body(payload),
                        headers=base_headers + extra, keep_alive=keep_alive)
                else:
                    if isinstance(outcome, _Streamed):
                        status = outcome.status
                        bytes_out = outcome.bytes_written
                        keep_alive = keep_alive and outcome.keep_alive
                    else:
                        status = outcome.status
                        body = (outcome.body if outcome.body is not None
                                else json_body(outcome.payload))
                        bytes_out = await send_response(
                            writer, status, body,
                            content_type=outcome.content_type,
                            headers=base_headers + outcome.headers,
                            keep_alive=keep_alive)
                if span.enabled:
                    span.set_attribute("status", status)
                    span.set_attribute("tenant", tenant_name)
        except (ConnectionResetError, BrokenPipeError):
            keep_alive = False
        finally:
            if admission is not None:
                admission.release()
            self._in_flight_requests -= 1
            registry.gauge("repro_http_in_flight").dec()
            elapsed = time.perf_counter() - started
            registry.counter("repro_http_requests_total", route=route_name,
                             method=request.method, status=status).inc()
            registry.histogram("repro_http_request_seconds",
                               route=route_name).observe(elapsed)
            log_event(_LOGGER, "http.request", method=request.method,
                      path=request.path, route=route_name, status=status,
                      tenant=tenant_name,
                      duration_seconds=round(elapsed, 6),
                      bytes=bytes_out, trace_id=trace_id)
        return keep_alive

    def _authenticate(self, request) -> Tenant:
        """The request's tenant; ops endpoints stay open to probes."""
        if self.tenants is None or not request.path.startswith("/v1/"):
            return ANONYMOUS
        return self.tenants.authenticate(request.header("authorization"))

    # -- Query endpoints -------------------------------------------------------

    async def _admit(self, handle, body: dict):
        """The one read path: every row-returning request enters here.

        Admission (bounded queue), deadline, strict-mode gate and service
        metrics are :meth:`QueryService.submit`'s.  A plan + result cache
        hit comes back already answered, on the loop's own thread, and is
        read off at once; anything else ran on a service worker and the
        loop awaits its :class:`~repro.service.ServedResult`.
        """
        future = self.service.submit(
            handle, strategy=body.get("strategy") or None,
            timeout=_parse_timeout(body.get("timeout")))
        if future.done():
            # Wrapping a resolved future would still wake the loop
            # through its self-pipe for an answer already in hand.
            return future.result()
        return await asyncio.wrap_future(future)

    async def _handle_query(self, request, params, context) -> Response:
        body = request.json()
        handle = self._build_handle(body, context.tenant)
        return _served_response(await self._admit(handle, body), handle)

    async def _handle_stream(self, request, params,
                             context) -> "_Streamed | Response":
        body = request.json()
        batch_size = _positive_int(body.get("batch_size"),
                                   DEFAULT_STREAM_BATCH, "batch_size")
        limit = _positive_int(body.get("limit"), None, "limit")
        cursor = body.get("cursor")
        if cursor is not None:
            continuation = self._lookup_continuation(cursor, context.tenant)
        else:
            handle = self._build_handle(body, context.tenant)
            if not isinstance(handle, Query):
                raise ProtocolError(
                    "the streaming endpoint serves the ucrpq front-end "
                    "only")
            # Admitted before the chunked head goes out: a rejected,
            # failed or timed-out stream answers as /v1/query does.
            served = await self._admit(handle, body)
            if not served.succeeded:
                return _served_response(served, handle)
            result = served.result
            continuation = _Continuation(
                rows=result.relation.encoded_rows(), offset=0,
                snapshot_version=result.snapshot_version,
                tenant=context.tenant.name)
        rows, offset = continuation.rows, continuation.offset
        total = len(rows)
        end = total if limit is None else min(total, offset + limit)
        get_registry().counter("repro_http_streams_total").inc()
        chunked = ChunkedResponseWriter(context.writer,
                                        headers=context.base_headers,
                                        keep_alive=context.keep_alive)
        await chunked.start()
        keep_alive = context.keep_alive
        try:
            for chunk in _batches(rows, offset, end, batch_size):
                await chunked.write(chunk)
                # drain() does not yield below the socket's high-water
                # mark; other connections get their turn here.
                await asyncio.sleep(0)
            offset = end
            next_cursor = None
            if offset < total:
                next_cursor = self._register_continuation(continuation,
                                                          offset)
            await chunked.write_json({
                "done": True,
                "row_count": total,
                "offset": offset,
                "snapshot_version": continuation.snapshot_version,
                "next_cursor": next_cursor,
            })
            await chunked.finish()
        except (ConnectionResetError, BrokenPipeError):
            keep_alive = False
        return _Streamed(status=200, bytes_written=chunked.bytes_written,
                         keep_alive=keep_alive and chunked.finished)

    async def _handle_analyze(self, request, params, context) -> Response:
        """Static analysis of a query body — diagnostics, no execution.

        Always answers 200 when the analysis itself ran (the verdict is
        in the payload's ``ok`` / ``diagnostics``); parse failures are
        analysis *findings*, not protocol errors.
        """
        body = request.json()
        query_text = body.get("query")
        if not isinstance(query_text, str) or not query_text.strip():
            raise ProtocolError("request body requires a 'query' string")
        frontend = body.get("frontend", "ucrpq")
        if frontend not in _FRONTENDS:
            raise ProtocolError(f"unknown frontend {frontend!r} "
                                f"(supported: {', '.join(_FRONTENDS)})")
        graph = context.tenant.resolve_graph(body.get("graph"))
        scope = self._scope(graph)
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, lambda: scope.analyze(query_text, frontend=frontend))
        payload = report.to_dict()
        payload["graph"] = graph
        payload["frontend"] = frontend
        return Response(200, payload)

    async def _handle_explain(self, request, params, context) -> Response:
        query_text = request.query.get("query")
        if not query_text:
            raise ProtocolError(
                "/v1/explain requires a ?query= parameter")
        graph = context.tenant.resolve_graph(request.query.get("graph"))
        scope = self._scope(graph)
        strategy = request.query.get("strategy") or None
        frontend = request.query.get("frontend", "ucrpq")
        if frontend not in _FRONTENDS:
            raise ProtocolError(f"unknown frontend {frontend!r} "
                                f"(supported: {', '.join(_FRONTENDS)})")
        loop = asyncio.get_running_loop()
        if frontend == "datalog":
            handle = scope.datalog(query_text)
            report = await loop.run_in_executor(None, handle.explain_analyze)
        else:
            handle = scope.ucrpq(query_text)
            report = await loop.run_in_executor(
                None, lambda: handle.explain_analyze(strategy))
        payload = report.to_dict()
        payload["graph"] = graph
        return Response(200, payload)

    # -- Mutation endpoint -----------------------------------------------------

    async def _handle_edges(self, request, params, context) -> Response:
        graph = context.tenant.resolve_graph(params["graph"])
        body = request.json()
        label = body.get("label")
        if not isinstance(label, str) or not label:
            raise ProtocolError("mutation body requires a 'label' string")
        additions = _edge_pairs(body.get("add"), "add")
        removals = _edge_pairs(body.get("remove"), "remove")
        if not additions and not removals:
            raise ProtocolError(
                "mutation body requires 'add' and/or 'remove' pairs")
        scope = self._scope(graph)

        def mutate() -> tuple[tuple[str, ...], int]:
            if additions and removals:
                transaction = scope.transaction()
                transaction.add_edges(label, additions)
                transaction.remove_edges(label, removals)
                touched = transaction.commit()
            elif additions:
                touched = scope.add_edges(label, additions)
            else:
                touched = scope.remove_edges(label, removals)
            return touched, scope.snapshot().version

        loop = asyncio.get_running_loop()
        touched, version = await loop.run_in_executor(None, mutate)
        return Response(200, {
            "graph": graph,
            "label": label,
            "touched": sorted(touched),
            "committed": bool(touched),
            "snapshot_version": version,
        })

    # -- Ops endpoints ---------------------------------------------------------

    async def _handle_healthz(self, request, params, context) -> Response:
        # Lock-light by contract (counters and dictionary lookups): no
        # executor hop, so a probe costs the protocol floor.
        health = self.service.health()
        health["server_state"] = self._state
        health["open_connections"] = len(self._connections)
        healthy = self._state == SERVING and health["status"] == "ok"
        return Response(200 if healthy else 503, health)

    async def _handle_metrics(self, request, params, context) -> Response:
        def render() -> str:
            # health() refreshes the uptime / queue-high-water gauges so
            # a scrape never reads stale values.
            self.service.health()
            return get_registry().render_prometheus()

        loop = asyncio.get_running_loop()
        text = await loop.run_in_executor(None, render)
        return Response(200, body=text.encode("utf-8"),
                        content_type="text/plain; version=0.0.4")

    # -- Shared handler plumbing -----------------------------------------------

    def _scope(self, graph: str):
        """The session view for ``graph`` (404 when not attached)."""
        try:
            return self.service.session.graph(graph)
        except DatasetError as error:
            raise NetworkError(str(error), status=404) from None

    def _build_handle(self, body: dict, tenant: Tenant):
        """Build the (authorized, graph-scoped) handle a body describes."""
        query_text = body.get("query")
        if not isinstance(query_text, str) or not query_text.strip():
            raise ProtocolError("request body requires a 'query' string")
        graph = tenant.resolve_graph(body.get("graph"))
        scope = self._scope(graph)
        frontend = body.get("frontend", "ucrpq")
        if frontend == "datalog":
            return scope.datalog(query_text)
        if frontend == "ucrpq":
            return scope.ucrpq(query_text)
        raise ProtocolError(f"unknown frontend {frontend!r} "
                            f"(supported: {', '.join(_FRONTENDS)})")

    def _register_continuation(self, continuation: _Continuation,
                               offset: int) -> str:
        """A fresh token for the rest of ``continuation`` from ``offset``."""
        now = time.monotonic()
        expired = [token for token, entry in self._continuations.items()
                   if now - entry.created > DEFAULT_CONTINUATION_TTL]
        for token in expired:
            del self._continuations[token]
        while len(self._continuations) >= DEFAULT_CONTINUATION_CAPACITY:
            self._continuations.pop(next(iter(self._continuations)))
        token = secrets.token_urlsafe(16)
        self._continuations[token] = replace(continuation, offset=offset,
                                              created=now)
        return token

    def _lookup_continuation(self, token: str,
                             tenant: Tenant) -> _Continuation:
        continuation = self._continuations.get(token)
        if continuation is None or (time.monotonic() - continuation.created
                                    > DEFAULT_CONTINUATION_TTL):
            self._continuations.pop(token, None)
            raise NetworkError("unknown or expired continuation token",
                               status=410)
        if continuation.tenant != tenant.name:
            raise AuthorizationError(
                "this continuation token belongs to another tenant")
        return continuation

    def __repr__(self) -> str:
        return (f"HttpServer({self.host}:{self.port}, state={self._state}, "
                f"connections={len(self._connections)})")


# -- Module helpers -------------------------------------------------------------


def _parse_timeout(value: object):
    """Body ``timeout`` → submit's: absent = default, 0 = unbounded."""
    if value is None:
        return None
    if isinstance(value, bool):
        raise ProtocolError(f"bad timeout {value!r}")
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"bad timeout {value!r}") from None
    if not 0 <= seconds < math.inf:  # NaN too: no deadline compares to it
        raise ProtocolError("timeout must be finite and >= 0 "
                            "(0 disables the deadline)")
    return UNBOUNDED if seconds == 0 else seconds


def _positive_int(value: object, default: int | None, name: str) -> int:
    if value is None:
        return default
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ProtocolError(f"bad {name} {value!r}")
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ProtocolError(f"bad {name} {value!r}") from None
    if number <= 0:
        raise ProtocolError(f"{name} must be positive")
    return number


def _edge_pairs(value: object, name: str) -> list[tuple]:
    if value is None:
        return []
    if not isinstance(value, list):
        raise ProtocolError(f"'{name}' must be a list of [src, trg] pairs")
    pairs = []
    for item in value:
        # A node id is a JSON scalar: an array or object is not hashable.
        if not isinstance(item, (list, tuple)) or len(item) != 2 \
                or any(isinstance(node, (list, dict)) for node in item):
            raise ProtocolError(
                f"'{name}' must be a list of [src, trg] pairs")
        pairs.append(tuple(item))
    return pairs


def _plan_digest(handle) -> str | None:
    """A short stable identity of the selected logical plan."""
    try:
        if isinstance(handle, Query):
            key = handle.cache_key
        elif isinstance(handle, DatalogQuery):
            key = f"datalog:{handle.describe()}"
        else:  # pragma: no cover - defensive
            return None
    except ReproError:  # pragma: no cover - a failed query has no plan
        return None
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def _served_status(served) -> int:
    if served.succeeded:
        return 200
    detail = served.detail
    if detail.startswith("timed out") or detail.startswith(
            "deadline exceeded"):
        return 504
    return 400


def _served_payload(served, handle) -> dict:
    payload: dict[str, object] = {
        "status": served.status,
        "graph": served.graph,
        "timing": {
            "queue_wait_seconds": round(served.queue_wait_seconds, 6),
            "service_seconds": round(served.service_seconds, 6),
            "latency_seconds": round(served.latency_seconds, 6),
        },
    }
    if not served.succeeded:
        payload["detail"] = served.detail
        if served.diagnostics:
            payload["diagnostics"] = list(served.diagnostics)
        return payload
    result = served.result
    relation = result.relation
    cost = getattr(result, "estimated_cost", None)
    if cost is not None and math.isnan(cost):
        cost = None
    payload.update({
        "columns": list(relation.columns),
        "row_count": len(relation),
        "snapshot_version": getattr(result, "snapshot_version", None),
        "plan": {
            "digest": _plan_digest(handle),
            "cost": cost,
            "plans_explored": getattr(result, "plans_explored", None),
            "physical": list(getattr(result, "physical_strategies", ())),
        },
        "cache": {
            "plan_hit": served.plan_cache_hit,
            "result_hit": served.result_cache_hit,
        },
    })
    return payload


def _served_response(served, handle) -> Response:
    """``/v1/query``'s answer; a success splices in the encoded rows."""
    payload = _served_payload(served, handle)
    if not served.succeeded:
        return Response(_served_status(served), payload)
    rows = served.result.relation.encoded_rows().data
    # Neither half is empty: "cache" sorts before "rows", "status" after.
    head = json_body({k: v for k, v in payload.items() if k < "rows"})
    tail = json_body({k: v for k, v in payload.items() if k > "rows"})
    return Response(200, body=b"".join(
        (head[:-1], b', "rows": ', rows, b", ", tail[1:])))


def _batches(rows: EncodedRows, offset: int, end: int, size: int):
    """Stream lines, ``json_body({"batch", "index", "offset"}) + b"\\n"``,
    with ``size`` rows apiece of ``rows[offset:end]`` spliced in."""
    for index, start in enumerate(range(offset, end, size)):
        batch = rows.slice(start, min(start + size, end))
        yield b"".join((b'{"batch": ', batch,
                        b', "index": %d, "offset": %d}\n' % (index, start)))


def _map_error(error: BaseException
               ) -> tuple[int, dict, tuple[tuple[str, str], ...]]:
    """Exception → (HTTP status, JSON payload, extra headers)."""
    headers: list[tuple[str, str]] = []
    if isinstance(error, NetworkError):
        status = error.status
        payload: dict[str, object] = {"error": str(error)}
        if error.retry_after is not None:
            payload["retry_after_seconds"] = round(error.retry_after, 3)
            headers.append(
                ("Retry-After", str(max(1, math.ceil(error.retry_after)))))
        if isinstance(error, MethodNotAllowed) and error.allowed:
            headers.append(("Allow", ", ".join(error.allowed)))
        return status, payload, tuple(headers)
    if isinstance(error, ServiceOverloadError):
        return 503, {"error": str(error)}, (("Retry-After", "1"),)
    if isinstance(error, ServiceError):
        return 503, {"error": str(error)}, ()
    if isinstance(error, DatasetError):
        return 404, {"error": str(error)}, ()
    if isinstance(error, AnalysisError):
        return 400, {"error": str(error),
                     "diagnostics": [d.to_dict()
                                     for d in error.diagnostics]}, ()
    if isinstance(error, ReproError):
        return 400, {"error": str(error)}, ()
    return 500, {"error": f"internal error: {error!r}"}, ()


class ServerThread:
    """Run an :class:`HttpServer` on its own event loop in a thread.

    What tests, the example and the benchmark use to host a server
    without blocking the calling thread::

        with ServerThread(HttpServer(service)) as running:
            client = ServiceClient("127.0.0.1", running.port)
            ...
    """

    def __init__(self, server: HttpServer):
        self.server = server
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        #: Set when the server thread exits, and by :meth:`stop` when its
        #: shutdown call resolved — whichever comes first.
        self._settled = threading.Event()
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-http-server")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise NetworkError("the server did not start in time")
        if self._error is not None:
            raise NetworkError(
                f"the server failed to start: {self._error!r}")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # pragma: no cover - startup failure
            self._error = error
            self._ready.set()
        finally:
            self._settled.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_closed()

    def signal(self) -> None:
        """Deliver the equivalent of one SIGTERM to the server."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.server._on_signal)

    def stop(self, grace: float | None = None,
             timeout: float = 10.0) -> None:
        """Shut the server down and join its thread; idempotent.

        A shutdown the server started itself (:meth:`signal`) may finish
        between the liveness check and the call below; the coroutine
        then lands on a loop that is being torn down and never runs.
        So this waits for whichever comes first — the shutdown call
        resolving or the thread exiting — and an already-closed server
        is not an error.
        """
        if self._thread is None:
            return
        shutdown = future = None
        if self._loop is not None and self._thread.is_alive():
            shutdown = self.server.shutdown(grace)
            try:
                future = asyncio.run_coroutine_threadsafe(shutdown,
                                                          self._loop)
            except RuntimeError:  # the loop is already closed
                pass
            else:
                future.add_done_callback(lambda _: self._settled.set())
                self._settled.wait(timeout)
        self._thread.join(timeout)
        if future is not None and future.done() and not future.cancelled():
            future.result()
        elif shutdown is not None and not self._thread.is_alive():
            shutdown.close()  # never scheduled: nothing is left to await it

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
