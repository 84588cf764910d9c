"""The five workloads: data, operations, and how one operation runs.

A workload is a seeded, deterministic list of operations; a round runs
every one of them once, in an order drawn from the seed and the round
number, and leaves the database as it found it.  Every workload reads
the same merged database (Yago-like + Uniprot-like + a two-label random
graph) and drives the program through its public entry points with
every knob at its default: 4 simulated workers, the serial executor,
strategy ``auto``, synchronous view maintenance, one closed-loop client.

The seed decides what a user could vary without changing how much is
asked of the system: the order of the operations, the constants bound
into the prepared templates, the edges written.  The database and the
number of times each query appears do not depend on it, because runs at
different seeds are compared with each other: were the closures twice as
large at one seed, no bound on the spread between seeds could be kept.

The order changes from round to round because it matters more than it
should: what an operation costs depends on what ran before it (where the
collector's passes fall, what is still in the processor's caches).  Two
fixed orders of the same 300 requests differed by 7 % in throughput, two
orders of the same 15 streams by 40 % in median latency, each repeating
to 2 % run after run.  A single fixed order would make every number a
property of that order; the median over differently ordered rounds is
a property of the operations.

Why each workload exists is recorded next to its schedule below and, in
one line, in ``BENCHMARK.json``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro import QueryService, Session
from repro.algebra.kernels import KernelProgramCache
from repro.cost.selection import rank_plans
from repro.datasets import erdos_renyi_graph, uniprot_graph, yago_like_graph
from repro.distributed.plans import PGLD
from repro.net import HttpServer, ServerThread
from repro.net.client import ServiceClient
from repro.net.protocol import json_body
from repro.obs.metrics import get_registry
from repro.workloads.uniprot_queries import uniprot_queries
from repro.workloads.yago_queries import yago_queries

from .spans import OP, PROBE, SpanRecorder

# Operation kinds.
QUERY = "query"      # in-process Query.run_once, caches bypassed
BIND = "bind"        # in-process prepared binding, plan cache on
HTTP = "http"        # POST /v1/query
STREAM = "stream"    # POST /v1/query/stream, all pages
ADD = "add"          # POST /v1/graphs/default/edges {"add": ...}
REMOVE = "remove"    # POST /v1/graphs/default/edges {"remove": ...}
WRITES = (ADD, REMOVE)

# Database states an operation can observe (http-rw only leaves BASE).
BASE = "base"
ADDED = "added"

TRANSITIVE_CLOSURE = "?x,?y <- ?x a1+ ?y"
WRITE_LABEL = "isLocatedIn"
GRAPH = "default"


@dataclass(frozen=True)
class Op:
    kind: str
    #: Query text, prepared template, or (for writes) the edge label.
    text: str
    #: The bound constant of a BIND, the edge pairs of a write.
    args: tuple = ()
    strategy: str | None = None
    state: str = BASE

    @property
    def oracle_key(self) -> tuple:
        """Identity of the expected answer: query, binding, database state."""
        return (self.text, self.args, self.state)


@dataclass
class Dataset:
    database: dict
    #: Kept because the Uniprot query constants are chosen per graph.
    uniprot: object


#: Generator seed of the database, the same for every ``--seed``.
DATA_SEED = 7


def build_dataset() -> Dataset:
    """The merged database (relations of equal name are unioned)."""
    uniprot = uniprot_graph(num_edges=5000, seed=DATA_SEED + 4)
    graphs = (yago_like_graph(scale=400, seed=DATA_SEED), uniprot,
              erdos_renyi_graph(300, num_edges=900, seed=DATA_SEED + 1,
                                labels=("a1", "a2")))
    database: dict = {}
    for graph in graphs:
        for name, relation in graph.relations().items():
            database[name] = (relation if name not in database
                              else database[name].union(relation))
    return Dataset(database=database, uniprot=uniprot)


def _query_texts(data: Dataset) -> dict[str, str]:
    texts = {f"Y{q.qid}": q.text for q in yago_queries()}
    texts.update({f"U{q.qid}": q.text for q in uniprot_queries(data.uniprot)})
    return texts


# -- Schedules ---------------------------------------------------------------------


def recursive_cold(data: Dataset, seed: int) -> list[Op]:
    """The paper's setting: parse, rewrite, rank, distributed fixpoint.

    Plan and result caches are bypassed, so every operation pays the
    whole pipeline; two queries are also forced to the global-loop plan
    so that both physical plans run.
    """
    texts = _query_texts(data)
    auto = [texts[q] for q in ("YQ8", "YQ9", "YQ15", "UQ26", "UQ43", "UQ46")]
    auto.append(TRANSITIVE_CLOSURE)
    forced = [texts["YQ9"], texts["UQ46"]]
    return ([Op(QUERY, text) for text in auto]
            + [Op(QUERY, text, strategy=PGLD) for text in forced])


BIND_TEMPLATES = (
    # (template, label whose nodes supply the constant, column of that label)
    ("?y <- :c hasChild+ ?y", "hasChild", 0),
    ("?y <- :c isLocatedIn+ ?y", "isLocatedIn", 0),
    ("?x <- ?x isLocatedIn+ :c", "isLocatedIn", 1),
    ("?y <- :c isConnectedTo+ ?y", "isConnectedTo", 0),
    ("?x <- :c influences+ ?x", "influences", 0),
    ("?x <- :c (hasWonPrize/-hasWonPrize)+ ?x", "hasWonPrize", 0),
    ("?y <- :c (enc/-enc)+ ?y", "enc", 0),
    ("?y <- :c int+ ?y", "int", 0),
)
BIND_OPS = 100


def bind_selective(data: Dataset, seed: int) -> list[Op]:
    """Prepared templates bound to seeded constants, plan cache on.

    Planning is a cache hit and each fixpoint touches few rows, so the
    fixed cost of one execution dominates: bind, kernel bind, dictionary
    encode/decode, cluster set-up.
    """
    rng = random.Random(seed)
    nodes = [sorted({row[column] for row in data.database[label].rows},
                    key=repr)
             for _, label, column in BIND_TEMPLATES]
    ops = []
    for index in range(BIND_OPS):
        slot = index % len(BIND_TEMPLATES)
        ops.append(Op(BIND, BIND_TEMPLATES[slot][0],
                      args=(rng.choice(nodes[slot]),)))
    return ops


#: Most popular first.  Result sizes run from 4 to 21 615 rows; the ranks
#: are such that the 90th percentile of a round falls among the 14
#: requests for one 7 222-row result (UQ46) and not between two results
#: of different size, where it would jump with every reordering.
HOT_QUERIES = ("YQ1", "UQ45", "YQ16", "UQ49", "YQ20", "UQ46", "YQ5", "UQ42",
               "YQ25", "UQ26", "YQ10", "UQ43", "YQ2", "YQ22", "YQ8", "YQ9")
HOT_OPS = 300
ZIPF_EXPONENT = 1.1


def zipf_counts(ranks: int, total: int, exponent: float) -> list[int]:
    """How often each rank appears in a trace of ``total`` draws.

    The expected Zipf frequencies, rounded so that they sum to ``total``
    (largest remainders first): the popularity skew of a drawn trace
    without its sampling noise.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(ranks)]
    shares = [total * weight / sum(weights) for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(ranks), key=lambda r: counts[r] - shares[r])
    for rank in by_remainder[:total - sum(counts)]:
        counts[rank] += 1
    return counts


def http_hot(data: Dataset, seed: int) -> list[Op]:
    """A Zipf trace over 16 cached queries through ``POST /v1/query``.

    The engine does nothing; what is left is the network tier, the
    service queue and the per-response row sort and JSON encoding.
    """
    texts = _query_texts(data)
    counts = zipf_counts(len(HOT_QUERIES), HOT_OPS, ZIPF_EXPONENT)
    return [Op(HTTP, texts[qid])
            for qid, count in zip(HOT_QUERIES, counts) for _ in range(count)]


STREAM_PASSES = 5


def http_stream(data: Dataset, seed: int) -> list[Op]:
    """Three large cached results pulled through the ndjson stream.

    The same network tier used differently: chunked batches, page
    ordering, per-batch encoding.
    """
    texts = _query_texts(data)
    large = (TRANSITIVE_CLOSURE, texts["YQ15"], texts["UQ43"])
    return [Op(STREAM, text) for _ in range(STREAM_PASSES) for text in large]


RW_PAIRS = 4
RW_READS = 10


def _reachable(edges: dict, start) -> set:
    """Nodes reachable from ``start`` over one or more ``edges``."""
    seen: set = set()
    stack = [start]
    while stack:
        for node in edges.get(stack.pop(), ()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def _writable_pairs(data: Dataset) -> list[tuple]:
    """New ``isLocatedIn`` edges the workload may add and remove again.

    A written edge places a leaf of the containment hierarchy (a node
    nothing is located in) inside one more container, and gives the leaf
    no trading partner (``isLocatedIn+/dealsWith+``) it did not have.
    The second condition keeps clear of a defect of the view maintainer:
    removing the only edge through which a node reached a cycle of
    ``dealsWith`` leaves that node's rows in the maintained Yago Q8
    (see "Found while building" in README.md), and the contract wants
    workloads on which no operation fails.
    """
    adjacency: dict[str, dict] = {}
    for label in (WRITE_LABEL, "dealsWith"):
        edges = adjacency[label] = {}
        for src, trg in data.database[label].rows:
            edges.setdefault(src, []).append(trg)
    located, deals = adjacency[WRITE_LABEL], adjacency["dealsWith"]

    def partners(node) -> set:
        return set().union(*(_reachable(deals, container)
                             for container in _reachable(located, node)))

    existing = data.database[WRITE_LABEL].rows
    targets = sorted({trg for _, trg in existing})
    leaves = sorted(set(located) - set(targets))
    through = {trg: _reachable(deals, trg) | partners(trg) for trg in targets}
    return [(leaf, trg) for leaf in leaves
            for had in [partners(leaf)] for trg in targets
            if (leaf, trg) not in existing and through[trg] <= had]


def http_rw(data: Dataset, seed: int) -> list[Op]:
    """Commits beside reads: add edges, read, remove them, read.

    Three of the five read queries depend on the written label, so each
    commit maintains their cached results (insert-resume, then DRed).
    """
    texts = _query_texts(data)
    reads = (f"?x,?y <- ?x {WRITE_LABEL}+ ?y", texts["YQ8"], texts["YQ4"],
             "?x,?y <- ?x hasChild+ ?y", texts["UQ46"])
    pairs = tuple(random.Random(seed).sample(_writable_pairs(data),
                                             RW_PAIRS))

    def read_ops(state: str) -> list[Op]:
        return [Op(HTTP, reads[index % len(reads)], state=state)
                for index in range(RW_READS)]

    return ([Op(ADD, WRITE_LABEL, args=pairs, state=ADDED)]
            + read_ops(ADDED)
            + [Op(REMOVE, WRITE_LABEL, args=pairs)]
            + read_ops(BASE))


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``(data, seed) -> list[Op]``: the operations of one round.
    operations: object
    #: Whether operations go through an HTTP server in this process.
    served: bool


def arrange(ops: list[Op], seed: int, round_index: int) -> list[Op]:
    """The order in which one round runs ``ops``.

    Reads are shuffled; a write stays where it is, with the reads of
    each side of it on that side, so the state every read observes is
    the one its oracle key names.
    """
    rng = random.Random(1_000_003 * seed + round_index)
    arranged: list[Op] = []
    reads: list[Op] = []
    for op in [*ops, None]:
        if op is None or op.kind in WRITES:
            rng.shuffle(reads)
            arranged += reads
            reads = []
            if op is not None:
                arranged.append(op)
        else:
            reads.append(op)
    return arranged


WORKLOADS = {w.name: w for w in (
    Workload("recursive-cold", recursive_cold, served=False),
    Workload("bind-selective", bind_selective, served=False),
    Workload("http-hot", http_hot, served=True),
    Workload("http-stream", http_stream, served=True),
    Workload("http-rw", http_rw, served=True),
)}


# -- Running one operation ----------------------------------------------------------


@dataclass
class State:
    """The program objects one set-up builds (and one close tears down)."""

    session: Session
    service: QueryService | None = None
    running: ServerThread | None = None
    client: ServiceClient | None = None
    prepared: dict = field(default_factory=dict)
    #: Side sessions the traced pass commits to (http-rw only).
    twin_service: QueryService | None = None
    twin_plain: Session | None = None

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.running is not None:
            self.running.stop()      # closes the service and the session
        else:
            self.session.close()
        if self.twin_service is not None:
            self.twin_service.close()
        if self.twin_plain is not None:
            self.twin_plain.close()


def construct(workload: Workload, data: Dataset, ops: list[Op]) -> State:
    session = Session(data.database)
    state = State(session=session)
    for op in ops:
        if op.kind == BIND and op.text not in state.prepared:
            state.prepared[op.text] = session.prepare(op.text)
    if workload.served:
        state.service = QueryService(session, own_engine=True)
        state.running = ServerThread(
            HttpServer(state.service, own_service=True)).start()
        state.client = ServiceClient("127.0.0.1", state.running.port,
                                     timeout=120.0)
    return state


def distinct(ops: list[Op]) -> list[Op]:
    """``ops`` without repeats, order kept (what set-up warms)."""
    return list(dict.fromkeys(ops))


def warm(state: State, ops: list[Op]) -> list:
    """One operation per distinct entry of ``ops``; returns their results."""
    return [execute(state, op) for op in distinct(ops)]


def _stream(client: ServiceClient, text: str) -> tuple[list, float]:
    rows = []
    first_at = None
    for row in client.stream_rows(text):
        if first_at is None:
            first_at = time.perf_counter()
        rows.append(row)
    return rows, first_at


def _write(client: ServiceClient, op: Op) -> dict:
    pairs = [list(pair) for pair in op.args]
    if op.kind == ADD:
        return client.add_edges(GRAPH, op.text, pairs)
    return client.remove_edges(GRAPH, op.text, pairs)


def execute(state: State, op: Op):
    """Run one operation the way a user would; returns its raw result."""
    if op.kind == QUERY:
        return state.session.ucrpq(op.text, op.strategy).run_once(
            use_plan_cache=False, use_result_cache=False)[0]
    if op.kind == BIND:
        return state.prepared[op.text].bind(c=op.args[0]).run_once(
            use_plan_cache=True, use_result_cache=False)[0]
    if op.kind == HTTP:
        return state.client.query(op.text)
    if op.kind == STREAM:
        return _stream(state.client, op.text)
    return _write(state.client, op)


# -- The traced replay ----------------------------------------------------------------
#
# Each operation is replayed as calls into the public functions of the
# layers it crosses, each call inside a span.  Spans under OP add up to
# the operation; spans under PROBE measure a layer on its own, beside
# the operation (the same plan evaluated centrally, the same query
# submitted in process, the same commit without view maintenance).

_REGISTRY_COUNTS = {
    "kernel_compiles": "repro_kernel_compiles_total",
    "kernel_reuses": "repro_kernel_reuses_total",
    "encode_ms": "repro_columnar_encode_ms_total",
}


def _registry_counts() -> dict[str, float]:
    registry = get_registry()
    return {name: registry.counter(metric).value
            for name, metric in _REGISTRY_COUNTS.items()}


def _traced_execute(session, rec, term, strategy, snapshot, kernel_cache):
    before = _registry_counts()
    with rec.span("distributed.execute") as span:
        result = session.execute_term(term, strategy=strategy, optimize=False,
                                      snapshot=snapshot,
                                      kernel_cache=kernel_cache)
    after = _registry_counts()
    metrics = result.metrics
    span.counts.update(
        {name: after[name] - before[name] for name in before},
        tuples_shuffled=metrics.tuples_shuffled,
        tuples_broadcast=metrics.tuples_broadcast,
        tasks_launched=metrics.tasks_launched,
        global_iterations=metrics.global_iterations,
        local_iterations=metrics.local_iterations,
        index_builds=metrics.index_builds,
        index_reuses=metrics.index_reuses,
        task_ms=1000.0 * sum(metrics.task_seconds_per_worker.values()),
        rows_out=len(result.relation))
    return result


def _probe_evaluate(session, rec, term, snapshot) -> None:
    with rec.span(PROBE), rec.span("algebra.evaluate"):
        session.evaluate_centralized(term, snapshot=snapshot)


def _replay_query(state: State, op: Op, rec: SpanRecorder):
    session = state.session
    snapshot = session.snapshot()
    with rec.span(OP):
        with rec.span("query.parse"):
            ast = session.parse(op.text)
        with rec.span("query.translate"):
            term = session.translate(ast, snapshot=snapshot)
        with rec.span("session.resolve_plan"):
            with rec.span("rewriter.explore") as explore:
                plans = session.rewriter.explore(term, snapshot.schemas)
                explore.counts["plans_explored"] = len(plans)
            with rec.span("cost.rank"):
                best = rank_plans(plans, catalog=snapshot.catalog)[0]
        # A cold plan compiles its kernels afresh, as run_once does.
        result = _traced_execute(session, rec, best.term, op.strategy,
                                 snapshot, KernelProgramCache())
    _probe_evaluate(session, rec, best.term, snapshot)
    return result


def _replay_bind(state: State, op: Op, rec: SpanRecorder):
    session = state.session
    with rec.span(OP):
        with rec.span("session.bind") as bind:
            handle = state.prepared[op.text].bind(c=op.args[0])
            plan = handle.plan()
            bind.counts.update(plan_lookups=1,
                               plan_hits=int(bool(handle.last_plan_cache_hit)))
        snapshot = handle.pinned_snapshot
        result = _traced_execute(
            session, rec, plan.term, None, snapshot,
            plan.kernel_program or KernelProgramCache())
    _probe_evaluate(session, rec, plan.term, snapshot)
    return result


def _probe_session_hit(state: State, text: str, rec: SpanRecorder) -> None:
    """The same cached query, one layer at a time, without the network."""
    session = state.session
    with rec.span("service.submit"):
        state.service.submit(text, block=True).result()
    with rec.span("query.parse"):
        ast = session.parse(text)
    with rec.span("query.translate"):
        term = session.translate(ast)
    with rec.span("session.resolve_plan"):
        plan, _, key = session.resolve_plan(term)
    with rec.span("session.execute_plan_hit"):
        session.execute_plan(plan, plan_key=key)


def _replay_http(state: State, op: Op, rec: SpanRecorder):
    with rec.span(OP):
        with rec.span("net.request") as request:
            payload = state.client.query(op.text)
        timing = payload.get("timing", {})
        latency = timing.get("latency_seconds", 0.0)
        # The server reports how long it held the request, not when; the
        # span is centred in the client-observed interval.
        start = request.start + max(0.0, request.end - request.start
                                    - latency) / 2
        server = rec.add("service.server_latency", start, start + latency,
                         parent=request)
        rec.add("service.queue_wait", start,
                start + timing.get("queue_wait_seconds", 0.0), parent=server)
        cache = payload.get("cache", {})
        for name in ("plan", "result"):
            hit = cache.get(f"{name}_hit")
            request.counts[f"{name}_lookups"] = int(hit is not None)
            request.counts[f"{name}_hits"] = int(bool(hit))
    with rec.span(PROBE):
        _probe_session_hit(state, op.text, rec)
        with rec.span("net.serialize") as serialize:
            serialize.counts["response_bytes"] = len(json_body(payload))
        with rec.span("net.healthz"):
            state.client.health()
    return payload


def _replay_stream(state: State, op: Op, rec: SpanRecorder):
    with rec.span(OP), rec.span("net.request") as request:
        rows, first_at = _stream(state.client, op.text)
        request.counts["stream_rows"] = len(rows)
        if first_at is not None:
            request.counts["first_batch_ms"] = 1000.0 * (first_at
                                                         - request.start)
    with rec.span(PROBE):
        with rec.span("net.serialize"):
            json_body(rows)
        with rec.span("net.healthz"):
            state.client.health()
    return rows, first_at


def _replay_write(state: State, op: Op, rec: SpanRecorder):
    with rec.span(OP), rec.span("net.request") as request:
        payload = _write(state.client, op)
        maintenance = state.session.last_maintenance
        if maintenance is not None:
            request.counts.update(
                {f"maintenance_{name}": count
                 for name, count in maintenance.summary().items()})
    commit = "add_edges" if op.kind == ADD else "remove_edges"
    with rec.span(PROBE):
        with rec.span("service.commit"):
            getattr(state.twin_service, commit)(op.text, op.args)
        with rec.span("session.commit"):
            getattr(state.twin_plain, commit)(op.text, op.args)
    return payload


_REPLAYS = {QUERY: _replay_query, BIND: _replay_bind, HTTP: _replay_http,
            STREAM: _replay_stream, ADD: _replay_write, REMOVE: _replay_write}


def replay(state: State, op: Op, rec: SpanRecorder):
    """Run one operation as traced calls; returns the same raw result."""
    return _REPLAYS[op.kind](state, op, rec)


def build_twins(state: State, data: Dataset, ops: list[Op]) -> None:
    """Side sessions for the commit probes of a workload with writes.

    ``twin_service`` mirrors the served session (same cached reads, so a
    commit maintains the same views); ``twin_plain`` commits with view
    maintenance off.  Their difference is what maintenance costs.
    """
    if not any(op.kind in WRITES for op in ops):
        return
    state.twin_service = QueryService(Session(data.database), own_engine=True)
    for op in distinct(ops):
        if op.kind == HTTP:
            state.twin_service.submit(op.text, block=True).result()
    state.twin_plain = Session(data.database, view_maintenance="off")
