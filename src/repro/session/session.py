"""The :class:`Session`: snapshot-isolated graphs, one staged query pipeline.

A session owns everything a query needs — the cluster, the rewriter, the
execution lock and one or more **named graphs**, each held as an
immutable, versioned :class:`~repro.data.snapshot.DatabaseSnapshot` —
and hands out **lazy query handles** through its front-ends:

* :meth:`Session.ucrpq` — the UCRPQ surface syntax (text or parsed AST),
* :meth:`Session.datalog` — the same queries compiled through the Datalog
  baseline front-end (left-linear recursion, magic sets),
* :meth:`Session.relation` — a programmatic path-expression builder,
* :meth:`Session.term` — raw mu-RA terms (the C7 non-regular workloads),
* :meth:`Session.prepare` — parameterized templates whose bindings share
  one plan-cache entry (see :mod:`repro.session.prepared`).

Every handle exposes the pipeline stages lazily (``.ast``, ``.term``,
``.normalized``, ``.plan()``, ``.explain()``) and executes only when a
terminal action (``collect()``, ``count()``, ``exists()``, ``stream()``)
is invoked::

    from repro import Session
    session = Session(graph, num_workers=4)
    query = session.ucrpq("?x,?y <- ?x knows+ ?y")   # nothing runs yet
    print(query.plan().cost)                          # parse+translate+rank
    rows = query.collect().relation                   # execute

**Data ownership.**  The database behind a session is never edited in
place.  :meth:`add_edges` / :meth:`remove_edges` (or a batched
:meth:`transaction`) build a *successor* snapshot by copy-on-write —
unchanged relations, and therefore their memoized hash indexes, are
shared across versions — and atomically swap the graph's head.  A query
handle pins the head snapshot the first time one of its stages runs, so
``collect()`` / ``stream()`` / a prepared ``bind()`` are repeatable reads
at a well-defined version even while writers commit.  Cache keys name
what an entry was computed from (versions, schemas, statistics), so
mutations never purge caches, and the plan phase and result-cache hits
run entirely outside the execution lock — only physical executions still
serialize on the cluster.

**Multi-graph.**  :meth:`attach` registers additional named graphs and
:meth:`graph` returns a session view scoped to one of them (own head,
own version counters, own plan/result caches; shared cluster, rewriter
and execution lock), so one service instance serves many datasets.
:meth:`read_view` returns a view pinned to the current head for
long-running analyses.
"""

from __future__ import annotations

import time
from collections import ChainMap
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace

from ..algebra.evaluate import Evaluator
from ..algebra.kernels import KernelProgramCache
from ..check.sanitizer import OrderedLock, ordered_lock, ordered_rlock
from ..algebra.terms import Term
from ..algebra.variables import free_variables
from ..cost.selection import rank_plans
from ..data.columnar import columnar_enabled
from ..data.graph import INVERSE_PREFIX, PRED, SRC, TRG, LabeledGraph
from ..data.relation import Relation
from ..data.snapshot import DEFAULT_GRAPH, DatabaseSnapshot
from ..distributed.cluster import ClusterMetrics, SparkCluster
from ..distributed.partitioner import FixpointAnalysis, analyse_fixpoints
from ..distributed.physical import (AUTO, DistributedQueryExecutor,
                                    check_strategy)
from ..errors import (DatasetError, EvaluationError, SchemaError,
                      TransactionError, TranslationError)
from ..obs import tracing
from ..obs.logs import get_logger, log_event
from ..obs.metrics import get_registry
from ..query.ast import UCRPQ
from ..query.classes import classify_query
from ..query.parser import parse_query
from ..query.translate import translate_query
from ..rewriter.engine import MuRewriter
from ..rewriter.normalize import canonicalize
from ..service.plan_cache import CachedPlan, PlanCache, PlanKey
from ..service.result_cache import ResultCache, ResultKey
from .builder import PathBuilder
from .prepared import PreparedQuery
from .query import DatalogQuery, FrontEnd, Query, check_labels

#: Module logger (JSON-lines once ``repro.obs.configure_logging()`` ran).
_LOGGER = get_logger("repro.session")


@dataclass
class QueryResult:
    """Everything produced by one query execution."""

    relation: Relation
    selected_plan: Term
    original_plan: Term
    plans_explored: int
    estimated_cost: float
    physical_strategies: tuple[str, ...]
    metrics: ClusterMetrics
    elapsed_seconds: float
    query_classes: frozenset[str] = field(default_factory=frozenset)
    #: Version of the snapshot the execution read (``None`` only for
    #: results produced before this field existed).  The serving tier
    #: reports it so clients know exactly which committed state a
    #: response observed.
    snapshot_version: int | None = None

    def __len__(self) -> int:
        return len(self.relation)

    def as_of(self, version: int) -> "QueryResult":
        """This result served from the snapshot at ``version``.

        A cached result outlives commits that leave its inputs alone, so
        a lookup at a later head reports that head's version.  The copy
        is shallow (relation and encoded rows shared); ``self`` when the
        stamp already matches.
        """
        if self.snapshot_version == version:
            return self
        return replace(self, snapshot_version=version)

    def summary(self) -> dict[str, object]:
        """Flat dictionary used by the benchmark reports."""
        summary = {
            "rows": len(self.relation),
            "plans_explored": self.plans_explored,
            "estimated_cost": round(self.estimated_cost, 1),
            "physical": ",".join(self.physical_strategies) or "central",
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "classes": ",".join(sorted(self.query_classes)),
        }
        summary.update(self.metrics.summary())
        return summary


@dataclass
class GraphState:
    """The mutable cell of one named graph: head pointer + caches.

    The *snapshots* are immutable; this cell is the only mutable thing —
    the head reference is swapped atomically under :attr:`commit_lock`
    by commits, and the version-keyed caches are appended to by readers.
    Session views of the same graph all share one ``GraphState``.
    """

    name: str
    head: DatabaseSnapshot
    plan_cache: PlanCache
    result_cache: ResultCache
    commit_lock: OrderedLock = field(
        default_factory=lambda: ordered_rlock("session.commit"))


class Transaction:
    """A batch of edge mutations committed as one snapshot.

    Mutations recorded through :meth:`add_edges` / :meth:`remove_edges`
    are buffered; :meth:`commit` validates and applies them all against
    the head at commit time and swaps in a **single** successor snapshot
    (one version bump), or applies nothing at all if any of them is
    invalid.  :meth:`rollback` discards the buffer.  As a context
    manager the transaction commits on a clean exit and rolls back when
    the body raises::

        with session.transaction() as txn:
            txn.add_edges("knows", [("a", "b")])
            txn.remove_edges("worksAt", [("a", "cnrs")])
        # one commit, one new snapshot version
    """

    def __init__(self, session: "Session"):
        self._session = session
        self._ops: list[tuple[str, set, bool]] = []
        self._outcome: str | None = None

    def add_edges(self, label: str,
                  pairs: Iterable[tuple[object, object]]) -> "Transaction":
        """Buffer an edge addition; applied at :meth:`commit`."""
        return self._buffer(label, pairs, removing=False)

    def remove_edges(self, label: str,
                     pairs: Iterable[tuple[object, object]]) -> "Transaction":
        """Buffer an edge removal; applied at :meth:`commit`."""
        return self._buffer(label, pairs, removing=True)

    def _buffer(self, label: str, pairs, removing: bool) -> "Transaction":
        if self._outcome is not None:
            raise TransactionError(
                f"this transaction was already {self._outcome}")
        self._session._check_mutable()
        _check_not_inverse(label)
        self._ops.append((label, {(s, t) for s, t in pairs}, removing))
        return self

    def commit(self) -> tuple[str, ...]:
        """Apply every buffered mutation as one atomic snapshot swap.

        Returns the names of the touched relations (empty when the whole
        batch is a no-op, in which case no new snapshot is created).  A
        validation failure applies nothing and leaves the transaction
        open, so the caller can still :meth:`rollback` (or fix the
        buffer's problem and retry through a new transaction).
        """
        if self._outcome is not None:
            raise TransactionError(
                f"this transaction was already {self._outcome}")
        touched = self._session._commit_ops(self._ops)
        self._outcome = "committed"
        return touched

    def rollback(self) -> None:
        """Discard the buffered mutations; the head is left untouched."""
        if self._outcome is not None:
            raise TransactionError(
                f"this transaction was already {self._outcome}")
        self._outcome = "rolled back"
        self._ops.clear()

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, *exc_info: object) -> None:
        if self._outcome is not None:
            return
        if exc_type is not None:
            self.rollback()
        else:
            self.commit()

    def __repr__(self) -> str:
        state = self._outcome or "open"
        return f"Transaction(ops={len(self._ops)}, {state})"


def _is_unchanged(current: Relation | None, updated: Relation) -> bool:
    """Whether committing ``updated`` over ``current`` would change nothing.

    A missing relation that would be committed empty counts as unchanged
    (the batch created and then emptied it).  The length pre-check keeps
    the common changed case O(1); full row comparison only runs for
    equal-size relations.
    """
    if current is None:
        return len(updated) == 0
    return len(current) == len(updated) and current == updated


def _check_not_inverse(label: str) -> None:
    if label.startswith(INVERSE_PREFIX):
        raise TranslationError(
            f"mutate the base relation {label[len(INVERSE_PREFIX):]!r} "
            f"instead of the inverse {label!r}")


class Session:
    """A Dist-mu-RA session bound to named graph snapshots and one cluster.

    The session is the single owner of the staged pipeline state: per
    graph, the head :class:`~repro.data.snapshot.DatabaseSnapshot`, the
    plan cache (rewriter + cost-ranking decisions) and the result cache
    (whole memoized executions); shared across graphs, the cluster, the
    rewriter and the execution lock that serializes physical cluster
    use.  Both caches are always on; a call that must pay the whole
    pipeline skips them itself (``Query.run_once(use_plan_cache=False,
    use_result_cache=False)``).
    """

    def __init__(self, data: "LabeledGraph | Mapping[str, Relation] | DatabaseSnapshot",
                 num_workers: int = 4,
                 optimize: bool = True,
                 strategy: str = AUTO,
                 *,
                 view_maintenance: str = "off"):
        # Compatibility shim: commits invalidate and nothing maintains, so
        # "off" is the keyword's only value.  ROADMAP item 1(c)'s
        # benchmark change retires it with the harness calls that pass it.
        if view_maintenance != "off":
            raise ValueError(
                f"view_maintenance must be 'off', got {view_maintenance!r}")
        self.cluster = SparkCluster(num_workers=num_workers)
        self.optimize_plans = optimize
        self.strategy = check_strategy(strategy)
        self.rewriter = MuRewriter()
        #: Serializes physical cluster executions: the cluster's task
        #: waves and metrics are single-caller by design.  The plan
        #: phase, result-cache hits and mutations all run outside it.
        self.execution_lock = ordered_rlock("session.execution")
        #: Named graphs of the session.  Every session view of a graph
        #: shares its ``GraphState`` cell (head pointer + caches).
        self._graphs: dict[str, GraphState] = {}
        self._graphs_lock = ordered_lock("session.graphs")
        self._graph_views: dict[str, Session] = {}
        #: This object's scope: which graph it addresses, and (for read
        #: views) the snapshot it is pinned to instead of the live head.
        self._root: Session = self
        self._graph_name = DEFAULT_GRAPH
        self._pinned: DatabaseSnapshot | None = None
        self.attach(DEFAULT_GRAPH, data)

    # -- Graphs and snapshots --------------------------------------------------------

    def attach(self, name: str,
               data: "LabeledGraph | Mapping[str, Relation] | DatabaseSnapshot",
               ) -> DatabaseSnapshot:
        """Register ``data`` as the named graph ``name`` (version 0).

        Accepts a :class:`LabeledGraph`, a plain ``name -> Relation``
        mapping, or an existing :class:`DatabaseSnapshot`.  Each graph
        gets its own head, version counters and plan/result caches, so
        queries, mutations and cache entries of different graphs never
        interfere.  Returns the attached snapshot.
        """
        snapshot = self._as_snapshot(name, data)
        with self._graphs_lock:
            if name in self._graphs:
                raise DatasetError(
                    f"a graph named {name!r} is already attached; "
                    f"detach() it first")
            self._graphs[name] = GraphState(
                name=name, head=snapshot, plan_cache=PlanCache(),
                result_cache=ResultCache())
        return snapshot

    def detach(self, name: str) -> None:
        """Forget the named graph (its caches and head are dropped).

        Snapshots already pinned by in-flight handles remain readable
        *as data* (they are immutable objects), but the name stops
        resolving: any further pipeline operation through the detached
        graph — including actions on handles that pinned before the
        detach — raises :class:`~repro.errors.DatasetError`, because
        the graph's cache and head cell are gone.  Detach is an
        administrative operation; quiesce the graph's traffic first.
        """
        if name == DEFAULT_GRAPH:
            raise DatasetError("the default graph cannot be detached")
        with self._graphs_lock:
            if name not in self._graphs:
                raise DatasetError(f"no graph named {name!r} is attached")
            del self._graphs[name]
            self._root._graph_views.pop(name, None)

    def graphs(self) -> tuple[str, ...]:
        """The sorted names of the attached graphs."""
        with self._graphs_lock:
            return tuple(sorted(self._graphs))

    def graph(self, name: str) -> "Session":
        """A session view scoped to the named graph.

        The view shares the cluster, the rewriter, the execution lock
        and the graph's ``GraphState`` cell with this session — it is a
        front-end scope, not a copy — so ``session.graph("yago")
        .ucrpq(...)`` plans, caches and executes against the "yago"
        head.  Views are memoized per name and safe to share across
        threads.
        """
        if name == self._graph_name and self._pinned is None:
            return self
        self._require_graph(name)
        root = self._root
        with root._graphs_lock:
            view = root._graph_views.get(name)
            if view is None:
                view = _SessionView(root, name, pinned=None)
                root._graph_views[name] = view
            return view

    def read_view(self) -> "Session":
        """A read-only session view pinned to the current head snapshot.

        Every query planned or executed through the view — no matter
        when — reads the snapshot that was the head when ``read_view()``
        was called; mutations through the view raise
        :class:`~repro.errors.TransactionError`.  Useful for long
        analyses that must not observe concurrent commits.
        """
        return _SessionView(self._root, self._graph_name,
                            pinned=self.snapshot())

    @property
    def graph_name(self) -> str:
        """Name of the graph this session object is scoped to."""
        return self._graph_name

    def snapshot(self) -> DatabaseSnapshot:
        """The database this session object currently reads.

        For a live session (or graph view) this is the graph's head —
        the latest committed version; for a :meth:`read_view` it is the
        pinned snapshot.  The returned object is immutable: it can be
        queried, iterated, shipped or compared at leisure regardless of
        later commits.
        """
        if self._pinned is not None:
            return self._pinned
        return self._state.head

    @property
    def database(self) -> DatabaseSnapshot:
        """Legacy alias for :meth:`snapshot` (a read-only mapping).

        Pre-snapshot code read and mutated ``session.database`` as a
        plain dict.  The attribute now returns the immutable head
        snapshot — all read patterns (``session.database["knows"]``,
        ``len(...)``, ``.items()``) keep working; writers must go
        through :meth:`add_edges` / :meth:`remove_edges` /
        :meth:`transaction`.  See the migration table in ``README.md``.
        """
        return self.snapshot()

    @property
    def _state(self) -> GraphState:
        state = self._root._graphs.get(self._graph_name)
        if state is None:
            raise DatasetError(
                f"graph {self._graph_name!r} is no longer attached")
        return state

    def _require_graph(self, name: str) -> None:
        if name not in self._root._graphs:
            raise DatasetError(
                f"no graph named {name!r} is attached "
                f"(attached: {list(self.graphs())})")

    @staticmethod
    def _as_snapshot(name: str, data) -> DatabaseSnapshot:
        if isinstance(data, DatabaseSnapshot):
            # Re-label under the attach name (e.g. attaching a copy of
            # another graph's head), so diagnostics and every successor
            # snapshot report the graph they actually serve.
            return data.relabeled(name)
        if isinstance(data, LabeledGraph):
            return DatabaseSnapshot.from_graph(data, graph_name=name)
        return DatabaseSnapshot.from_relations(data, graph_name=name)

    # -- Cache plumbing --------------------------------------------------------------

    @property
    def plan_cache(self) -> PlanCache:
        """The plan cache of this session's graph."""
        return self._state.plan_cache

    @property
    def result_cache(self) -> ResultCache:
        """The result cache of this session's graph."""
        return self._state.result_cache

    @property
    def catalog(self):
        """The statistics catalog of the snapshot this session reads.

        Statistics are snapshot-scoped: they travel with the immutable
        snapshot so the unlocked plan phase always pairs a fingerprint
        with the statistics computed from the same data.
        """
        return self.snapshot().catalog

    # -- Front-ends -----------------------------------------------------------------

    def ucrpq(self, query: str | UCRPQ, strategy: str | None = None) -> Query:
        """Lazy handle for a UCRPQ (text or parsed AST).  Nothing runs yet."""
        if isinstance(query, str):
            return Query(self, text=query, strategy=strategy)
        return Query(self, ast=query, strategy=strategy)

    def datalog(self, query: str | UCRPQ) -> DatalogQuery:
        """The same UCRPQ, compiled through the Datalog baseline front-end."""
        if isinstance(query, str):
            return DatalogQuery(self, text=query)
        return DatalogQuery(self, ast=query)

    def term(self, term: Term,
             classes: frozenset[str] = frozenset({"C7"}),
             strategy: str | None = None) -> Query:
        """Lazy handle for a raw mu-RA term (non-regular C7 workloads)."""
        return Query(self, term=term, classes=classes, strategy=strategy)

    def relation(self, label: str) -> PathBuilder:
        """Start a programmatic path query from one edge label.

        ``session.relation("a").closure().concat("b").between("?x", "?y")``
        builds the same query as ``session.ucrpq("?x,?y <- ?x a+/b ?y")``.
        """
        return PathBuilder.label(self, label)

    def prepare(self, query: str | UCRPQ,
                params: tuple[str, ...] | None = None) -> PreparedQuery:
        """Prepare a parameterized template (placeholders ``:name``).

        Every :meth:`~repro.session.prepared.PreparedQuery.bind` after the
        first is a plan-cache hit: the template is explored and ranked
        once, and each binding substitutes its values into the selected
        plan (see :mod:`repro.session.prepared`).  Each ``bind()``
        returns a fresh handle that pins the head snapshot of *its*
        first stage run, so re-binding after a commit sees the new head
        while in-flight bindings keep their version.
        """
        return PreparedQuery(self, query, params=params)

    def as_query(self, query: "str | UCRPQ | Term | Query | DatalogQuery",
                 ) -> "Query | DatalogQuery":
        """Coerce any supported query form into a lazy query handle.

        Pre-built handles (:class:`Query` and :class:`DatalogQuery`) pass
        through unchanged after a same-session check, so the serving
        layer can carry front-end choice on the handle itself.
        """
        if isinstance(query, (Query, DatalogQuery)):
            if query.session._root is not self._root:
                raise TranslationError(
                    "the query handle belongs to a different session")
            return query
        if isinstance(query, Term):
            return self.term(query, classes=frozenset())
        return self.ucrpq(query)

    # -- Pipeline stages -----------------------------------------------------------

    def parse(self, query: str | UCRPQ) -> UCRPQ:
        """Parse UCRPQ text (ASTs pass through unchanged)."""
        return parse_query(query) if isinstance(query, str) else query

    def front_end(self, text: str) -> FrontEnd:
        """Parse, translate and classify UCRPQ text once per graph.

        The memoized stages that text handles read.  Each is a pure
        function of the text, so the entry is kept in the graph's plan
        cache (same capacity, cleared with it).  The one check that
        reads data, the labels, is the caller's, against the snapshot it
        reads (see :meth:`Query._term_with`).  A parse error stores
        nothing and raises again on the next call.
        """
        memo = self.plan_cache
        entry = memo.front_end(text)
        if entry is None:
            ast = parse_query(text)
            entry = FrontEnd(ast=ast, labels=tuple(sorted(ast.labels())),
                             term=translate_query(ast),
                             classes=classify_query(ast))
            memo.remember_front_end(text, entry)
        return entry

    def analyze(self, subject, *, frontend: str = "ucrpq",
                snapshot: DatabaseSnapshot | None = None):
        """Statically analyze a query against this session's database.

        ``subject`` may be query text (parsed per ``frontend``:
        ``"ucrpq"`` or ``"datalog"``), a parsed :class:`UCRPQ`, a Datalog
        :class:`~repro.baselines.datalog.ast.Program` or a raw mu-RA
        :class:`Term` — type dispatch matches :func:`repro.check.analyze`.
        Returns a :class:`~repro.check.DiagnosticReport`; never parses
        into the plan cache or executes anything.
        """
        from ..check import analyze
        snapshot = snapshot if snapshot is not None else self.snapshot()
        get_registry().counter("repro_analyze_total",
                               frontend=frontend).inc()
        return analyze(subject, database=snapshot, frontend=frontend)

    def translate(self, query: str | UCRPQ,
                  snapshot: DatabaseSnapshot | None = None) -> Term:
        """Parse (if needed) and translate a UCRPQ into a mu-RA term.

        Raises :class:`~repro.errors.TranslationError` for labels the
        snapshot does not have.  (Prepared templates never hit this with
        a ``:name`` placeholder: label parameters are substituted with
        their concrete labels before the template is translated.)
        """
        snapshot = snapshot if snapshot is not None else self.snapshot()
        parsed = self.parse(query)
        check_labels(sorted(parsed.labels()), snapshot)
        return translate_query(parsed)

    def _select(self, term: Term, snapshot: DatabaseSnapshot,
                optimize: bool) -> CachedPlan:
        """The one builder of a :class:`CachedPlan`: the best-ranked plan
        equivalent to ``term`` (with ``optimize``) or ``term`` in canonical
        form, its fixpoints analysed, all against ``snapshot``."""
        if not optimize:
            selected = canonicalize(term)
            return CachedPlan(term=selected, cost=float("nan"),
                              plans_explored=1,
                              dependencies=free_variables(selected),
                              analysis=analyse_fixpoints(
                                  selected, snapshot.schemas))
        plans = self.rewriter.explore(term, snapshot.schemas)
        best = rank_plans(plans, catalog=snapshot.catalog)[0]
        return CachedPlan(term=best.term, cost=best.cost,
                          plans_explored=len(plans),
                          dependencies=free_variables(best.term),
                          estimated_cardinality=best.estimated_cardinality,
                          fcond_dropped=plans.fcond_dropped,
                          analysis=analyse_fixpoints(best.term,
                                                     snapshot.schemas))

    def resolve_plan(self, term: Term, strategy: str | None = None, *,
                     use_cache: bool = True,
                     snapshot: DatabaseSnapshot | None = None,
                     key: PlanKey | None = None,
                     ) -> tuple[CachedPlan, bool | None, PlanKey | None]:
        """The plan phase: cache lookup, or select and store.

        Returns ``(plan, cache_hit, key)``.  ``cache_hit`` and ``key`` are
        ``None`` when the cache was not consulted (``use_cache=False``, or
        the optimizer is off and the term is used as-is).  This method is
        the single plan path for every front-end and for the serving
        layer, so their cache keys agree by construction, and the plan
        cache's only writer.  It runs entirely outside
        the execution lock: the snapshot and its statistics are immutable,
        and the cache is internally synchronized.  ``key`` is the
        ``PlanKey.of`` the caller already built for this term, strategy
        and snapshot (the strict admission gate probes with it).
        """
        snapshot = snapshot if snapshot is not None else self.snapshot()
        if not self.optimize_plans:
            return self._select(term, snapshot, optimize=False), None, None
        with tracing.span("session.resolve_plan",
                          graph=snapshot.graph_name) as plan_span:
            if use_cache:
                if key is None:
                    key = PlanKey.of(self, term, strategy, snapshot=snapshot)
                cached = self.plan_cache.get(key)
                if cached is not None:
                    get_registry().counter("repro_plan_cache_total",
                                           outcome="hit").inc()
                    if plan_span.enabled:
                        plan_span.set_attribute("cache_hit", True)
                        if cached.estimated_cardinality is not None:
                            plan_span.set_attribute(
                                "estimated_rows", cached.estimated_cardinality)
                    return cached, True, key
            plan = self._select(term, snapshot, optimize=True)
            if plan_span.enabled:
                if use_cache:
                    plan_span.set_attribute("cache_hit", False)
                plan_span.set_attribute("plans_explored", plan.plans_explored)
                plan_span.set_attribute("fcond_dropped", plan.fcond_dropped)
                plan_span.set_attribute("estimated_rows",
                                        plan.estimated_cardinality)
            if not use_cache:
                return plan, None, None
            get_registry().counter("repro_plan_cache_total",
                                   outcome="miss").inc()
            self.plan_cache.put(key, plan)
            return plan, False, key

    def execute_plan(self, plan: CachedPlan, strategy: str | None = None,
                     classes: frozenset[str] = frozenset(), *,
                     use_result_cache: bool = True,
                     plan_key: PlanKey | None = None,
                     snapshot: DatabaseSnapshot | None = None,
                     ) -> tuple[QueryResult, bool | None]:
        """Execute a selected plan against one snapshot.

        Consults the result cache first — the key carries the snapshot
        fingerprint of the plan's inputs, so a hit is valid by
        construction and is served **without the execution lock**.  On a
        miss the plan runs on the cluster (executions serialize on the
        lock) and the result is memoized under the same fingerprint.
        Two concurrent misses on one key may both execute; they compute
        identical results and the second store is a harmless overwrite.
        Returns ``(result, result_cache_hit)``.  ``plan_key`` is ignored:
        a compatibility shim that ROADMAP item 1's benchmark change retires.
        """
        snapshot = snapshot if snapshot is not None else self.snapshot()
        effective = strategy if strategy is not None else self.strategy
        with tracing.span("session.execute_plan", strategy=effective,
                          columnar=columnar_enabled(),
                          graph=snapshot.graph_name) as exec_span:
            if use_result_cache:
                result_key = self.result_key(plan, effective, snapshot)
                cached = self.result_cache.lookup(result_key)
                if cached is not None:
                    get_registry().counter("repro_result_cache_total",
                                           outcome="hit").inc()
                    if exec_span.enabled:
                        exec_span.set_attribute("result_cache_hit", True)
                        exec_span.set_attribute("rows", len(cached.relation))
                    return cached.as_of(snapshot.version), True
            # The compiled kernel chains and the fixpoint analysis ride on
            # the plan entry: a plan cache hit re-executes with its
            # programs compiled and its fixpoints analysed.
            result = self.execute_term(plan.term, strategy=strategy,
                                       query_classes=classes, optimize=False,
                                       snapshot=snapshot,
                                       kernel_cache=plan.kernel_program,
                                       analysis=plan.analysis)
            # Patch in what the plan phase knew and the cache-skipping
            # re-execution did not (plan count, estimated selection cost).
            result.plans_explored = plan.plans_explored
            result.estimated_cost = plan.cost
            if use_result_cache:
                get_registry().counter("repro_result_cache_total",
                                       outcome="miss").inc()
                self.result_cache.store(result_key, result)
            if exec_span.enabled:
                if use_result_cache:
                    exec_span.set_attribute("result_cache_hit", False)
                exec_span.set_attribute("rows", len(result.relation))
            return result, (False if use_result_cache else None)

    def result_key(self, plan: CachedPlan, strategy: str | None,
                   snapshot: DatabaseSnapshot) -> ResultKey:
        """The result-cache key of ``plan`` run under ``strategy``
        (``None``: the session's) on ``snapshot``.

        The one place the key is built: :meth:`execute_plan` and the
        lookup-only probe :meth:`Query.cached_result` agree by
        construction.
        """
        return ResultKey(
            plan_key=plan.term_key,
            strategy=strategy if strategy is not None else self.strategy,
            num_workers=self.cluster.num_workers,
            fingerprint=snapshot.fingerprint(plan.dependencies),
            graph=snapshot.graph_name)

    # -- Execution ------------------------------------------------------------------

    def execute_term(self, term: Term, strategy: str | None = None,
                     query_classes: frozenset[str] = frozenset(),
                     optimize: bool | None = None,
                     snapshot: DatabaseSnapshot | None = None,
                     kernel_cache: KernelProgramCache | None = None,
                     analysis: tuple[FixpointAnalysis, ...] | None = None,
                     ) -> QueryResult:
        """Optimize (optionally) and execute a mu-RA term on one snapshot.

        ``optimize`` overrides the session default; on, the plan is
        selected as :meth:`resolve_plan` selects it, uncached.  Off, the
        term runs as given, with the ``analysis`` of its fixpoints when
        the caller has it (the executor analyses them otherwise).
        Only the physical execution itself holds the execution lock —
        the snapshot is immutable, so concurrent commits never interfere
        with the broadcast data.
        """
        snapshot = snapshot if snapshot is not None else self.snapshot()
        started = time.perf_counter()
        original = term
        plans_explored = 1
        estimated_cost = float("nan")
        should_optimize = self.optimize_plans if optimize is None else optimize
        if should_optimize:
            plan = self._select(term, snapshot, optimize=True)
            term, analysis = plan.term, plan.analysis
            plans_explored, estimated_cost = plan.plans_explored, plan.cost
        effective = strategy if strategy is not None else self.strategy
        with tracing.span("execute.term", strategy=effective,
                          graph=snapshot.graph_name) as term_span:
            with self.execution_lock:
                self.cluster.reset_metrics()
                executor = DistributedQueryExecutor(
                    self.cluster, snapshot, strategy=effective,
                    kernel_cache=kernel_cache)
                outcome = executor.execute(term, analysis)
                metrics = self.cluster.metrics
            if term_span.enabled:
                term_span.set_attribute("rows", len(outcome.relation))
                term_span.set_attribute(
                    "physical", ",".join(outcome.strategies) or "central")
        elapsed = time.perf_counter() - started
        registry = get_registry()
        registry.counter("repro_executions_total",
                         graph=snapshot.graph_name).inc()
        registry.histogram("repro_execution_seconds").observe(elapsed)
        metrics.publish(registry, graph=snapshot.graph_name)
        return QueryResult(
            relation=outcome.relation,
            selected_plan=term,
            original_plan=original,
            plans_explored=plans_explored,
            estimated_cost=estimated_cost,
            physical_strategies=outcome.strategies,
            metrics=metrics,
            elapsed_seconds=elapsed,
            query_classes=query_classes,
            snapshot_version=snapshot.version,
        )

    def evaluate_centralized(self, term: Term,
                             snapshot: DatabaseSnapshot | None = None,
                             ) -> Relation:
        """Reference single-node evaluation (used for testing and baselines)."""
        snapshot = snapshot if snapshot is not None else self.snapshot()
        return Evaluator(snapshot).evaluate(term)

    def datalog_edb(self, snapshot: DatabaseSnapshot | None = None,
                    ) -> dict[str, set[tuple]]:
        """Per-label EDB predicates of one snapshot (memoized on it).

        No lock is needed: the snapshot is immutable, so the extraction
        is repeatable, and the memo lives on the snapshot object itself —
        every pinned Datalog query of a version shares one EDB while
        later versions compute their own.
        """
        from ..baselines.datalog.translate import database_to_edb
        snapshot = snapshot if snapshot is not None else self.snapshot()
        return snapshot.derived("datalog_edb", database_to_edb)

    # -- Mutations and versioning ---------------------------------------------------

    @property
    def database_version(self) -> int:
        """Version of the snapshot this session reads (bumped per commit)."""
        return self.snapshot().version

    def relation_version(self, name: str) -> int:
        """Version at which relation ``name`` last changed (0 = unchanged)."""
        return self.snapshot().relation_version(name)

    def transaction(self) -> Transaction:
        """Start a mutation batch committed as one snapshot (see
        :class:`Transaction`)."""
        self._check_mutable()
        return Transaction(self)

    def add_edges(self, label: str,
                  pairs: Iterable[tuple[object, object]]) -> tuple[str, ...]:
        """Add ``(src, trg)`` edges to the ``label`` relation.

        Builds a copy-on-write successor snapshot — the inverse relation
        ``-label`` and the ``facts`` triple table (when the graph has
        them) are kept consistent; statistics wait for the plan phase —
        then atomically swaps the graph's head.  In-flight readers keep their pinned snapshots; the
        result cache keeps the entries current at the old or the new head
        (:meth:`ResultCache.retain_after_commit`) and drops the rest.  Adding
        only already-present pairs (or an empty iterable) is a **no-op**: no
        snapshot is created and no version is bumped.  Returns the names
        of the touched relations (empty for a no-op).
        """
        return self._apply_edge_mutation(label, pairs, removing=False)

    def remove_edges(self, label: str,
                     pairs: Iterable[tuple[object, object]]) -> tuple[str, ...]:
        """Remove ``(src, trg)`` edges from the ``label`` relation.

        Same snapshot-commit and no-op contract as :meth:`add_edges`
        (removing pairs that are not present changes nothing and bumps
        no version).
        """
        return self._apply_edge_mutation(label, pairs, removing=True)

    def _check_mutable(self) -> None:
        if self._pinned is not None:
            raise TransactionError(
                "this is a pinned read view; mutate through the live "
                "session (or session.graph(name)) instead")

    def _apply_edge_mutation(self, label: str, pairs, removing: bool) -> tuple[str, ...]:
        self._check_mutable()
        _check_not_inverse(label)
        edge_pairs = {(src, trg) for src, trg in pairs}
        return self._commit_ops([(label, edge_pairs, removing)])

    def _commit_ops(self, ops: list[tuple[str, set, bool]]) -> tuple[str, ...]:
        """Validate and apply a batch of mutations as one head swap.

        Writers serialize on the graph's commit lock; readers are never
        blocked — they keep using the old head (or their pinned
        snapshot) until the swap, which is a single reference
        assignment.  Every delta is validated *before* anything is
        applied, so a schema mismatch anywhere leaves the graph
        completely unchanged.
        """
        state = self._state
        with state.commit_lock:
            head = state.head
            changes: dict[str, Relation] = {}
            # Later ops in the batch observe earlier ones through the
            # overlay, so a transaction behaves like sequential edits
            # compressed into one commit.
            overlay = ChainMap(changes, head)
            for label, edge_pairs, removing in ops:
                # Unknown-relation removals must raise even with nothing
                # to remove (callers rely on it to catch typo'd names).
                if removing and label not in overlay:
                    raise EvaluationError(
                        f"cannot remove edges from unknown relation "
                        f"{label!r}")
                if not edge_pairs:
                    continue
                changes.update(self._plan_mutation(
                    overlay, label, edge_pairs, removing))
            # Ops in a batch can net out (add then remove the same pair):
            # drop every change whose final value equals the head's — and
            # phantom empty relations the batch both created and emptied —
            # so a no-op batch commits nothing at all.
            changes = {name: updated for name, updated in changes.items()
                       if not _is_unchanged(head.get(name), updated)}
            if not changes:
                return ()
            with tracing.span("session.commit", graph=state.name,
                              relations=",".join(sorted(changes))) as commit_span:
                successor = head.mutate(changes)
                state.head = successor
                if commit_span.enabled:
                    commit_span.set_attribute("version", successor.version)
                registry = get_registry()
                registry.counter("repro_commits_total",
                                 graph=state.name).inc()
                registry.gauge("repro_snapshot_version",
                               graph=state.name).set(successor.version)
                log_event(_LOGGER, "commit",
                          graph=state.name, version=successor.version,
                          relations=sorted(changes))
                # Under the commit lock, so the next writer sees a settled
                # cache.
                state.result_cache.retain_after_commit(head, successor)
            return tuple(changes)

    @property
    def last_maintenance(self) -> None:
        """Always ``None``: commits maintain nothing.

        Compatibility shim for callers that read the old decision log;
        ROADMAP item 1(c)'s benchmark change retires it.
        """
        return None

    @staticmethod
    def _plan_mutation(database: Mapping[str, Relation], label: str,
                       edge_pairs: set, removing: bool) -> dict[str, Relation]:
        """Compute the per-relation replacements of one edge mutation.

        Returns only the relations whose contents actually change — an
        empty dict means the mutation is a no-op (adding present pairs,
        removing absent ones) and must not produce a new snapshot.
        """
        if removing and label not in database:
            raise EvaluationError(
                f"cannot remove edges from unknown relation {label!r}")
        existing = database.get(label)
        inverse = INVERSE_PREFIX + label
        planned: list[tuple[str, Relation | None, Relation]] = []
        delta = Relation.from_pairs(edge_pairs, columns=(SRC, TRG))
        planned.append((label, existing, delta))
        if inverse in database or existing is None:
            inverse_delta = Relation.from_pairs(
                {(trg, src) for src, trg in edge_pairs}, columns=(SRC, TRG))
            planned.append((inverse, database.get(inverse), inverse_delta))
        facts = database.get("facts")
        if facts is not None and facts.columns == tuple(sorted((SRC, PRED, TRG))):
            # Rows align with the sorted schema ('pred', 'src', 'trg').
            fact_delta = Relation(facts.columns,
                                  [(label, src, trg) for src, trg in edge_pairs])
            planned.append(("facts", facts, fact_delta))
        for name, current, name_delta in planned:
            if current is not None and current.columns != name_delta.columns:
                raise SchemaError(
                    f"relation {name!r} has schema {current.columns}; the "
                    f"edge mutation API only supports {name_delta.columns} "
                    f"relations")
        changes: dict[str, Relation] = {}
        for name, current, name_delta in planned:
            base = (current if current is not None
                    else Relation.empty(name_delta.columns))
            updated = (base.difference(name_delta) if removing
                       else base.union(name_delta))
            # Union only grows and difference only shrinks, so equal
            # cardinality means equal contents: skip untouched relations.
            if current is None or len(updated) != len(base):
                changes[name] = updated
        return changes

    # -- Lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """End the session's use (``with Session(...) as session:``).

        The session holds no thread or pool, so there is nothing to
        release; a :class:`~repro.service.QueryService` built with
        ``own_engine=True`` calls this when it closes.
        """

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- Introspection -----------------------------------------------------------------

    def explain(self, query: str | UCRPQ) -> str:
        """Return a human-readable account of the optimisation of a query."""
        return self.ucrpq(query).explain()

    def __repr__(self) -> str:
        snapshot = self.snapshot()
        pinned = ", pinned" if self._pinned is not None else ""
        return (f"{type(self).__name__}(graph={snapshot.graph_name!r}, "
                f"version={snapshot.version}{pinned}, "
                f"relations={len(snapshot)}, "
                f"workers={self.cluster.num_workers}, "
                f"optimize={self.optimize_plans}, strategy={self.strategy!r})")


class _SessionView(Session):
    """A scoped facade over a root session: one graph, optionally pinned.

    A view owns only its scope (which graph it addresses, and — for read
    views — the snapshot it is pinned to); *every other attribute read
    falls through to the root session live*, so configuration changed on
    the root after the view was created (strategy, optimizer) is
    always observed.  Views are what :meth:`Session.graph` and
    :meth:`Session.read_view` return.
    """

    def __init__(self, root: Session, graph_name: str,
                 pinned: DatabaseSnapshot | None):
        # Deliberately no super().__init__: the view stores its scope
        # only and reads everything else through the root (__getattr__).
        self._root = root
        self._graph_name = graph_name
        self._pinned = pinned

    def __getattr__(self, name: str):
        # Only called for attributes not found on the instance/class:
        # i.e. the root session's engine state.  Guard the scope slots
        # so a half-constructed view cannot recurse.
        if name in ("_root", "_graph_name", "_pinned"):
            raise AttributeError(name)
        return getattr(self._root, name)
