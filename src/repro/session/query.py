"""Lazy query handles: every pipeline stage inspectable, nothing eager.

A :class:`Query` is produced by a session front-end
(:meth:`Session.ucrpq`, :meth:`Session.term`, the programmatic builder,
or :meth:`PreparedQuery.bind`) and represents one trip through the staged
pipeline::

    front-end --> .ast --> .term --> .normalized --> .plan() --> action

Constructing a handle performs **no work at all** — not even parsing.
Each stage is computed on first access and memoized on the handle; a
handle built from text also reads its parse, translation and classes
from the graph's per-text memo (:meth:`Session.front_end`), and checks
the text's labels against the snapshot it reads.  The plan stage
additionally goes through the session's shared plan cache, and the
terminal actions go through the session's result cache.  Because
every front-end funnels into the same :meth:`Session.resolve_plan` /
:meth:`Session.execute_plan` pair, cache keys agree regardless of whether
a query arrives as text, as a parsed AST, as a raw term, through the
serving layer, or through a prepared-statement binding.

**Snapshot isolation.**  The first stage that needs the database —
translation, planning or execution — pins the session's head
:class:`~repro.data.snapshot.DatabaseSnapshot` on the handle
(:attr:`Query.pinned_snapshot`).  Every later stage and action of the
handle reads that same immutable version, so ``collect()``, ``count()``,
``stream()`` and repeated ``plan()`` calls are repeatable reads even
while writers commit new snapshots concurrently.  The one exception is
:meth:`Query.run_once`, the serving path, which reads the *current* head
on every call (still one consistent snapshot per call).

:class:`DatalogQuery` is the same shape for the Datalog baseline
front-end: ``.ast`` / ``.program`` stages, then ``collect()``.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..algebra.terms import Term
from ..check.sanitizer import ordered_lock
from ..data.stats import RelationStats
from ..distributed.physical import check_strategy
from ..errors import TranslationError
from ..obs.metrics import get_registry
from ..query.ast import UCRPQ
from ..query.classes import classify_query
from ..rewriter.normalize import canonicalize
from ..service.plan_cache import PlanKey, plan_facts
from .parameters import bind_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..data.snapshot import DatabaseSnapshot
    from ..service.plan_cache import CachedPlan
    from .session import QueryResult, Session

#: Sentinel distinguishing "not computed yet" from computed-as-None.
_UNSET = object()

#: Guards the one-time snapshot pin of every handle.  A single shared
#: lock suffices: pinning happens at most once per handle and holds the
#: lock only for a head-pointer read, so contention is negligible.
_PIN_LOCK = ordered_lock("session.pin")


def check_labels(labels: Iterable[str], snapshot: "DatabaseSnapshot") -> None:
    """Raise :class:`TranslationError` naming the (sorted) ``labels``
    that ``snapshot`` does not have."""
    missing = [label for label in labels if label not in snapshot]
    if missing:
        raise TranslationError(
            f"query references unknown edge labels {missing}")


@dataclass(frozen=True)
class FrontEnd:
    """What one UCRPQ text compiles to, whatever the data holds.

    Built by :meth:`Session.front_end` and memoized per graph beside the
    plan cache.  Nothing here reads data: the labels are kept for the
    label check each read makes against its own snapshot.
    """

    ast: UCRPQ
    #: The edge labels the query names, sorted.
    labels: tuple[str, ...]
    term: Term
    classes: frozenset[str]


def _pin_snapshot(handle) -> "DatabaseSnapshot":
    """The one pin protocol shared by every handle kind.

    Double-checked under the shared lock so concurrent first-stage runs
    (e.g. two threads sharing one handle) agree on one
    snapshot — a handle's pin really is set atomically, once.
    """
    if handle._snapshot is None:
        with _PIN_LOCK:
            if handle._snapshot is None:
                handle._snapshot = handle.session.snapshot()
    return handle._snapshot


class Query:
    """One lazy, memoized trip through the session's staged pipeline."""

    def __init__(self, session: "Session", *,
                 text: str | None = None,
                 ast: UCRPQ | None = None,
                 term: Term | None = None,
                 classes: frozenset[str] | None = None,
                 strategy: str | None = None,
                 plan_term: Term | None = None,
                 bindings: dict[str, object] | None = None,
                 description: str | None = None):
        self.session = session
        self._text = text
        self._given_ast = ast
        self._given_term = term
        self._given_classes = classes
        self._strategy = None if strategy is None else check_strategy(strategy)
        #: Term the plan phase runs on when it differs from :attr:`term`
        #: (prepared queries plan their shared parameterized template).
        self._plan_term = plan_term
        #: Parameter values substituted into the selected plan (prepared).
        self._bindings = dict(bindings or {})
        self._description = description
        #: The text's memoized front end, read once per handle.
        self._front_end: FrontEnd | None = None
        #: Snapshot the handle reads; pinned at the first stage run.
        self._snapshot: "DatabaseSnapshot | None" = None
        # Memoized stages.
        self._ast = _UNSET
        self._term = _UNSET
        self._normalized = _UNSET
        self._classes = _UNSET
        self._plans: dict[str | None, tuple] = {}
        self._results: dict[str | None, "QueryResult"] = {}
        #: Memoized static-analysis report (see :meth:`check`).
        self._check = _UNSET
        #: Cache observations of the most recent plan/collect, for
        #: introspection and tests (``None`` = cache not consulted).
        self.last_plan_cache_hit: bool | None = None
        self.last_result_cache_hit: bool | None = None

    # -- Stages (lazy, memoized) ----------------------------------------------

    @property
    def text(self) -> str | None:
        """The original query text, when the handle was built from text."""
        return self._text

    @property
    def pinned_snapshot(self) -> "DatabaseSnapshot | None":
        """The snapshot this handle reads, or ``None`` before the pin.

        Set (atomically, once) by the first stage that needs the
        database; every subsequent stage and terminal action of the
        handle uses it, making the handle a repeatable read of one
        version regardless of concurrent commits.
        """
        return self._snapshot

    def _pin(self) -> "DatabaseSnapshot":
        """Pin the session's current head on first use and return it."""
        return _pin_snapshot(self)

    def _front(self) -> FrontEnd:
        """The text's front end, read from the graph's memo once."""
        if self._front_end is None:
            self._front_end = self.session.front_end(self._text)
        return self._front_end

    @property
    def ast(self) -> UCRPQ:
        """The parsed UCRPQ (parses on first access)."""
        if self._ast is _UNSET:
            if self._given_ast is not None:
                self._ast = self._given_ast
            elif self._text is not None:
                self._ast = self._front().ast
            else:
                raise TranslationError(
                    "this query was built from a raw mu-RA term; "
                    "it has no UCRPQ AST")
        return self._ast

    @property
    def term(self) -> Term:
        """The translated mu-RA term (translates on first access)."""
        return self._term_with(self._pin())

    def _term_with(self, snapshot: "DatabaseSnapshot") -> Term:
        """Memoized translation, label-checked against ``snapshot``.

        The translation itself is data-independent (only the label check
        reads the database), so memoizing under whichever snapshot ran
        first is sound; passing an explicit snapshot lets
        :meth:`run_once` keep its whole trip on the one head it captured.
        Text reads the graph's front-end memo, whose entry says nothing
        about data: its labels are checked against ``snapshot`` here.
        """
        if self._term is _UNSET:
            if self._given_term is not None:
                self._term = self._given_term
            elif self._text is not None:
                entry = self._front()
                check_labels(entry.labels, snapshot)
                self._term = entry.term
            else:
                self._term = self.session.translate(self.ast,
                                                    snapshot=snapshot)
        return self._term

    @property
    def normalized(self) -> Term:
        """The canonical form of :attr:`term` (the plan identity)."""
        if self._normalized is _UNSET:
            self._normalized = canonicalize(self.term)
        return self._normalized

    @property
    def cache_key(self) -> str:
        """Stable string identity of the query (printed canonical form).

        Read from the term's own memo (:func:`plan_facts`), which a plan
        of the handle's own term has already filled.  An already
        translated term is used as is: reading :attr:`term` would pin the
        head on a served handle, which plans on the service's snapshot.
        """
        term = self._term if self._term is not _UNSET else self.term
        return plan_facts(term)[0]

    @property
    def classes(self) -> frozenset[str]:
        """The paper's C1-C7 classification of the query."""
        if self._classes is _UNSET:
            if self._given_classes is not None:
                self._classes = self._given_classes
            elif self._text is not None:
                self._classes = self._front().classes
            else:
                self._classes = classify_query(self.ast)
        return self._classes

    def plan(self, strategy: str | None = None) -> "CachedPlan":
        """Explore+rank (through the session plan cache) and return the plan.

        Memoized per strategy on the handle; across handles the session's
        plan cache deduplicates the work.
        """
        return self._resolve(strategy)[0]

    def explain(self, strategy: str | None = None) -> str:
        """Human-readable account of the whole pipeline for this query."""
        plan = self.plan(strategy)
        classes = ",".join(sorted(self.classes)) or "none"
        lines = [
            f"query: {self.describe()}",
            f"classes: {classes}",
            "pipeline: front-end -> term -> normalize -> rank -> "
            "physical plan -> action",
            f"plans explored: {plan.plans_explored} ({plan.fcond_dropped} dropped by Fcond)",
            f"selected cost: {plan.cost:.1f}",
            f"selected plan: {plan.term}",
        ]
        return "\n".join(lines)

    def check(self):
        """Statically analyze the query against its pinned snapshot.

        Returns a :class:`~repro.check.DiagnosticReport` — label/relation
        existence, shape warnings (cartesian products, unused head
        variables) and the recursion-shape classification predicting
        which of the paper's strategies apply.  Never executes anything;
        memoized on the handle (the pin makes the catalog stable).
        """
        if self._check is _UNSET:
            self._check = self._analyze_against(self._pin())
        return self._check

    def _analyze_against(self, snapshot: "DatabaseSnapshot"):
        """One analysis pass over the handle's best front-end artifact.

        Text is preferred (spans and caret snippets survive), then the
        given AST, then the raw term.  Counted in the metrics registry so
        the serving tier's admission gate can assert it runs once per
        plan-cache fill and never on the hot path.
        """
        from ..check import analyze_query, analyze_term

        if self._text is not None or self._given_ast is not None:
            subject = self._text if self._text is not None else self._given_ast
            get_registry().counter("repro_analyze_total",
                                   frontend="ucrpq").inc()
            return analyze_query(subject, database=snapshot)
        term = (self._plan_term if self._plan_term is not None
                else self._given_term)
        get_registry().counter("repro_analyze_total", frontend="term").inc()
        return analyze_term(term, database=snapshot)

    def _admission_gate(self, effective: str | None,
                        snapshot: "DatabaseSnapshot",
                        use_cache: bool) -> "PlanKey | None":
        """Strict-mode admission: analyze once per plan-cache fill.

        A cached plan proves this exact term and config were admitted
        before against relations with the same columns and statistics
        (hence the same emptiness), so hits skip the analysis entirely — strict
        serving adds no hot-path cost.  On a miss the analysis runs
        *before* the optimizer; errors surface as a structured
        :class:`~repro.errors.AnalysisError` instead of whatever the
        deeper pipeline would have raised.  When translation itself fails
        (e.g. an unknown label) the analyzer still gets a chance to
        produce the better account before the original error propagates.
        Returns the plan key it probed with (``None`` when the plan cache
        is not consulted), for the plan phase to look up with.
        """
        from ..errors import ReproError

        try:
            base = (self._plan_term if self._plan_term is not None
                    else self._term_with(snapshot))
        except ReproError:
            self._analyze_against(snapshot).raise_if_errors()
            raise
        session = self.session
        key = None
        if use_cache and session.optimize_plans:
            key = PlanKey.of(session, base, effective, snapshot=snapshot)
            if key in session.plan_cache:
                return key
        self._analyze_against(snapshot).raise_if_errors()
        return key

    # -- Terminal actions ------------------------------------------------------

    def collect(self, strategy: str | None = None) -> "QueryResult":
        """Execute the selected plan and return the full :class:`QueryResult`.

        Memoized per strategy: a handle is a one-shot staged computation
        pinned to one snapshot.  Build a new handle (or use the serving
        layer) to observe data committed after the handle's pin.
        """
        effective = self._effective(strategy)
        if effective not in self._results:
            result, result_hit = self.session.execute_plan(
                self.plan(strategy), effective, self.classes,
                snapshot=self._pin())
            self.last_result_cache_hit = result_hit
            self._results[effective] = result
        return self._results[effective]

    def run_once(self, strategy: str | None = None, *,
                 use_plan_cache: bool = True,
                 use_result_cache: bool = True,
                 check: bool = False,
                 ) -> "tuple[QueryResult, bool | None, bool | None]":
        """One un-memoized trip through the pipeline (the serving path).

        Unlike :meth:`collect`, nothing is memoized on the handle and the
        handle's pin is bypassed: each call captures the session's head
        snapshot at entry and plans + executes against that one version
        (a repeatable read *within* the call, the freshest data *across*
        calls) — this is what a server wants when equivalent handles are
        served repeatedly against a mutating database.  Honors the
        handle's own default strategy and, for prepared bindings, the
        shared template plan.
        With ``check=True`` the strict-mode admission gate runs first
        (see :meth:`_admission_gate`): on a plan-cache miss the query is
        statically analyzed and rejected with an
        :class:`~repro.errors.AnalysisError` when the report has errors;
        on a hit the analysis is skipped entirely.
        Returns ``(result, plan_cache_hit, result_cache_hit)``.
        """
        effective = self._effective(strategy)
        snapshot = self.session.snapshot()
        key = (self._admission_gate(effective, snapshot, use_plan_cache)
               if check else None)
        plan, plan_hit = self._plan_for(effective, use_cache=use_plan_cache,
                                        snapshot=snapshot, key=key)
        result, result_hit = self.session.execute_plan(
            plan, effective, self.classes,
            use_result_cache=use_result_cache, snapshot=snapshot)
        return result, plan_hit, result_hit

    def cached_result(self, strategy: str | None = None,
                      ) -> "QueryResult | None":
        """The cached answer :meth:`run_once` would serve, or ``None``.

        A lookup-only probe of the session's head: it never parses,
        plans or executes.  It answers ``None`` unless the handle was
        built from text whose front end is memoized, its labels are all
        in the head, the relations it reads are summarized already (it
        never computes statistics), and both the plan and the result of
        that head are cached (with the optimizer on).
        Bindings of a prepared template never answer here.  Only a full
        hit is counted, as one plan hit and one result hit, exactly as
        :meth:`run_once` counts it; a miss leaves the handle and every
        counter as they were.  A hit leaves the handle's front end and term
        set, as :meth:`run_once` would, so :attr:`cache_key` pins nothing.
        A served hit is three lookups (front end, plan, result): the
        term carries its own key and inputs (:func:`plan_facts`).
        """
        session = self.session
        if self._text is None or self._plan_term is not None \
                or not session.optimize_plans:
            return None
        entry = self._front_end or session.plan_cache.front_end(self._text)
        if entry is None:
            return None
        snapshot = session.snapshot()
        if any(label not in snapshot for label in entry.labels):
            return None
        # A relation no plan key has read since a commit replaced it is
        # summarized by a worker, under admission control, not here.
        _, dependencies = plan_facts(entry.term)
        if not all(RelationStats.summarized(snapshot[name])
                   for name in dependencies if name in snapshot):
            return None
        effective = self._effective(strategy)
        plan = session.plan_cache.get(
            PlanKey.of(session, entry.term, effective, snapshot=snapshot))
        if plan is None:
            return None
        result = session.result_cache.lookup(
            session.result_key(plan, effective, snapshot))
        if result is None:
            return None
        registry = get_registry()
        registry.counter("repro_plan_cache_total", outcome="hit").inc()
        registry.counter("repro_result_cache_total", outcome="hit").inc()
        self._front_end = entry
        if self._term is _UNSET:
            self._term = entry.term
        return result.as_of(snapshot.version)

    def explain_analyze(self, strategy: str | None = None):
        """Execute once under tracing and return the annotated span tree.

        Unlike :meth:`explain` (which only plans), this *runs* the query
        — one un-memoized trip against the current head snapshot, like
        :meth:`run_once`, through both caches (a result hit executes
        nothing) — inside a private, enabled tracer, and returns
        an :class:`~repro.obs.explain.ExplainAnalyzeReport`: per-stage
        wall time, plan/result cache outcomes, per-fixpoint-iteration
        delta and accumulated cardinalities, and the estimate-vs-actual
        cardinality drift.  ``print(query.explain_analyze())`` renders
        the tree; the report's structured accessors serve tests and the
        feedback-driven-optimizer roadmap item.

        The private tracer is activated only for the calling context, so
        concurrent queries on the same session are not traced (and pay
        no overhead) while this one runs.
        """
        from ..obs import tracing
        from ..obs.explain import ExplainAnalyzeReport

        effective = self._effective(strategy)
        tracer = tracing.Tracer(enabled=True)
        with tracing.activate(tracer):
            with tracing.span("query", query=self.describe()):
                snapshot = self.session.snapshot()
                if self._given_ast is not None or self._text is not None:
                    with tracing.span("query.parse"):
                        self.ast  # noqa: B018 - forces the parse stage
                with tracing.span("query.translate"):
                    self._term_with(snapshot)
                plan, _ = self._plan_for(effective, snapshot=snapshot)
                result, _ = self.session.execute_plan(
                    plan, effective, self.classes, snapshot=snapshot)
        return ExplainAnalyzeReport(query_text=self.describe(),
                                    result=result,
                                    records=tracer.records())

    def count(self, strategy: str | None = None) -> int:
        """Number of result rows."""
        return len(self.collect(strategy).relation)

    def exists(self, strategy: str | None = None) -> bool:
        """True when the query has at least one answer."""
        return self.count(strategy) > 0

    def stream(self, batch_size: int = 256,
               strategy: str | None = None) -> Iterator[list[tuple]]:
        """Yield the result rows in batches of ``batch_size`` tuples.

        Snapshot-consistent: calling ``stream()`` pins the handle's
        snapshot and runs the pipeline *immediately* (not at the first
        ``next()``), so the batches always cover exactly the pinned
        version — mutations committed between yielded batches (or
        between creating and consuming the iterator) cannot change, tear
        or reorder the stream.  Batches themselves are produced lazily
        from the materialized result, one at a time.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._pin()
        relation = self.collect(strategy).relation

        def batches() -> Iterator[list[tuple]]:
            batch: list[tuple] = []
            for row in relation.rows:
                batch.append(row)
                if len(batch) == batch_size:
                    yield batch
                    batch = []
            if batch:
                yield batch

        return batches()

    # -- Introspection ---------------------------------------------------------

    def describe(self) -> str:
        """A printable identity of the query that never triggers a parse."""
        if self._description is not None:
            return self._description
        if self._text is not None:
            return self._text
        if self._given_ast is not None:
            return str(self._given_ast)
        return str(self._given_term)

    def __repr__(self) -> str:
        staged = [name for name, slot in (
            ("ast", self._ast), ("term", self._term),
            ("normalized", self._normalized)) if slot is not _UNSET]
        if self._plans:
            staged.append("plan")
        if self._results:
            staged.append("result")
        return (f"Query({self.describe()!r}, "
                f"staged=[{', '.join(staged) or 'nothing'}])")

    # -- Internal --------------------------------------------------------------

    def _effective(self, strategy: str | None) -> str | None:
        """The strategy an action runs under: its own, checked, or the
        handle's default (``None``: the session's)."""
        if strategy is None:
            return self._strategy
        return check_strategy(strategy)

    def _resolve(self, strategy: str | None) -> tuple:
        effective = self._effective(strategy)
        if effective not in self._plans:
            self._plans[effective] = self._plan_for(effective)
        self.last_plan_cache_hit = self._plans[effective][1]
        return self._plans[effective]

    def _plan_for(self, effective: str | None,
                  use_cache: bool = True,
                  snapshot: "DatabaseSnapshot | None" = None,
                  key: "PlanKey | None" = None) -> tuple:
        """Resolve ``(plan, cache_hit)`` through the session.

        Plans against the handle's pinned snapshot unless the caller
        (the serving path) passes its own, with the plan key when the
        caller (the strict gate) already built it.  For prepared bindings
        the plan phase runs on the shared template term and the binding's
        constants are substituted into a copy of the selected plan
        afterwards; the cached template plan is never modified.
        """
        snapshot = snapshot if snapshot is not None else self._pin()
        base = (self._plan_term if self._plan_term is not None
                else self._term_with(snapshot))
        plan, hit, _ = self.session.resolve_plan(base, effective,
                                                 use_cache=use_cache,
                                                 snapshot=snapshot, key=key)
        if self._bindings:
            plan = bind_plan(plan, self._bindings)
        return plan, hit


class DatalogQuery:
    """The Datalog front-end: same staged shape, different compiler.

    Stages: ``.ast`` (shared with the UCRPQ front-end), ``.program`` (the
    left-linear Datalog translation, magic-set specialized), then the
    terminal ``collect()`` running the semi-naive engine over the
    session's database.  Used by the differential tests to compare the
    two front-ends over one database instead of two engine silos.
    """

    def __init__(self, session: "Session", *,
                 text: str | None = None,
                 ast: UCRPQ | None = None):
        self.session = session
        self._text = text
        self._given_ast = ast
        #: Snapshot the evaluation reads; pinned at the first collect().
        self._snapshot: "DatabaseSnapshot | None" = None
        self._ast = _UNSET
        self._program = _UNSET
        self._specialization = _UNSET
        self._result = _UNSET

    @property
    def text(self) -> str | None:
        return self._text

    @property
    def pinned_snapshot(self) -> "DatabaseSnapshot | None":
        """The snapshot this handle reads (same contract as :class:`Query`)."""
        return self._snapshot

    def _pin(self) -> "DatabaseSnapshot":
        return _pin_snapshot(self)

    @property
    def ast(self) -> UCRPQ:
        """The parsed UCRPQ (parses on first access)."""
        if self._ast is _UNSET:
            self._ast = (self._given_ast if self._given_ast is not None
                         else self.session.parse(self._text))
        return self._ast

    @property
    def program(self):
        """The (specialized) Datalog program (translates on first access)."""
        if self._program is _UNSET:
            from ..baselines.datalog.magic import MagicSetSpecializer
            from ..baselines.datalog.translate import ucrpq_to_datalog
            self._program, self._specialization = \
                MagicSetSpecializer().specialize(ucrpq_to_datalog(self.ast))
        return self._program

    @property
    def specialization(self):
        """The magic-set specialization report for :attr:`program`."""
        self.program  # noqa: B018 - forces the translation stage
        return self._specialization

    def distribution(self) -> tuple[list[str], list[str]]:
        """GPS-style (decomposable, non-decomposable) predicate analysis."""
        from ..baselines.datalog.distributed import analyse_distribution
        return analyse_distribution(self.program)

    def check(self):
        """Statically analyze the translated program against the database.

        The pinned snapshot acts as the EDB catalog (forward label
        relations carry the authoritative arity), so unknown predicates,
        arity clashes, dead rules and the recursion-shape classification
        all reflect the exact version :meth:`collect` would evaluate.
        """
        from ..check import analyze_program
        get_registry().counter("repro_analyze_total",
                               frontend="datalog").inc()
        return analyze_program(self.program, database=self._pin())

    def collect(self):
        """Evaluate the program bottom-up; returns a BigDatalogResult."""
        if self._result is _UNSET:
            from ..baselines.datalog.distributed import (BigDatalogResult,
                                                         goal_relation)
            from ..baselines.datalog.engine import SemiNaiveEngine
            started = time.perf_counter()
            program = self.program
            decomposable, non_decomposable = self.distribution()
            engine = SemiNaiveEngine()
            facts = engine.evaluate(program,
                                    self.session.datalog_edb(self._pin()))
            columns = tuple(sorted(v.name for v in self.ast.head))
            relation = goal_relation(self.ast, facts, columns)
            self._result = BigDatalogResult(
                relation=relation,
                program=program,
                specialization=self._specialization,
                decomposable_predicates=decomposable,
                non_decomposable_predicates=non_decomposable,
                iterations=engine.stats.iterations,
                facts_derived=engine.stats.facts_derived,
                elapsed_seconds=time.perf_counter() - started,
            )
        return self._result

    def explain_analyze(self):
        """Evaluate once under tracing and return the annotated span tree.

        The Datalog engine is not internally instrumented (it is a
        baseline), so the tree shows the front-end stages — parse,
        translate+specialize, evaluate — with their wall time, which is
        exactly what the differential benchmarks compare against the
        mu-RA pipeline's deeper trace.
        """
        from ..obs import tracing
        from ..obs.explain import ExplainAnalyzeReport

        tracer = tracing.Tracer(enabled=True)
        with tracing.activate(tracer):
            with tracing.span("query", query=self.describe(),
                              frontend="datalog"):
                with tracing.span("query.parse"):
                    self.ast  # noqa: B018 - forces the parse stage
                with tracing.span("query.translate"):
                    self.program  # noqa: B018 - forces the translation
                with tracing.span("query.evaluate") as evaluate_span:
                    result = self.collect()
                    evaluate_span.set_attribute(
                        "iterations", result.iterations)
                    evaluate_span.set_attribute(
                        "facts_derived", result.facts_derived)
        return ExplainAnalyzeReport(query_text=self.describe(),
                                    result=result,
                                    records=tracer.records())

    def count(self) -> int:
        return len(self.collect().relation)

    def exists(self) -> bool:
        return self.count() > 0

    def describe(self) -> str:
        if self._text is not None:
            return self._text
        return str(self._given_ast)

    def __repr__(self) -> str:
        return f"DatalogQuery({self.describe()!r})"
