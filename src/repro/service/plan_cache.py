"""Plan cache: memoize the output of the rewriter and the cost ranking.

Optimizing a query — exploring up to ``max_plans`` equivalent mu-RA terms
and costing each of them — dominates the latency of small and repeated
queries.  The plan cache keys that work on what it reads:

* the **canonical form** of the translated query
  (:func:`repro.rewriter.normalize.cache_key`), which erases the
  session-specific generated names so the same UCRPQ always maps to the
  same key, in any session,
* for every relation the query reads, its **columns** (exploration reads
  the schemas) and its :class:`~repro.data.stats.RelationStats` —
  cardinality and per-column distinct counts (ranking reads nothing
  else of the data),
* the **engine configuration** that shaped the decision (strategy,
  worker count, rewriter bounds) and the graph.

A hit skips ``MuRewriter.explore`` and ``rank_plans`` entirely and goes
straight to execution with the previously selected plan.

The key names no version.  A commit that leaves the statistics of a
query's inputs where they were (an edge swapped for another of the same
shape, an add undone by a remove) keeps hitting the same entry; one that
moves them misses and re-plans.  Explore and rank are pure functions of
those values, so reuse is exact, and nothing is ever invalidated:
entries that no longer describe the head age out of the LRU ring, while
handles pinned to an old snapshot build their keys from it and keep
hitting its entries.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..algebra.kernels import KernelProgramCache
from ..algebra.terms import Term
from ..algebra.variables import free_variables
from ..obs.metrics import get_registry
from ..rewriter.normalize import cache_key
from .cache import LRUCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..data.snapshot import DatabaseSnapshot
    from ..distributed.partitioner import FixpointAnalysis
    from ..session.query import FrontEnd
    from ..session.session import Session

#: Default number of selected plans kept.
DEFAULT_PLAN_CACHE_SIZE = 128


@dataclass(frozen=True)
class PlanKey:
    """Identity of one plan-selection decision."""

    term_key: str
    #: ``(name, columns, StatisticsCatalog.signature(name))`` of every
    #: relation the query reads: what explore and rank read of them.
    statistics: tuple
    config: tuple
    #: Name of the graph the snapshot belongs to, so two graphs whose
    #: statistics happen to coincide never answer for each other when a
    #: cache is shared across graphs.
    graph: str = ""

    @classmethod
    def of(cls, engine: "Session", term: Term, strategy: str | None,
           snapshot: "DatabaseSnapshot | None" = None) -> "PlanKey":
        """Build the key of ``term`` against one database snapshot.

        ``snapshot`` defaults to the engine's current head; pinned query
        handles pass their own, so they rank on the statistics they read.
        The term's key and the relations it reads come from the plan
        cache's per-term memo (:meth:`PlanCache.term_facts`).
        """
        snapshot = snapshot if snapshot is not None else engine.snapshot()
        term_key, dependencies = engine.plan_cache.term_facts(term)
        schemas, catalog = snapshot.schemas, snapshot.catalog
        config = (
            strategy if strategy is not None else engine.strategy,
            engine.cluster.num_workers,
            engine.rewriter.max_plans,
            engine.rewriter.max_rounds,
            engine.optimize_plans,
        )
        return cls(term_key=term_key,
                   statistics=tuple((name, schemas.get(name),
                                     catalog.signature(name))
                                    for name in sorted(dependencies)),
                   config=config,
                   graph=snapshot.graph_name)


@dataclass
class CachedPlan:
    """The decisions recorded for one optimized query."""

    #: The selected logical plan, in canonical form.
    term: Term
    cost: float
    plans_explored: int
    #: Free relation variables of the selected plan (result-cache deps).
    dependencies: frozenset[str]
    #: ``cache_key(term)``, precomputed so cache hits never re-canonicalize
    #: the selected plan (it is the result-cache key of every execution).
    term_key: str = ""
    #: Physical strategy decisions observed at the first execution of the
    #: plan (filled in lazily; purely informational).
    physical_strategies: tuple[str, ...] = field(default=())
    #: The cost model's estimated result cardinality for the selected
    #: plan (``None`` when the optimizer was off).  EXPLAIN ANALYZE
    #: compares it against the observed row count — the drift signal of
    #: the feedback-driven-optimizer roadmap item.
    estimated_cardinality: int | None = None
    #: The static analysis of each outermost fixpoint of ``term``
    #: (:func:`~repro.distributed.partitioner.analyse_fixpoints`): its
    #: decomposition and partitioning, a pure function of the term and
    #: the schemas the key names, computed once with the plan and read by
    #: every execution.  A binding of a prepared template gets the
    #: template's, with its constants substituted in.  ``None`` when the
    #: plan was built without schemas: the executor then derives it.
    analysis: "tuple[FixpointAnalysis, ...] | None" = None
    #: Compiled columnar kernel programs for this plan's fixpoints.
    #: Created with the plan and carried on the entry, so a plan-cache
    #: hit also hits its compiled kernels, and every binding of a
    #: prepared template shares the template's.  Entries are schema-level
    #: — constants are re-resolved at every bind — so reuse across
    #: snapshots of the same graph is sound.
    kernel_program: KernelProgramCache = field(
        default_factory=KernelProgramCache)
    #: Variants the exploration dropped because they violate Fcond.
    fcond_dropped: int = 0

    def __post_init__(self) -> None:
        if not self.term_key:
            self.term_key = cache_key(self.term)

    def with_strategies(self, strategies: tuple[str, ...]) -> "CachedPlan":
        return replace(self, physical_strategies=strategies)


class PlanCache:
    """LRU-bounded mapping from :class:`PlanKey` to :class:`CachedPlan`.

    Two memos of pure functions ride beside the plans, with the same
    capacity, and are cleared with them: the front end of each query
    text (:meth:`front_end`) and the key and inputs of each term object
    (:meth:`term_facts`).  Together they make a served hit a lookup: the
    text's memoized term is one object, so its facts memo hits too.

    The session counts the plan lookups' hits and misses in
    ``repro_plan_cache_total``; a plan pushed out of the ring counts
    there as ``outcome="evicted"``.  The two memos count nothing.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE):
        self._cache = LRUCache(capacity)
        self._term_facts = LRUCache(capacity)
        self._front_ends = LRUCache(capacity)

    def get(self, key: PlanKey) -> CachedPlan | None:
        return self._cache.get(key)

    def put(self, key: PlanKey, plan: CachedPlan) -> None:
        if self._cache.put(key, plan):
            get_registry().counter("repro_plan_cache_total",
                                   outcome="evicted").inc()

    def term_facts(self, term: Term) -> tuple[str, frozenset[str]]:
        """``(cache_key(term), free_variables(term))``, once per term object.

        The one memo of a term's key and of the relations it reads (a
        prepared template plans one object at every binding, a text's
        memoized front end hands out one object per text, and
        ``Query.cache_key`` reads it too).  Keyed by identity through a
        weak reference: no tree re-hashed, no term kept alive.
        """
        entry = self._term_facts.get(id(term))
        if entry is None or entry[0]() is not term:
            entry = (weakref.ref(term), cache_key(term), free_variables(term))
            self._term_facts.put(id(term), entry)
        return entry[1], entry[2]

    def front_end(self, text: str) -> "FrontEnd | None":
        """The memoized front end of UCRPQ ``text``, or ``None``."""
        return self._front_ends.get(text)

    def remember_front_end(self, text: str, entry: "FrontEnd") -> None:
        self._front_ends.put(text, entry)

    def clear(self) -> None:
        self._cache.clear()
        self._term_facts.clear()
        self._front_ends.clear()

    def __contains__(self, key: PlanKey) -> bool:
        """Membership probe with no LRU or counter side effects.

        The strict-mode admission gate uses this to decide whether a
        query was already analyzed-and-planned for the same schemas,
        statistics and config without counting a lookup.
        """
        return key in self._cache

    def __len__(self) -> int:
        return len(self._cache)
