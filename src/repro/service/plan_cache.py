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
  worker count, whether the optimizer runs) and the graph.

A hit skips ``MuRewriter.explore`` and ``rank_plans`` entirely and goes
straight to execution with the previously selected plan.  What the key
reads of a term — its canonical key and the relations it reads — is
memoized on the term itself (:func:`plan_facts`), so building the key
of a term planned before looks nothing up.

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

from dataclasses import dataclass, field
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


def plan_facts(term: Term) -> tuple[str, frozenset[str]]:
    """``(cache_key(term), free_variables(term))``, once per term object.

    What a plan key reads of a term: its canonical key and the relations
    it reads.  Memoized on the (immutable) term, like
    :meth:`~repro.data.stats.RelationStats.of` on a relation: a prepared
    template plans one object at every binding and a text's memoized
    front end hands out one object per text, so a served hit looks
    nothing up for them.  Concurrent first readers race benignly to
    equal values.
    """
    facts = term._plan_facts
    if facts is None:
        facts = (cache_key(term), free_variables(term))
        object.__setattr__(term, "_plan_facts", facts)
    return facts


@dataclass(frozen=True)
class PlanKey:
    """Identity of one plan-selection decision."""

    term_key: str
    #: ``(name, columns, StatisticsCatalog.signature(name))`` of every
    #: relation the query reads: what explore and rank read of them.
    #: A signature reads the statistics memoized on the relation, so a
    #: relation is summarized at the first key built over it, not at
    #: the commit that made it.
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
        The term's key and the relations it reads are memoized on the
        term (:func:`plan_facts`).
        """
        snapshot = snapshot if snapshot is not None else engine.snapshot()
        term_key, dependencies = plan_facts(term)
        schemas, catalog = snapshot.schemas, snapshot.catalog
        config = (
            strategy if strategy is not None else engine.strategy,
            engine.cluster.num_workers,
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
    """The decisions recorded for one optimized query, by the plan phase
    (``Session.resolve_plan``) only; no execution rewrites them."""

    #: The selected logical plan, in canonical form.
    term: Term
    cost: float
    plans_explored: int
    #: Free relation variables of the selected plan (result-cache deps).
    dependencies: frozenset[str]
    #: ``cache_key(term)``, precomputed so cache hits never re-canonicalize
    #: the selected plan (it is the result-cache key of every execution).
    term_key: str = ""
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


class PlanCache:
    """LRU-bounded mapping from :class:`PlanKey` to :class:`CachedPlan`.

    One memo of a pure function rides beside the plans, with the same
    capacity, and is cleared with them: the front end of each query text
    (:meth:`front_end`).  Its term is one object per text, and that
    object carries its own key and inputs (:func:`plan_facts`), so a
    served hit of a text is three lookups: front end, plan, result.

    The session counts the plan lookups' hits and misses in
    ``repro_plan_cache_total``; a plan pushed out of the ring counts
    there as ``outcome="evicted"``.  The memo counts nothing.
    """

    def __init__(self, capacity: int = DEFAULT_PLAN_CACHE_SIZE):
        self._cache = LRUCache(capacity)
        self._front_ends = LRUCache(capacity)

    def get(self, key: PlanKey) -> CachedPlan | None:
        return self._cache.get(key)

    def put(self, key: PlanKey, plan: CachedPlan) -> None:
        if self._cache.put(key, plan):
            get_registry().counter("repro_plan_cache_total",
                                   outcome="evicted").inc()

    def front_end(self, text: str) -> "FrontEnd | None":
        """The memoized front end of UCRPQ ``text``, or ``None``."""
        return self._front_ends.get(text)

    def remember_front_end(self, text: str, entry: "FrontEnd") -> None:
        self._front_ends.put(text, entry)

    def clear(self) -> None:
        self._cache.clear()
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
