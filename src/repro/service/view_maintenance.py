"""Incremental maintenance of cached recursive results across commits.

Result-cache keys are snapshot-qualified, so a commit never *corrupts* a
cached entry — but it does strand it: the next query against the new
head misses and pays a full fixpoint recomputation, even when the commit
added one edge to millions.  This module closes that gap for insertions.
After a commit produces the successor snapshot, :class:`ViewMaintainer`
walks the graph's result cache and, for every entry of the pre-commit
head whose inputs the commit touched, either *maintains* the cached
result or leaves it to the normal miss path:

* **Insert resume** — when the touched dependencies only gained rows,
  the semi-naive loop is resumed from the cached fixpoint: the
  accumulator is seeded with the old result, the new constant part and
  one application of the variable part against the old result provide
  the initial deltas, and the loop runs to convergence on genuinely new
  rows only.  Sound for the same reason semi-naive evaluation is —
  the Fcond conditions make the variable part distribute over unions
  (Proposition 1) and monotone in every touched input — so the old
  result is a subset of the new one and a valid seed.
* **Cost fallback** — a commit that *removed* rows from a touched input
  invalidates: the paper's fixpoints are monotone and have no deletion
  story, so the old result is no longer a subset of the new one and
  seeds nothing (``DESIGN.md`` has the measured cost of the deletion
  algebra this replaced).  So does a commit whose delta is a large
  fraction of the touched inputs (measured against the snapshot's
  :class:`~repro.data.stats.StatisticsCatalog` cardinalities), where a
  resume converges in nearly as many rounds as a cold start.  Either
  way the entry is passed over and the next query recomputes through
  the normal miss path.

Maintenance is *best effort by construction*: every skip (unsupported
plan shape, a touched input under an antijoin's right side — a
nonmonotone position where insertions can shrink the result — or a
fallback) merely leaves the entry stale, which is exactly the
pre-maintenance behaviour.  A maintained entry is re-registered under
the successor fingerprint with :meth:`ResultCache.promote`; the old
entry stays valid for readers pinned to the superseded snapshot until
the next commit that touches its inputs drops it.

Maintenance evaluates with the centralized reference
:class:`~repro.algebra.evaluate.Evaluator` (deltas are small by the
fallback policy, so distribution would cost more than it saves) and
never touches the cluster or the execution lock.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..algebra.conditions import decompose
from ..algebra.evaluate import Evaluator
from ..algebra.fixpoint import semi_naive
from ..algebra.terms import Antijoin, Fixpoint, Rename, RelVar, Term
from ..algebra.visitors import walk
from ..data.relation import Relation
from ..data.snapshot import DatabaseSnapshot, RelationDelta
from ..data.storage import DeltaAccumulator
from ..errors import EvaluationError, FixpointConditionError
from ..obs import tracing
from ..obs.logs import get_logger, log_event
from ..obs.metrics import get_registry
from .result_cache import ResultCache, ResultKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from ..session.session import QueryResult

#: Structured module logger (see :func:`repro.obs.configure_logging`).
logger = get_logger("repro.service")

#: Skip incremental maintenance when the commit changed more than this
#: fraction of the rows of the entry's touched inputs: past that point a
#: resume converges in nearly as many rounds as a cold start.
DEFAULT_DELTA_THRESHOLD = 0.25

#: Most-recently-used entries maintained per commit.  Commits are on the
#: write path (synchronous mode runs under the graph's commit lock), so
#: the work per commit must stay bounded no matter how large the cache is;
#: entries past the bound just go stale, as they always did.
DEFAULT_MAX_ENTRIES_PER_COMMIT = 16

#: Most recent decisions retained in a :class:`MaintenanceStats` log.  A
#: long-running session keeps its last stats object alive (and "sync"
#: mode records one decision per touched entry per commit), so the log is
#: a bounded window — the integer counters stay exact over the lifetime.
DEFAULT_DECISION_LOG = 256

#: ``MaintenanceDecision.action`` values.
RESUMED = "insert-resume"
FALLBACK = "fallback-recompute"
SKIPPED_SHAPE = "skipped-shape"
SKIPPED_NONMONOTONE = "skipped-nonmonotone"
SKIPPED_UNCONVERGED = "skipped-unconverged"


@dataclass(frozen=True)
class MaintenanceDecision:
    """What the maintainer did (or declined to do) for one cache entry."""

    plan_key: str
    graph: str
    action: str
    #: Changed rows across the entry's touched inputs (insertions plus
    #: deletions) and the catalog cardinality those inputs now have.
    delta_rows: int = 0
    base_rows: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class MaintenanceStats:
    """Outcome of one :meth:`ViewMaintainer.maintain_commit` pass."""

    examined: int = 0
    resumed: int = 0
    fallbacks: int = 0
    skipped: int = 0
    #: Bounded decision window (oldest evicted first); the counters above
    #: are exact regardless of the bound.
    decisions: deque[MaintenanceDecision] = field(
        default_factory=lambda: deque(maxlen=DEFAULT_DECISION_LOG))

    def record(self, decision: MaintenanceDecision) -> None:
        self.decisions.append(decision)
        if decision.action == RESUMED:
            self.resumed += 1
        elif decision.action == FALLBACK:
            self.fallbacks += 1
        else:
            self.skipped += 1

    def summary(self) -> dict[str, int]:
        return {"examined": self.examined, "resumed": self.resumed,
                "fallbacks": self.fallbacks, "skipped": self.skipped}


def _publish_decision(decision: MaintenanceDecision) -> None:
    """Count one maintenance decision in the process metrics registry."""
    get_registry().counter("repro_maintenance_decisions_total",
                           action=decision.action).inc()


class ViewMaintainer:
    """Maintain a graph's cached fixpoint results across one commit."""

    def __init__(self, *,
                 delta_threshold: float = DEFAULT_DELTA_THRESHOLD,
                 max_entries_per_commit: int = DEFAULT_MAX_ENTRIES_PER_COMMIT):
        self.delta_threshold = delta_threshold
        self.max_entries_per_commit = max_entries_per_commit

    # -- The per-commit pass -------------------------------------------------

    def maintain_commit(self, cache: ResultCache,
                        old_head: DatabaseSnapshot,
                        new_head: DatabaseSnapshot) -> MaintenanceStats:
        """Maintain every eligible entry of ``cache`` across one commit.

        ``old_head``/``new_head`` are the snapshots before and after the
        head swap (``new_head`` must be a direct :meth:`mutate` successor
        of ``old_head`` — its :meth:`~DatabaseSnapshot.deltas` describe
        exactly this commit).  Returns the decision log; never raises for
        an individual entry — an entry that cannot be maintained is left
        stale, which is the pre-maintenance behaviour.
        """
        stats = MaintenanceStats()
        deltas = {name: delta for name, delta in new_head.deltas().items()
                  if delta}
        if not deltas:
            return stats
        # Most recently used first: under the per-commit bound, the
        # entries kept warm are the ones traffic is actually hitting.
        candidates = list(reversed(cache.entries()))
        for key, result in candidates:
            if stats.examined >= self.max_entries_per_commit:
                break
            if key.graph != new_head.graph_name:
                continue
            dependencies = tuple(name for name, _ in key.fingerprint)
            touched = {name: deltas[name] for name in dependencies
                       if name in deltas}
            if not touched:
                # Untouched inputs: the entry's fingerprint still matches
                # the new head, so it keeps hitting without any work.
                continue
            if key.fingerprint != old_head.fingerprint(dependencies):
                # Superseded by an earlier commit: this delta alone cannot
                # maintain it, and only readers pinned two commits back
                # could reach it.  They recompute; keeping it strands rows.
                cache.discard(key)
                continue
            stats.examined += 1
            entry_span = tracing.span(
                "maintenance.entry", graph=key.graph,
                plan_key=key.plan_key[:24]) if tracing.tracing_enabled() \
                else tracing.NOOP_SPAN
            with entry_span:
                decision = self._maintain_entry(cache, key, result, touched,
                                                new_head)
                if entry_span.enabled:
                    entry_span.set_attribute("action", decision.action)
                    entry_span.set_attribute("delta_rows",
                                             decision.delta_rows)
            stats.record(decision)
            _publish_decision(decision)
            log_event(logger, "view maintenance", level=logging.DEBUG,
                      graph=decision.graph, plan_key=decision.plan_key[:24],
                      action=decision.action, delta_rows=decision.delta_rows,
                      base_rows=decision.base_rows)
        return stats

    # -- One entry -----------------------------------------------------------

    def _maintain_entry(self, cache: ResultCache, key: ResultKey,
                        result: "QueryResult",
                        touched: dict[str, RelationDelta],
                        new_head: DatabaseSnapshot) -> MaintenanceDecision:
        started = time.perf_counter()
        delta_rows = sum(delta.size for delta in touched.values())
        base_rows = sum(len(new_head[name]) for name in touched
                        if name in new_head)

        def decide(action: str) -> MaintenanceDecision:
            return MaintenanceDecision(
                plan_key=key.plan_key, graph=key.graph, action=action,
                delta_rows=delta_rows, base_rows=base_rows,
                elapsed_seconds=time.perf_counter() - started)

        peeled = _peel_renames(result.selected_plan)
        if peeled is None:
            return decide(SKIPPED_SHAPE)
        renames, fixpoint = peeled
        if _touches_nonmonotone_position(fixpoint, touched):
            return decide(SKIPPED_NONMONOTONE)
        if any(delta.removed for delta in touched.values()) \
                or delta_rows > self.delta_threshold * max(base_rows, 1):
            return decide(FALLBACK)
        try:
            maintained = self._insert_resume(
                fixpoint, _unwrap(result.relation, renames), new_head)
        except FixpointConditionError:
            # The plan's fixpoint does not decompose (no constant part,
            # or an Fcond violation the rewriter let through): the
            # maintenance algebra does not apply, recompute on next miss.
            return decide(SKIPPED_SHAPE)
        except EvaluationError:
            # The resume loop hit its iteration bound — the plan itself
            # already evaluated cleanly against the predecessor snapshot.
            # Not an Fcond matter: the entry just goes stale and the next
            # read recomputes.
            return decide(SKIPPED_UNCONVERGED)
        relation = _rewrap(maintained, renames)
        elapsed = time.perf_counter() - started
        maintained_result = replace(result, relation=relation,
                                    elapsed_seconds=elapsed,
                                    snapshot_version=new_head.version)
        new_key = replace(key, fingerprint=new_head.fingerprint(
            name for name, _ in key.fingerprint))
        cache.promote(key, new_key, maintained_result)
        return decide(RESUMED)

    # -- Insert resume -------------------------------------------------------

    def _insert_resume(self, fixpoint: Fixpoint, old_result: Relation,
                       new_head: DatabaseSnapshot) -> Relation:
        """Resume the semi-naive loop from the old fixpoint value.

        With insert-only deltas on monotone positions the old result is
        a subset of the new one, so seeding the accumulator with it is
        sound; convergence then costs O(new derivations) instead of
        O(whole fixpoint).  The initial frontier is everything one step
        ahead of the seed — the new constant part plus one application
        of the variable part — minus the seed.
        """
        evaluator = Evaluator(new_head)
        decomposition = decompose(fixpoint)
        constant = evaluator.evaluate(decomposition.constant_part)
        variable_part, var = decomposition.variable_part, decomposition.var
        if variable_part is None:
            return constant

        def step(delta: Relation) -> Relation:
            return evaluator.evaluate(variable_part, env={var: delta})

        accumulator = DeltaAccumulator(old_result)
        frontier = accumulator.absorb(constant)
        if old_result:
            frontier = frontier.union(accumulator.absorb(step(old_result)))
        limit = evaluator.max_iterations
        semi_naive(step, accumulator, frontier, var=var, engine="row",
                   limit=limit,
                   nonconvergence=f"maintenance resume on {var!r} did not "
                                  f"converge after {limit} iterations")
        return accumulator.relation()


# -- Plan-shape analysis ---------------------------------------------------


def _peel_renames(plan: Term) -> tuple[list[tuple[str, str]], Fixpoint] | None:
    """Split ``Rename*(Fixpoint)`` plans into the rename chain and the core.

    Renames are the one wrapper maintenance can see through: they are
    invertible column relabelings, so the cached (outer-schema) relation
    maps one-to-one onto the fixpoint's value.  Any other shape — joins
    above the fixpoint, projections (which drop the columns a resume
    needs), unions of fixpoints — returns ``None`` and the entry is left
    to the normal recompute path.
    """
    renames: list[tuple[str, str]] = []
    term = plan
    while isinstance(term, Rename):
        renames.append((term.old, term.new))
        term = term.child
    if not isinstance(term, Fixpoint):
        return None
    return renames, term


def _unwrap(relation: Relation, renames: list[tuple[str, str]]) -> Relation:
    """Undo the rename chain: outer cached schema -> fixpoint schema."""
    # Outermost first: invert in peel order.
    return relation.rename_chain((new, old) for old, new in renames)


def _rewrap(relation: Relation, renames: list[tuple[str, str]]) -> Relation:
    """Re-apply the rename chain: fixpoint schema -> cached entry schema."""
    return relation.rename_chain(reversed(renames))


def _touches_nonmonotone_position(fixpoint: Fixpoint,
                                  touched: dict[str, RelationDelta]) -> bool:
    """Whether a touched relation feeds an antijoin's right operand.

    The right side of an antijoin is the one nonmonotone position Fcond
    admits (it must be constant in the recursion variable, but it may
    read base relations): growing it can *shrink* the result, so
    the insert resume's subset argument does not hold and the entry
    must fall back to recomputation.
    """
    for node in walk(fixpoint):
        if isinstance(node, Antijoin):
            for sub in walk(node.right):
                if isinstance(sub, RelVar) and sub.name in touched:
                    return True
    return False
