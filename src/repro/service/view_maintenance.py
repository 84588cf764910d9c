"""Incremental maintenance of cached recursive results across commits.

Result-cache keys are snapshot-qualified, so a commit never *corrupts* a
cached entry — but it does strand it: the next query against the new
head misses and pays a full fixpoint recomputation, even when the commit
touched one edge out of millions.  This module closes that gap.  After a
commit produces the successor snapshot, :class:`ViewMaintainer` walks
the graph's result cache and, for every entry whose inputs the commit
touched, tries to *maintain* the cached result instead of letting it go
stale:

* **Insert resume** — when the touched dependencies only gained rows,
  the semi-naive loop is resumed from the cached fixpoint: the
  accumulator is seeded with the old result, the new constant part and
  one application of the variable part against the old result provide
  the initial deltas, and the loop runs to convergence on genuinely new
  rows only.  Sound for the same reason semi-naive evaluation is —
  the Fcond conditions make the variable part distribute over unions
  (Proposition 1) and monotone in every touched input — so the old
  result is a subset of the new one and a valid seed.
* **Delete and re-derive (DRed)** — when rows were removed, maintenance
  *overdeletes* everything whose derivation may have used a removed row
  (seeded from the constant-part and one-step rule differences, then
  propagated through the old rules), subtracts the overdeleted set and
  resumes the semi-naive loop from the surviving subset under the new
  database.  The resume pass re-derives overdeleted rows that have
  surviving alternative derivations and absorbs any insertions of the
  same commit in one pass (Gupta, Mumick & Subrahmanian's DRed,
  specialized to one linear fixpoint).
* **Cost-model fallback** — when the commit's delta is a large fraction
  of the touched inputs (measured against the snapshot's
  :class:`~repro.data.stats.StatisticsCatalog` cardinalities),
  incremental work would approach a full recomputation while paying
  DRed's overdeletion overhead on top; the entry is skipped and the next
  query recomputes through the normal miss path.

Maintenance is *best effort by construction*: every skip (unsupported
plan shape, a touched input under an antijoin's right side — a
nonmonotone position where insertions can shrink the result — or an
oversized delta) merely leaves the entry stale, which is exactly the
pre-maintenance behaviour.  A maintained entry is re-registered under
the successor fingerprint with :meth:`ResultCache.promote`; the old
entry stays valid for readers pinned to the superseded snapshot.

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
#: resume converges in nearly as many rounds as a cold start, and DRed's
#: overdeletion pass makes it a net loss.
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
REDERIVED = "dred"
FALLBACK = "fallback-recompute"
SKIPPED_SHAPE = "skipped-shape"
SKIPPED_NONMONOTONE = "skipped-nonmonotone"
SKIPPED_STALE = "skipped-stale"
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

    @property
    def maintained(self) -> bool:
        return self.action in (RESUMED, REDERIVED)


@dataclass
class MaintenanceStats:
    """Outcome of one :meth:`ViewMaintainer.maintain_commit` pass."""

    examined: int = 0
    resumed: int = 0
    rederived: int = 0
    fallbacks: int = 0
    skipped: int = 0
    #: Bounded decision window (oldest evicted first); the counters above
    #: are exact regardless of the bound.
    decisions: deque[MaintenanceDecision] = field(
        default_factory=lambda: deque(maxlen=DEFAULT_DECISION_LOG))

    @property
    def maintained(self) -> int:
        return self.resumed + self.rederived

    def record(self, decision: MaintenanceDecision) -> None:
        self.decisions.append(decision)
        if decision.action == RESUMED:
            self.resumed += 1
        elif decision.action == REDERIVED:
            self.rederived += 1
        elif decision.action == FALLBACK:
            self.fallbacks += 1
        else:
            self.skipped += 1

    def summary(self) -> dict[str, int]:
        return {"examined": self.examined, "resumed": self.resumed,
                "rederived": self.rederived, "fallbacks": self.fallbacks,
                "skipped": self.skipped}


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
                # The entry belongs to an older version than the commit's
                # predecessor; maintaining it across *this* delta would
                # skip the intermediate commits' changes.
                stats.examined += 1
                decision = MaintenanceDecision(
                    plan_key=key.plan_key, graph=key.graph,
                    action=SKIPPED_STALE)
                stats.record(decision)
                _publish_decision(decision)
                continue
            stats.examined += 1
            entry_span = tracing.span(
                "maintenance.entry", graph=key.graph,
                plan_key=key.plan_key[:24]) if tracing.tracing_enabled() \
                else tracing.NOOP_SPAN
            with entry_span:
                decision = self._maintain_entry(cache, key, result, touched,
                                                old_head, new_head)
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
                        old_head: DatabaseSnapshot,
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
        if delta_rows > self.delta_threshold * max(base_rows, 1):
            return decide(FALLBACK)
        try:
            old_result = _unwrap(result.relation, renames)
            removing = any(delta.removed for delta in touched.values())
            if removing:
                maintained = self._delete_and_rederive(
                    fixpoint, old_result, touched, old_head, new_head)
                action = REDERIVED
            else:
                maintained = self._insert_resume(
                    fixpoint, old_result, new_head)
                action = RESUMED
        except FixpointConditionError:
            # The plan's fixpoint does not decompose (no constant part,
            # or an Fcond violation the rewriter let through): the
            # maintenance algebra does not apply, recompute on next miss.
            return decide(SKIPPED_SHAPE)
        except EvaluationError:
            # The resume or overdeletion loop hit its iteration bound —
            # the plan itself already evaluated cleanly against the
            # predecessor snapshot.  Not an Fcond matter: the entry just
            # goes stale and the next read recomputes.
            return decide(SKIPPED_UNCONVERGED)
        relation = _rewrap(maintained, renames)
        elapsed = time.perf_counter() - started
        maintained_result = replace(result, relation=relation,
                                    elapsed_seconds=elapsed,
                                    snapshot_version=new_head.version)
        new_key = replace(key, fingerprint=new_head.fingerprint(
            name for name, _ in key.fingerprint))
        cache.promote(key, new_key, maintained_result)
        return decide(action)

    # -- Insert resume -------------------------------------------------------

    def _insert_resume(self, fixpoint: Fixpoint, old_result: Relation,
                       new_head: DatabaseSnapshot) -> Relation:
        """Resume the semi-naive loop from the old fixpoint value.

        With insert-only deltas on monotone positions the old result is
        a subset of the new one, so seeding the accumulator with it is
        sound; convergence then costs O(new derivations) instead of
        O(whole fixpoint).
        """
        evaluator = Evaluator(new_head)
        decomposition = decompose(fixpoint)
        constant = evaluator.evaluate(decomposition.constant_part)
        if decomposition.variable_part is None:
            return constant
        return _resume(evaluator, decomposition.variable_part,
                       decomposition.var, seed=old_result,
                       constant=constant)

    # -- Delete and re-derive ------------------------------------------------

    def _delete_and_rederive(self, fixpoint: Fixpoint, old_result: Relation,
                             touched: dict[str, RelationDelta],
                             old_head: DatabaseSnapshot,
                             new_head: DatabaseSnapshot) -> Relation:
        """DRed: overdelete, subtract, then resume under the new database.

        The overdeletion pass works entirely against the *old* database
        (propagating through the old rules over-approximates, which is
        the safe direction); the resume pass then runs under the *new*
        database, re-deriving overdeleted rows with surviving alternative
        derivations and absorbing the commit's insertions in one loop.
        """
        # The old database minus the removed rows (insertions excluded):
        # the difference between rules over this and over the old
        # database is exactly what the removals can have broken.
        minus_db = dict(old_head)
        for name, delta in touched.items():
            if delta.removed and name in minus_db:
                minus_db[name] = minus_db[name].difference(delta.removed)
        eval_old = Evaluator(old_head)
        eval_minus = Evaluator(minus_db)
        decomposition = decompose(fixpoint)
        constant_old = eval_old.evaluate(decomposition.constant_part)
        constant_minus = eval_minus.evaluate(decomposition.constant_part)
        eval_new = Evaluator(new_head)
        constant_new = eval_new.evaluate(decomposition.constant_part)
        variable_part = decomposition.variable_part
        var = decomposition.var
        if variable_part is None:
            return constant_new
        # Overdeletion seed: rows whose *direct* derivation lost support —
        # from the constant part, or from one rule application over the
        # old result whose inputs included a removed row.
        lost_constant = constant_old.difference(constant_minus)
        step_old = eval_old.evaluate(variable_part, env={var: old_result})
        step_minus = eval_minus.evaluate(variable_part, env={var: old_result})
        overdeleted = DeltaAccumulator(lost_constant)
        frontier = overdeleted.absorb(step_old.difference(step_minus)) \
            .union(lost_constant)
        # Propagate: anything derivable *from* an overdeleted row may
        # itself have lost its derivation.  Old rules over-approximate.
        _converge(eval_old, variable_part, var, overdeleted, frontier,
                  "overdeletion")
        candidate = old_result.difference(overdeleted.relation())
        # Resume under the new database: re-derives overdeleted rows that
        # still have support and folds in this commit's insertions.
        return _resume(eval_new, variable_part, var, seed=candidate,
                       constant=constant_new)


# -- Shared semi-naive resume loop ----------------------------------------


def _resume(evaluator: Evaluator, variable_part: Term, var: str, *,
            seed: Relation, constant: Relation) -> Relation:
    """Run the semi-naive loop to convergence from an already-known subset.

    ``seed`` must be a subset of the fixpoint being computed (the insert
    path's old result; DRed's surviving candidate set).  The initial
    frontier is everything one step ahead of the seed — the constant
    part plus one application of the variable part — minus the seed.
    """
    accumulator = DeltaAccumulator(seed)
    frontier = accumulator.absorb(constant)
    step = evaluator.evaluate(variable_part, env={var: seed}) if seed \
        else Relation.empty(constant.columns)
    frontier = frontier.union(accumulator.absorb(step))
    _converge(evaluator, variable_part, var, accumulator, frontier, "resume")
    return accumulator.relation()


def _converge(evaluator: Evaluator, variable_part: Term, var: str,
              accumulator: DeltaAccumulator, frontier: Relation,
              phase: str) -> None:
    """Drive ``accumulator`` to convergence from a pre-seeded frontier."""
    limit = evaluator.max_iterations
    semi_naive(
        lambda delta: evaluator.evaluate(variable_part, env={var: delta}),
        accumulator, frontier, var=var, engine="row", limit=limit,
        nonconvergence=f"maintenance {phase} on {var!r} did not converge "
                       f"after {limit} iterations")


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
    read base relations): growing it can *shrink* the result, so neither
    the insert resume nor DRed's over-approximation argument holds and
    the entry must fall back to recomputation.
    """
    for node in walk(fixpoint):
        if isinstance(node, Antijoin):
            for sub in walk(node.right):
                if isinstance(sub, RelVar) and sub.name in touched:
                    return True
    return False
