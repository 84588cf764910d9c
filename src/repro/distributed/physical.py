"""Distributed query execution: the physical plan of every fixpoint.

:class:`DistributedQueryExecutor` evaluates a full mu-RA term: each of
its outermost fixpoints is executed with a distributed plan — ``Pgld``,
or ``Pplw^s``, which :data:`AUTO` resolves to — and the surrounding
non-recursive operators are evaluated as ordinary (Catalyst-optimised,
in the real system) dataset operations.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from ..algebra.evaluate import Evaluator
from ..algebra.kernels import KernelProgramCache
from ..algebra.terms import Fixpoint, Literal, Term
from ..data.relation import Relation
from ..data.snapshot import as_snapshot
from ..errors import PlanSelectionError, ReproError
from ..obs import tracing
from .cluster import SparkCluster
from .partitioner import FixpointAnalysis, analyse_fixpoints
from .plans import PLAN_CLASSES, PPLW_SPARK, make_plan

#: Strategy name meaning "let the executor choose"; it resolves to Pplw^s.
AUTO = "auto"

#: Every strategy name a session, a query handle or an executor accepts.
STRATEGIES = (AUTO, *PLAN_CLASSES)


def check_strategy(strategy: str) -> str:
    """``strategy``, or :class:`~repro.errors.PlanSelectionError` when it
    names no strategy of :data:`STRATEGIES`."""
    if strategy not in STRATEGIES:
        raise PlanSelectionError(
            f"unknown strategy {strategy!r}; known: {', '.join(STRATEGIES)}")
    return strategy


@dataclass(frozen=True)
class ExecutionOutcome:
    """Result of one distributed execution, with the strategy each
    outermost fixpoint ran under."""

    relation: Relation
    strategies: tuple[str, ...] = ()


class DistributedQueryExecutor:
    """Evaluate a mu-RA term with distributed fixpoint execution."""

    def __init__(self, cluster: SparkCluster, database: Mapping[str, Relation],
                 strategy: str = AUTO,
                 kernel_cache: KernelProgramCache | None = None):
        check_strategy(strategy)
        self.cluster = cluster
        self.database = as_snapshot(database)
        self.strategy = PPLW_SPARK if strategy == AUTO else strategy
        self.kernel_cache = kernel_cache

    def execute(self, term: Term,
                analysis: tuple[FixpointAnalysis, ...] | None = None,
                ) -> ExecutionOutcome:
        """Execute ``term``: distributed fixpoints, central surrounding ops.

        ``analysis`` is ``analyse_fixpoints(term, schemas)`` when the
        caller holds it (a cached plan does); otherwise it is derived
        here, by the same function.
        """
        if analysis is None:
            analysis = analyse_fixpoints(term, self.database.schemas)
        strategies: list[str] = []
        rewritten = self._execute_fixpoints(term, iter(analysis), strategies)
        evaluator = Evaluator(self.database, kernel_cache=self.kernel_cache)
        relation = evaluator.evaluate(rewritten)
        return ExecutionOutcome(relation=relation,
                                strategies=tuple(strategies))

    # -- Internals ------------------------------------------------------------------

    def _execute_fixpoints(self, term: Term,
                           analyses: Iterator[FixpointAnalysis],
                           strategies: list[str]) -> Term:
        """Replace every outermost fixpoint by the relation it evaluates to."""
        if isinstance(term, Fixpoint):
            analysis = next(analyses, None)
            if analysis is None or analysis.decomposition.var != term.var:
                raise PlanSelectionError(
                    f"the fixpoint analysis does not match the term at "
                    f"fixpoint {term.var!r}")
            strategies.append(self.strategy)
            plan = make_plan(self.strategy, self.cluster, self.database,
                             kernel_cache=self.kernel_cache)
            if not tracing.tracing_enabled():
                relation = plan.execute(term, analysis)
            else:
                with tracing.span(
                        "fixpoint", var=term.var, strategy=self.strategy,
                        partitioning=analysis.partitioning.strategy,
                        ) as fixpoint_span:
                    estimate = self._estimate_cardinality(term)
                    if estimate is not None:
                        fixpoint_span.set_attribute("estimated_rows", estimate)
                    relation = plan.execute(term, analysis)
                    fixpoint_span.set_attribute("actual_rows", len(relation))
                    # Whether this execution paid for its operands: those
                    # not evaluated here came from the snapshot's memo.
                    fixpoint_span.set_attribute("operands", len(plan.operands))
                    fixpoint_span.set_attribute(
                        "operand_rows",
                        sum(len(r) for r in plan.operands.values()))
                    fixpoint_span.set_attribute("operands_evaluated",
                                                plan.operands_evaluated)
                    if estimate:
                        fixpoint_span.set_attribute(
                            "drift", round(len(relation) / estimate, 4))
            return Literal(relation, name=f"fixpoint[{self.strategy}]")
        children = term.children()
        if not children:
            return term
        new_children = tuple(
            self._execute_fixpoints(child, analyses, strategies)
            for child in children)
        if new_children != children:
            term = term.with_children(new_children)
        return term

    def _estimate_cardinality(self, fixpoint: Fixpoint) -> int | None:
        """Cost-model estimate for one fixpoint, or ``None`` when the
        estimator rejects it with a :class:`~repro.errors.ReproError`.

        Only called when tracing is enabled (EXPLAIN ANALYZE's
        estimate-vs-actual drift) — the disabled path never pays for it.
        Any other exception is a cost-model defect and propagates, as in
        :func:`~repro.cost.selection.rank_plans`.
        """
        from ..cost.cardinality import CardinalityEstimator
        try:
            return CardinalityEstimator(
                self.database.catalog).cardinality(fixpoint)
        except ReproError:
            return None
