"""Physical plan generation, selection and distributed query execution.

The ``PhysicalPlanGenerator`` of Dist-mu-RA takes the selected logical plan
and decides how its fixpoints will be executed on the cluster:

* ``Pgld`` is generated as the baseline,
* the two ``Pplw`` variants are generated, and the choice between them
  follows the heuristic of Section III-D: when the datasets appearing in
  the variable part of the fixpoint exceed the memory available to a task,
  delegate the local loops to the per-worker PostgreSQL-like engine
  (``Pplw^pg``); otherwise keep them as Spark operations over broadcast
  relations (``Pplw^s``).

:class:`DistributedQueryExecutor` evaluates a full mu-RA term: its
outermost fixpoints are executed with the selected distributed plan, the
surrounding non-recursive operators are evaluated as ordinary (Catalyst-
optimised, in the real system) dataset operations.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace

from ..algebra.conditions import Decomposition
from ..algebra.evaluate import Evaluator
from ..algebra.kernels import KernelProgramCache, SeedShape
from ..algebra.terms import Fixpoint, Literal, Term
from ..algebra.variables import free_variables
from ..data.relation import Relation
from ..data.snapshot import adopt_database, database_schemas
from ..errors import PlanSelectionError, ReproError
from ..obs import tracing
from .cluster import SparkCluster
from .partitioner import (FixpointAnalysis, PartitioningDecision,
                          analyse_fixpoint, analyse_fixpoints)
from .plans import (PGLD, PLAN_CLASSES, PPLW_POSTGRES, PPLW_SPARK,
                    DistributedFixpointPlan, make_plan)

#: Default per-task memory budget, expressed in tuples (the simulation's
#: unit of data volume).  Mirrors the "memory available for a task" of the
#: selection heuristic.
DEFAULT_MEMORY_PER_TASK = 200_000

#: Strategy name meaning "let the heuristic decide".
AUTO = "auto"


@dataclass(frozen=True)
class PhysicalPlan:
    """The physical execution decision for one fixpoint.

    Carries the whole static analysis of the fixpoint — its
    ``mu(X = R U phi)`` form beside the partitioning and the seed shape
    derived from it — so the plan that executes it analyses nothing a
    second time.
    """

    strategy: str
    fixpoint: Fixpoint
    partitioning: PartitioningDecision
    variable_part_size: int
    decomposition: Decomposition
    seed: SeedShape | None

    def describe(self) -> str:
        return (f"{self.strategy} (partitioning={self.partitioning.strategy}, "
                f"variable-part size={self.variable_part_size})")


@dataclass
class ExecutionOutcome:
    """Result of one distributed execution, with its physical decisions."""

    relation: Relation
    physical_plans: list[PhysicalPlan] = field(default_factory=list)

    @property
    def strategies(self) -> tuple[str, ...]:
        return tuple(plan.strategy for plan in self.physical_plans)


class PhysicalPlanGenerator:
    """Generate and select physical plans for the fixpoints of a term."""

    def __init__(self, cluster: SparkCluster, database: Mapping[str, Relation],
                 memory_per_task: int = DEFAULT_MEMORY_PER_TASK,
                 kernel_cache: KernelProgramCache | None = None):
        self.cluster = cluster
        self.database = adopt_database(database)
        self.memory_per_task = memory_per_task
        self.kernel_cache = kernel_cache
        self.schemas = database_schemas(self.database)

    # -- Plan generation ---------------------------------------------------------

    def candidate_strategies(self) -> tuple[str, ...]:
        """All physical strategies the generator can emit."""
        return (PGLD, PPLW_SPARK, PPLW_POSTGRES)

    def generate(self, fixpoint: Fixpoint) -> list[PhysicalPlan]:
        """Generate one physical plan per strategy for a fixpoint."""
        analysed = self.select(fixpoint)
        return [replace(analysed, strategy=strategy)
                for strategy in self.candidate_strategies()]

    def select(self, fixpoint: Fixpoint) -> PhysicalPlan:
        """Select the physical plan for one fixpoint (heuristic of §III-D)."""
        return self.physical(fixpoint, AUTO,
                             analyse_fixpoint(fixpoint, self.schemas))

    def physical(self, fixpoint: Fixpoint, strategy: str,
                 analysis: FixpointAnalysis) -> PhysicalPlan:
        """Plan ``fixpoint``, analysed as ``analysis``, under ``strategy``.

        :data:`AUTO` applies the selection heuristic: local loops in the
        per-worker engine when the variable part's datasets exceed the
        memory of a task, as Spark operations otherwise.  The size it
        compares reads the database, so it is decided per execution.
        """
        decomposition = analysis.decomposition
        size = self.variable_part_size(decomposition)
        if strategy == AUTO:
            strategy = (PPLW_POSTGRES if size > self.memory_per_task
                        else PPLW_SPARK)
        return PhysicalPlan(
            strategy=strategy, fixpoint=fixpoint,
            partitioning=analysis.partitioning,
            variable_part_size=size, decomposition=decomposition,
            seed=analysis.seed)

    def variable_part_size(self, decomposition: Decomposition) -> int:
        """Total size of the datasets appearing in the variable part.

        This is the quantity the selection heuristic compares against the
        per-task memory: the constant subterms of the variable part are the
        relations that ``Pplw^s`` would broadcast (or ``Pplw^pg`` would
        query from the local engine) at every iteration.
        """
        if decomposition.variable_part is None:
            return 0
        names = free_variables(decomposition.variable_part) \
            - {decomposition.var}
        return sum(len(self.database[name]) for name in names
                   if name in self.database)

    # -- Execution ----------------------------------------------------------------

    def plan_for(self, strategy: str) -> DistributedFixpointPlan:
        if strategy not in PLAN_CLASSES:
            raise PlanSelectionError(
                f"unknown strategy {strategy!r}; known: {sorted(PLAN_CLASSES)}")
        return make_plan(strategy, self.cluster, self.database,
                         kernel_cache=self.kernel_cache)


class DistributedQueryExecutor:
    """Evaluate a mu-RA term with distributed fixpoint execution."""

    def __init__(self, cluster: SparkCluster, database: Mapping[str, Relation],
                 strategy: str = AUTO,
                 memory_per_task: int = DEFAULT_MEMORY_PER_TASK,
                 kernel_cache: KernelProgramCache | None = None):
        self.cluster = cluster
        self.database = adopt_database(database)
        self.strategy = strategy
        self.kernel_cache = kernel_cache
        self.generator = PhysicalPlanGenerator(cluster, self.database,
                                               memory_per_task=memory_per_task,
                                               kernel_cache=kernel_cache)

    def execute(self, term: Term,
                analysis: tuple[FixpointAnalysis, ...] | None = None,
                ) -> ExecutionOutcome:
        """Execute ``term``: distributed fixpoints, central surrounding ops.

        ``analysis`` is ``analyse_fixpoints(term, schemas)`` when the
        caller holds it (a cached plan does); otherwise it is derived
        here, by the same function.
        """
        if analysis is None:
            analysis = analyse_fixpoints(term, self.generator.schemas)
        physical_plans: list[PhysicalPlan] = []
        rewritten = self._execute_fixpoints(term, iter(analysis),
                                            physical_plans)
        evaluator = Evaluator(self.database, kernel_cache=self.kernel_cache)
        relation = evaluator.evaluate(rewritten)
        return ExecutionOutcome(relation=relation, physical_plans=physical_plans)

    # -- Internals ------------------------------------------------------------------

    def _execute_fixpoints(self, term: Term,
                           analyses: Iterator[FixpointAnalysis],
                           physical_plans: list[PhysicalPlan]) -> Term:
        """Replace every outermost fixpoint by the relation it evaluates to."""
        if isinstance(term, Fixpoint):
            analysis = next(analyses, None)
            if analysis is None or analysis.decomposition.var != term.var:
                raise PlanSelectionError(
                    f"the fixpoint analysis does not match the term at "
                    f"fixpoint {term.var!r}")
            physical = self.generator.physical(term, self.strategy, analysis)
            physical_plans.append(physical)
            plan = self.generator.plan_for(physical.strategy)
            if not tracing.tracing_enabled():
                relation = plan.execute(term, physical)
            else:
                with tracing.span(
                        "fixpoint", var=term.var, strategy=physical.strategy,
                        partitioning=physical.partitioning.strategy,
                        ) as fixpoint_span:
                    estimate = self._estimate_cardinality(term)
                    if estimate is not None:
                        fixpoint_span.set_attribute("estimated_rows", estimate)
                    relation = plan.execute(term, physical)
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
            return Literal(relation, name=f"fixpoint[{physical.strategy}]")
        children = term.children()
        if not children:
            return term
        new_children = tuple(
            self._execute_fixpoints(child, analyses, physical_plans)
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
            return CardinalityEstimator(self.database).cardinality(fixpoint)
        except ReproError:
            return None
