"""The distributed fixpoint execution plans: Pgld, Pplw^s and Pplw^pg.

Section III of the paper contrasts two ways of distributing a fixpoint on a
Spark cluster:

* **Pgld** (global loop on the driver): the natural Spark implementation of
  Algorithm 1.  The driver runs the loop; every iteration evaluates the
  variable part as distributed Dataset operations and performs the union /
  set-difference with ``distinct()``, which costs at least one shuffle per
  iteration.
* **Pplw** (parallel local loops on the workers): the constant part is
  split across workers (Proposition 3 — fixpoint splitting) and every
  worker runs its *own complete fixpoint locally*, with no data exchange
  during the recursion.  A single shuffle may remain for the final union,
  and even that one disappears when the split used a stable column
  (Section III-B).  Two physical variants exist: ``Pplw^s`` runs the local
  loops with Spark operations over a SetRDD and broadcast joins, while
  ``Pplw^pg`` delegates each local loop to the worker's PostgreSQL-like
  engine (:class:`~repro.distributed.local_engine.LocalSQLEngine`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from ..algebra.conditions import decompose
from ..algebra.evaluate import Evaluator
from ..algebra.fixpoint import run_fixpoint, semi_naive
from ..algebra.kernels import KernelProgramCache, bind_program
from ..algebra.terms import (AntiProject, Antijoin, Filter, Fixpoint, Join,
                             Rename, RelVar, Term, Union)
from ..algebra.variables import free_variables, is_constant_in
from ..data.columnar import ColumnarRelation, snapshot_dictionary
from ..data.relation import Relation
from ..data.snapshot import adopt_database, database_schemas
from ..errors import DistributionError
from ..obs import tracing
from . import local_engine as local_engine_module
from .cluster import SparkCluster
from .local_engine import LocalSQLEngine
from .partitioner import (PartitioningDecision, plan_partitioning,
                          split_constant_part)
from .rdd import DistinctAccumulator, DistributedRelation, SetRDD

#: Plan identifiers used in metrics, reports and the selection heuristic.
PGLD = "pgld"
PPLW_SPARK = "plw-spark"
PPLW_POSTGRES = "plw-postgres"

#: Safety bound on driver-side global iterations.
MAX_GLOBAL_ITERATIONS = 1_000_000


class DistributedFixpointPlan:
    """Base class of the three physical fixpoint plans."""

    name: str = "abstract"

    def __init__(self, cluster: SparkCluster, database: Mapping[str, Relation],
                 partitioning_override: PartitioningDecision | None = None,
                 kernel_cache: KernelProgramCache | None = None):
        self.cluster = cluster
        # The shared value dictionary rides on the snapshot; captured here
        # because adopt_database may hand back a plain mapping.
        self._dictionary = snapshot_dictionary(database)
        #: Compiled-kernel cache shared with the plan cache entry that
        #: selected this plan; ``None`` falls back to the process default.
        self.kernel_cache = kernel_cache
        # Immutable snapshots are adopted as-is (broadcasts then ship the
        # snapshot's own relations, hash indexes included); mutable
        # mappings are defensively copied, as before.
        self.database = adopt_database(database)
        #: When set, bypass the stable-column analysis and use this decision
        #: instead (used by the partitioning ablation benchmark).
        self.partitioning_override = partitioning_override

    def execute(self, fixpoint: Fixpoint) -> Relation:
        """Evaluate ``fixpoint`` against the plan's database."""
        raise NotImplementedError

    # -- Shared helpers ----------------------------------------------------------

    def _central_evaluator(self) -> Evaluator:
        return Evaluator(self.database, kernel_cache=self.kernel_cache)

    def _check_closed(self, fixpoint: Fixpoint) -> None:
        unknown = free_variables(fixpoint) - set(self.database)
        if unknown:
            raise DistributionError(
                f"fixpoint references unknown relations {sorted(unknown)}")

    def _partitioning(self, fixpoint: Fixpoint) -> PartitioningDecision:
        if self.partitioning_override is not None:
            return self.partitioning_override
        schemas = database_schemas(self.database)
        return plan_partitioning(fixpoint, schemas)

    def _warm_broadcast_index(self, relation: Relation,
                              common: tuple[str, ...]) -> None:
        """Index a broadcast relation on the join columns, once.

        The relation comes from the evaluator's constant cache, so it is
        the same object on every iteration: the first call builds the hash
        index, later calls find it memoized — recorded in the cluster
        metrics so benchmarks can show the reuse.
        """
        if not common:
            return
        self.cluster.record_index_event(built=not relation.has_index(common))
        relation.index_on(common)


class GlobalLoopOnDriver(DistributedFixpointPlan):
    """``Pgld``: the driver iterates, the workers evaluate each step.

    Every iteration ends with a global set difference and a global union,
    both of which repartition the data (``distinct()`` on Spark), so the
    number of shuffles grows linearly with the recursion depth.
    """

    name = PGLD

    def execute(self, fixpoint: Fixpoint) -> Relation:
        self._check_closed(fixpoint)
        decomposition = decompose(fixpoint)
        evaluator = self._central_evaluator()
        constant = evaluator.evaluate(decomposition.constant_part)
        if decomposition.variable_part is None:
            return constant
        variable_part = decomposition.variable_part
        var = fixpoint.var
        metrics = self.cluster.metrics
        # Compile-and-bind once on the driver; per iteration each partition
        # runs the kernel chain (encode -> step -> decode) as one task.
        # ``None`` falls back to tuple-at-a-time distributed evaluation.
        bound = bind_program(self.kernel_cache, var, variable_part,
                             constant.columns, self._dictionary,
                             evaluator.evaluate_constant)
        kernel_task = self._kernel_partition_task(bound) if bound else None
        builds = bound.index_builds if bound else 0

        def step(delta: DistributedRelation) -> DistributedRelation:
            nonlocal builds
            metrics.global_iterations += 1
            if kernel_task is None:
                return self._evaluate_distributed(variable_part, var, delta,
                                                  evaluator)
            # Same communication pattern as the row path: the constant
            # operands go out per iteration (broadcast), their indexes are
            # built on the first iteration and reused after.
            for size in bound.broadcast_sizes:
                self.cluster.record_broadcast(size)
            for _ in range(builds):
                self.cluster.record_index_event(built=True)
            for _ in range(bound.indexed_ops - builds):
                self.cluster.record_index_event(built=False)
            builds = 0
            return delta.map_partitions(kernel_task)

        seed = DistributedRelation.from_relation(self.cluster, constant)
        accumulator = DistinctAccumulator(seed)
        limit = MAX_GLOBAL_ITERATIONS
        semi_naive(step, accumulator, seed, var=var,
                   engine="columnar" if kernel_task else "row",
                   limit=limit,
                   nonconvergence=f"global loop on {var!r} did not converge "
                                  f"within {limit} iterations")
        return accumulator.dataset.collect()

    def _kernel_partition_task(self, bound):
        """One partition's iteration step as a shippable closure.

        Encode, kernel chain, decode — all inside the task.  Under the
        process backend the closure (dictionary and bound indexes
        included) travels via cloudpickle; a worker's dictionary copy may
        intern codes for values the driver has not seen, which is sound
        because the partition is decoded with that same copy before
        anything returns.
        """
        dictionary = self._dictionary
        step = bound.step

        def run(partition: Relation, _worker_id: int) -> Relation:
            batch = step(partition.columnar(dictionary).batch())
            return ColumnarRelation(batch.columns, batch.arrays,
                                    dictionary).to_relation()
        return run

    # -- Distributed evaluation of the variable part -------------------------------

    def _evaluate_distributed(self, term: Term, var: str,
                              dataset: DistributedRelation,
                              evaluator: Evaluator) -> DistributedRelation:
        """Evaluate a term where ``var`` is bound to a distributed dataset.

        Operators applied to the recursive side become per-partition tasks;
        joins against recursion-constant relations are broadcast joins; the
        recursion-constant subterms themselves are evaluated once on the
        driver.
        """
        if isinstance(term, RelVar) and term.name == var:
            return dataset
        if is_constant_in(term, var):
            relation = evaluator.evaluate_constant(term)
            return DistributedRelation.from_relation(self.cluster, relation)
        if isinstance(term, Filter):
            child = self._evaluate_distributed(term.child, var, dataset, evaluator)
            return child.filter(term.predicate)
        if isinstance(term, Rename):
            child = self._evaluate_distributed(term.child, var, dataset, evaluator)
            return child.map_partitions(
                lambda partition, _: partition.rename(term.old, term.new))
        if isinstance(term, AntiProject):
            child = self._evaluate_distributed(term.child, var, dataset, evaluator)
            return child.map_partitions(
                lambda partition, _: partition.antiproject(term.columns))
        if isinstance(term, Join):
            return self._binary(term, var, dataset, evaluator,
                                broadcast="join")
        if isinstance(term, Antijoin):
            return self._binary(term, var, dataset, evaluator,
                                broadcast="antijoin")
        if isinstance(term, Union):
            left = self._evaluate_distributed(term.left, var, dataset, evaluator)
            right = self._evaluate_distributed(term.right, var, dataset, evaluator)
            merged = [mine.union(theirs)
                      for mine, theirs in zip(left.partitions, right.partitions)]
            return DistributedRelation(self.cluster, merged)
        if isinstance(term, Fixpoint):
            # A nested fixpoint that is not constant in var would be mutual
            # recursion, which Fcond excludes; reaching this means the term
            # is malformed.
            raise DistributionError(
                "nested fixpoints depending on the outer recursive variable "
                "are not supported (mutual recursion)")
        raise DistributionError(
            f"cannot distribute term of type {type(term).__name__}")

    def _binary(self, term: Join | Antijoin, var: str,
                dataset: DistributedRelation, evaluator: Evaluator,
                broadcast: str) -> DistributedRelation:
        left_constant = is_constant_in(term.left, var)
        right_constant = is_constant_in(term.right, var)
        if left_constant == right_constant:
            raise DistributionError(
                "exactly one operand of a join/antijoin may depend on the "
                "recursive variable (Fcond linearity)")
        recursive_side = term.right if left_constant else term.left
        constant_side = term.left if left_constant else term.right
        recursive_dataset = self._evaluate_distributed(recursive_side, var,
                                                       dataset, evaluator)
        # The constant side is memoized on the evaluator: every iteration
        # broadcasts (and probes the index of) the very same relation.
        constant_relation = evaluator.evaluate_constant(constant_side)
        common = tuple(c for c in recursive_dataset.columns
                       if c in constant_relation.columns)
        if broadcast == "join":
            self._warm_broadcast_index(constant_relation, common)
            return recursive_dataset.join_broadcast(constant_relation)
        if not left_constant:
            self._warm_broadcast_index(constant_relation, common)
            return recursive_dataset.antijoin_broadcast(constant_relation)
        raise DistributionError(
            "the recursive variable may not appear on the right of an "
            "antijoin (Fcond positivity)")


@dataclass(frozen=True)
class LocalLoopOutcome:
    """What one worker's local fixpoint task reports back to the driver.

    The tasks run on the executor backend — possibly in another thread or
    process — so everything they observe (iteration counts, marshalled
    tuples) travels back as data instead of being written into the shared
    :class:`~repro.distributed.cluster.ClusterMetrics` mid-flight.
    """

    relation: Relation
    iterations: int
    tuples_marshalled: int = 0
    index_builds: int = 0
    index_reuses: int = 0


def run_spark_local_loop(fixpoint: Fixpoint, database: Mapping[str, Relation],
                         chunk: Relation, max_iterations: int) -> LocalLoopOutcome:
    """One worker's ``Pplw^s`` local fixpoint (semi-naive, Spark-style ops).

    Module-level so process-pool executors can ship it by name; ``database``
    holds only the broadcast relations the variable part needs.  The result
    grows in a delta accumulator and joins against the broadcast relations
    go through their memoized indexes — under the threads backend the
    broadcast relations are shared objects, so one build serves every
    worker's loop.
    """
    variable_part = decompose(fixpoint).variable_part
    var = fixpoint.var
    evaluator = Evaluator(database)
    env: dict[str, Relation] = {}

    def row_step(delta: Relation) -> Relation:
        env[var] = delta
        return evaluator.evaluate(variable_part, env=env)

    with tracing.span("fixpoint.local_loop", var=var, variant="spark",
                      seed=len(chunk)) as loop_span:
        # The process-default program cache gives in-process task reuse
        # (compile once, bind per chunk).
        run = run_fixpoint(
            None, var, variable_part, chunk, snapshot_dictionary(database),
            evaluator.evaluate_constant, row_step, max_iterations,
            f"local fixpoint on {var!r} did not converge "
            f"within {max_iterations} iterations")
        loop_span.set_attribute("iterations", run.iterations)
        loop_span.set_attribute("total", len(run.relation))
    return LocalLoopOutcome(
        relation=run.relation, iterations=run.iterations,
        index_builds=run.index_builds + evaluator.stats.index_builds,
        index_reuses=run.index_reuses + evaluator.stats.index_reuses)


def run_postgres_local_loop(fixpoint: Fixpoint, database: Mapping[str, Relation],
                            chunk: Relation, max_iterations: int) -> LocalLoopOutcome:
    """One worker's ``Pplw^pg`` local fixpoint, delegated to the local engine."""
    engine = LocalSQLEngine(database, max_iterations=max_iterations)
    marshalled = len(chunk)
    with tracing.span("fixpoint.local_loop", var=fixpoint.var,
                      variant="postgres", seed=len(chunk)) as loop_span:
        result = engine.evaluate_fixpoint(fixpoint, seed_override=chunk)
        loop_span.set_attribute("iterations", engine.stats.iterations)
        loop_span.set_attribute("total", len(result))
    marshalled += len(result)
    return LocalLoopOutcome(relation=result, iterations=engine.stats.iterations,
                            tuples_marshalled=marshalled,
                            index_builds=engine.stats.index_builds,
                            index_reuses=engine.stats.index_reuses)


class ParallelLocalLoops(DistributedFixpointPlan):
    """Common machinery of the two ``Pplw`` variants.

    Splits the constant part (by stable column when possible), broadcasts
    the recursion-constant relations of the variable part, and submits one
    local-fixpoint task per worker to the cluster's executor backend — the
    tasks share no state, which is exactly the paper's claim that the local
    loops run without coordination.  Subclasses pick the task function.
    """

    #: Module-level function computing one worker's local fixpoint.
    local_loop_task = None

    def execute(self, fixpoint: Fixpoint) -> Relation:
        self._check_closed(fixpoint)
        decomposition = decompose(fixpoint)
        evaluator = self._central_evaluator()
        constant = evaluator.evaluate(decomposition.constant_part)
        if decomposition.variable_part is None:
            return constant
        decision = self._partitioning(fixpoint)
        self.cluster.metrics.partitioning = decision.strategy
        chunks = split_constant_part(constant, self.cluster, decision)
        broadcast_names = self._broadcast_variable_part(
            decomposition.variable_part, fixpoint.var)
        # The worker tasks receive exactly the broadcast relations: the
        # constant part arrives pre-evaluated as the chunk, so this is what
        # a real cluster would put on the wire (and what the process
        # backend pickles per task).
        shipped = {name: self.database[name] for name in broadcast_names}
        max_iterations = local_engine_module.MAX_LOCAL_ITERATIONS
        outcomes = self.cluster.run_tasks(
            type(self).local_loop_task,
            [(fixpoint, shipped, chunk, max_iterations) for chunk in chunks])
        local_results: list[Relation] = []
        for worker_id, outcome in enumerate(outcomes):
            loop: LocalLoopOutcome = outcome.value
            self.cluster.record_worker_tuples(worker_id, len(loop.relation))
            self.cluster.metrics.local_iterations += loop.iterations
            self.cluster.metrics.tuples_marshalled += loop.tuples_marshalled
            self.cluster.metrics.index_builds += loop.index_builds
            self.cluster.metrics.index_reuses += loop.index_reuses
            local_results.append(loop.relation)
        return self._final_union(local_results, constant.columns, decision)

    # -- Shared steps ----------------------------------------------------------------

    def _broadcast_variable_part(self, variable_part: Term,
                                 var: str) -> list[str]:
        """Record the broadcast of every base relation used by the recursion.

        Returns the broadcast relation names; the caller ships exactly
        those to the worker tasks, keeping the communication accounting
        and the actual task payload in lockstep.
        """
        broadcast_names = sorted(name
                                 for name in free_variables(variable_part) - {var}
                                 if name in self.database)
        for name in broadcast_names:
            self.cluster.record_broadcast(len(self.database[name]))
        return broadcast_names

    def _final_union(self, locals_: list[Relation], columns: tuple[str, ...],
                     decision: PartitioningDecision) -> Relation:
        set_rdd = SetRDD(self.cluster, [
            chunk if chunk.columns == columns else Relation(columns, chunk.rows)
            for chunk in locals_
        ])
        if decision.disjoint:
            # Stable-column partitioning: the local fixpoints are pairwise
            # disjoint, no duplicate elimination (and no shuffle) is needed.
            self.cluster.metrics.final_union_skipped = True
            return set_rdd.collect_no_dedup()
        total = set_rdd.count()
        self.cluster.record_shuffle(total)
        collected = set_rdd.collect()
        self.cluster.metrics.duplicates_eliminated += total - len(collected)
        return collected


class ParallelLocalLoopsSpark(ParallelLocalLoops):
    """``Pplw^s``: local loops implemented with Spark operations.

    Each worker iterates on its own SetRDD partition; joins against the
    broadcast relations and partition-wise union / set-difference never
    exchange data with other workers.
    """

    name = PPLW_SPARK
    local_loop_task = staticmethod(run_spark_local_loop)


class ParallelLocalLoopsPostgres(ParallelLocalLoops):
    """``Pplw^pg``: each worker delegates its local loop to PostgreSQL.

    The worker's chunk becomes a view in the local engine, the fixpoint is
    executed there (benefitting from prebuilt indexes), and the result is
    iterated back — the marshalling in both directions is accounted for in
    the metrics, because it is what penalises this plan when intermediate
    data is small (Fig. 5).
    """

    name = PPLW_POSTGRES
    local_loop_task = staticmethod(run_postgres_local_loop)


#: Registry used by the physical plan generator and the benchmarks.
PLAN_CLASSES = {
    PGLD: GlobalLoopOnDriver,
    PPLW_SPARK: ParallelLocalLoopsSpark,
    PPLW_POSTGRES: ParallelLocalLoopsPostgres,
}


def make_plan(name: str, cluster: SparkCluster,
              database: Mapping[str, Relation],
              kernel_cache: KernelProgramCache | None = None,
              ) -> DistributedFixpointPlan:
    """Instantiate a fixpoint plan by name (``pgld``, ``plw-spark``, ``plw-postgres``)."""
    try:
        plan_class = PLAN_CLASSES[name]
    except KeyError as exc:
        raise DistributionError(
            f"unknown physical plan {name!r}; known plans: {sorted(PLAN_CLASSES)}"
        ) from exc
    return plan_class(cluster, database, kernel_cache=kernel_cache)
