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
  ``Pplw^pg`` delegates each local loop to the worker's PostgreSQL
  instance and pays for marshalling the rows both ways.

The plans differ in *where* the fixpoint step runs and what it
communicates, not in how a term is evaluated: every step is either the
bound columnar kernels or, under :func:`~repro.data.columnar.row_mode`,
an :class:`~repro.algebra.evaluate.Evaluator` — no plan applies a
relational operator itself.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

from ..algebra.conditions import decompose
from ..algebra.evaluate import Evaluator
from ..algebra.fixpoint import run_fixpoint, semi_naive
from ..algebra.kernels import KernelProgramCache, bind_program
from ..algebra.schema import infer_schema
from ..algebra.terms import Antijoin, Fixpoint, Join, Literal, Term
from ..algebra.variables import free_variables, is_constant_in
from ..algebra.visitors import transform_top_down, walk
from ..data.columnar import (ColumnarRelation, columnar_enabled, row_mode,
                             snapshot_dictionary)
from ..data.relation import Relation
from ..data.snapshot import adopt_database, database_schemas
from ..errors import DistributionError
from ..obs import tracing
from . import local_engine as local_engine_module
from .cluster import SparkCluster
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
        # runs its step (kernel chain, or the evaluator under row_mode) as
        # one task.  Either way the constant operands go out per iteration
        # (broadcast), their indexes are built on the first iteration and
        # reused after.
        bound = bind_program(self.kernel_cache, var, variable_part,
                             constant.columns, self._dictionary,
                             evaluator.evaluate_constant)
        if bound:
            task = self._kernel_partition_task(bound)
            broadcast_sizes = bound.broadcast_sizes
            indexed_ops, builds = bound.indexed_ops, bound.index_builds
        else:
            task, broadcast_sizes, indexed_ops, builds = \
                self._row_partition_task(var, variable_part,
                                         constant.columns, evaluator)

        def step(delta: DistributedRelation) -> DistributedRelation:
            nonlocal builds
            metrics.global_iterations += 1
            for size in broadcast_sizes:
                self.cluster.record_broadcast(size)
            for _ in range(builds):
                self.cluster.record_index_event(built=True)
            for _ in range(indexed_ops - builds):
                self.cluster.record_index_event(built=False)
            builds = 0
            return delta.map_partitions(task)

        seed = DistributedRelation.from_relation(self.cluster, constant)
        accumulator = DistinctAccumulator(seed)
        limit = MAX_GLOBAL_ITERATIONS
        semi_naive(step, accumulator, seed, var=var,
                   engine="columnar" if bound else "row",
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

    def _row_partition_task(self, var: str, variable_part: Term,
                            seed_columns: tuple[str, ...],
                            evaluator: Evaluator):
        """The ``row_mode()`` twin of :meth:`_kernel_partition_task`.

        Returns ``(task, broadcast_sizes, indexed_ops, index_builds)``,
        the four things the kernel path reads off its bound program.  The
        recursion-constant operands are evaluated once, here on the
        driver, and travel inside the shipped term as literals; the task
        is then the reference evaluator applied to one partition.
        """
        def freeze(node: Term) -> Term:
            if is_constant_in(node, var):
                return Literal(evaluator.evaluate_constant(node))
            return node

        shipped = transform_top_down(variable_part, freeze)
        broadcast_sizes: list[int] = []
        indexed_ops = builds = 0
        for node in walk(shipped):
            if not isinstance(node, (Join, Antijoin)):
                continue
            # Fcond linearity: exactly one side is a (frozen) constant.
            frozen, recursive = ((node.left, node.right)
                                 if isinstance(node.left, Literal)
                                 else (node.right, node.left))
            relation = frozen.relation
            broadcast_sizes.append(len(relation))
            recursive_columns = infer_schema(recursive, {},
                                             {var: seed_columns})
            common = tuple(c for c in recursive_columns
                           if c in relation.columns)
            if common:
                indexed_ops += 1
                builds += not relation.has_index(common)
                # Built here so in-process tasks share the one table.
                relation.index_on(common)
        return (partial(_evaluate_partition, shipped, var),
                tuple(broadcast_sizes), indexed_ops, builds)


def _evaluate_partition(term: Term, var: str, partition: Relation,
                        _worker_id: int) -> Relation:
    """One partition's row step: ``term`` with ``var`` bound to it."""
    return Evaluator({}).evaluate(term, env={var: partition})


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


def run_local_loop(fixpoint: Fixpoint, database: Mapping[str, Relation],
                   chunk: Relation, max_iterations: int, variant: str,
                   columnar: bool) -> LocalLoopOutcome:
    """One worker's ``Pplw`` local fixpoint over its chunk of the seed.

    Module-level so process-pool executors can ship it by name; ``database``
    holds only the broadcast relations the variable part needs.  Everything
    the driver decided travels as data — the iteration bound and the engine
    choice (``columnar``; a pool process does not see the driver's
    ``row_mode()``).  ``variant`` (``spark`` / ``postgres``) labels the span;
    the PostgreSQL variant also pays for marshalling the chunk in and the
    result back.  Joins against the broadcast relations go through their
    memoized indexes — under the threads backend the broadcast relations
    are shared objects, so one build serves every worker's loop.
    """
    variable_part = decompose(fixpoint).variable_part
    var = fixpoint.var
    evaluator = Evaluator(database)
    env: dict[str, Relation] = {}

    def row_step(delta: Relation) -> Relation:
        env[var] = delta
        return evaluator.evaluate(variable_part, env=env)

    engine = nullcontext() if columnar else row_mode()
    with engine, tracing.span("fixpoint.local_loop", var=var,
                              variant=variant, seed=len(chunk)) as loop_span:
        # The process-default program cache gives in-process task reuse
        # (compile once, bind per chunk).
        run = run_fixpoint(
            None, var, variable_part, chunk, snapshot_dictionary(database),
            evaluator.evaluate_constant, row_step, max_iterations,
            f"local fixpoint on {var!r} did not converge "
            f"within {max_iterations} iterations")
        loop_span.set_attribute("iterations", run.iterations)
        loop_span.set_attribute("total", len(run.relation))
    marshalled = len(chunk) + len(run.relation) if variant == "postgres" else 0
    return LocalLoopOutcome(
        relation=run.relation, iterations=run.iterations,
        tuples_marshalled=marshalled,
        index_builds=run.index_builds + evaluator.stats.index_builds,
        index_reuses=run.index_reuses + evaluator.stats.index_reuses)


class ParallelLocalLoops(DistributedFixpointPlan):
    """Common machinery of the two ``Pplw`` variants.

    Splits the constant part (by stable column when possible), broadcasts
    the recursion-constant relations of the variable part, and submits one
    local-fixpoint task per worker to the cluster's executor backend — the
    tasks share no state, which is exactly the paper's claim that the local
    loops run without coordination.  Subclasses name the variant.
    """

    #: ``spark`` or ``postgres``; see :func:`run_local_loop`.
    variant: str = "abstract"

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
        columnar = columnar_enabled()
        outcomes = self.cluster.run_tasks(
            run_local_loop,
            [(fixpoint, shipped, chunk, max_iterations, self.variant, columnar)
             for chunk in chunks])
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
    variant = "spark"


class ParallelLocalLoopsPostgres(ParallelLocalLoops):
    """``Pplw^pg``: each worker delegates its local loop to PostgreSQL.

    The worker's chunk becomes a view in the local engine, the fixpoint is
    executed there (benefitting from prebuilt indexes), and the result is
    iterated back — the marshalling in both directions is accounted for in
    the metrics, because it is what penalises this plan when intermediate
    data is small (Fig. 5).
    """

    name = PPLW_POSTGRES
    variant = "postgres"


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
