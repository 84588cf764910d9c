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
from typing import TYPE_CHECKING

from ..algebra.conditions import Decomposition, decompose
from ..algebra.evaluate import Evaluator
from ..algebra.fixpoint import run_fixpoint, semi_naive
from ..algebra.kernels import BoundKernel, KernelProgramCache, bind_program
from ..algebra.schema import infer_schema
from ..algebra.terms import Antijoin, Fixpoint, Join, Literal, Term
from ..algebra.variables import free_variables, is_constant_in
from ..algebra.visitors import transform_top_down, walk
from ..data.columnar import (ValueDictionary, columnar_enabled,
                             decode_rows, row_mode, snapshot_dictionary)
from ..data.relation import Relation
from ..data.snapshot import adopt_database, database_schemas
from ..errors import DistributionError
from ..obs import tracing
from . import local_engine as local_engine_module
from .cluster import SparkCluster
from .partitioner import (PartitioningDecision, plan_partitioning,
                          split_constant_part)
from .rdd import DistinctAccumulator, DistributedRelation, SetRDD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (physical.py imports us)
    from .physical import PhysicalPlan

#: Plan identifiers used in metrics, reports and the selection heuristic.
PGLD = "pgld"
PPLW_SPARK = "plw-spark"
PPLW_POSTGRES = "plw-postgres"

#: Safety bound on driver-side global iterations.
MAX_GLOBAL_ITERATIONS = 1_000_000


@dataclass
class DriverBind:
    """One variable part bound on the driver, once per execution.

    ``kernel`` is None when the row engine runs the step; ``row_term`` is
    then the variable part with its operands frozen into literals.  The
    rest is what the accounting reads: one broadcast per entry of
    ``broadcast_sizes`` and one index access per ``indexed_ops`` on every
    iteration, ``index_builds`` of which the bind itself had to build.
    """

    kernel: BoundKernel | None
    row_term: Term | None
    broadcast_sizes: tuple[int, ...]
    indexed_ops: int
    index_builds: int


def _freeze_operands(variable_part: Term, var: str, resolve) -> Term:
    """``variable_part`` with each recursion-constant operand a literal."""
    def freeze(node: Term) -> Term:
        if is_constant_in(node, var):
            return Literal(resolve(node))
        return node

    return transform_top_down(variable_part, freeze)


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
        #: The operand table of the last :meth:`execute` — every
        #: recursion-constant operand of the variable part, resolved — and
        #: how many of them that execution had to evaluate itself (the
        #: rest came from the snapshot's operand memo).
        self.operands: dict[Term, Relation] = {}
        self.operands_evaluated = 0

    def execute(self, fixpoint: Fixpoint,
                physical: PhysicalPlan | None = None) -> Relation:
        """Evaluate ``fixpoint`` against the plan's database.

        ``physical`` is the executor's analysis of this fixpoint
        (decomposition, partitioning); a direct caller leaves it out and
        the plan derives what it needs, once, here.
        """
        raise NotImplementedError

    # -- Shared helpers ----------------------------------------------------------

    def _central_evaluator(self) -> Evaluator:
        return Evaluator(self.database, kernel_cache=self.kernel_cache)

    def _check_closed(self, fixpoint: Fixpoint) -> None:
        unknown = free_variables(fixpoint) - set(self.database)
        if unknown:
            raise DistributionError(
                f"fixpoint references unknown relations {sorted(unknown)}")

    @staticmethod
    def _decomposition(fixpoint: Fixpoint,
                       physical: PhysicalPlan | None) -> Decomposition:
        return (physical.decomposition if physical is not None
                else decompose(fixpoint))

    def _partitioning(self, fixpoint: Fixpoint, physical: PhysicalPlan | None,
                      decomposition: Decomposition) -> PartitioningDecision:
        if self.partitioning_override is not None:
            return self.partitioning_override
        if physical is not None:
            return physical.partitioning
        return plan_partitioning(fixpoint, database_schemas(self.database),
                                 decomposition=decomposition)

    def _bind_on_driver(self, cache: KernelProgramCache | None, var: str,
                        variable_part: Term, seed_columns: tuple[str, ...],
                        evaluator: Evaluator) -> DriverBind:
        """Resolve the operands and bind the step, once, on the driver.

        Compile-and-bind the kernels (into ``cache``), or under
        ``row_mode()`` (and for shapes the kernels refuse) freeze the
        operands into the term the reference evaluator will run.  Either
        way every operand is resolved here — through the snapshot's memo,
        so a repeated execution finds relation, encoding and index
        already built — and the indexes the step probes exist before any
        task starts.
        """
        operands: dict[Term, Relation] = {}

        def resolve(term: Term) -> Relation:
            relation = operands[term] = evaluator.evaluate_constant(term)
            return relation

        evaluated_before = evaluator.stats.operands_evaluated
        kernel = bind_program(cache, var, variable_part, seed_columns,
                              self._dictionary, resolve)
        if kernel:
            bind = DriverBind(kernel, None, kernel.broadcast_sizes,
                              kernel.indexed_ops, kernel.index_builds)
        else:
            bind = self._bind_rows(var, variable_part, seed_columns, resolve)
        self.operands = operands
        self.operands_evaluated = (evaluator.stats.operands_evaluated
                                   - evaluated_before)
        return bind

    @staticmethod
    def _bind_rows(var: str, variable_part: Term,
                   seed_columns: tuple[str, ...], resolve) -> DriverBind:
        """The ``row_mode()`` twin of binding the kernels.

        Reads off the frozen join/antijoin operands the four things the
        kernel path reads off its bound program, and builds the indexes
        the row engine will probe so in-process tasks share the one table.
        """
        row_term = _freeze_operands(variable_part, var, resolve)
        broadcast_sizes: list[int] = []
        indexed_ops = builds = 0
        for node in walk(row_term):
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
                relation.index_on(common)
        return DriverBind(None, row_term, tuple(broadcast_sizes),
                          indexed_ops, builds)


class GlobalLoopOnDriver(DistributedFixpointPlan):
    """``Pgld``: the driver iterates, the workers evaluate each step.

    Every iteration ends with a global set difference and a global union,
    both of which repartition the data (``distinct()`` on Spark), so the
    number of shuffles grows linearly with the recursion depth.
    """

    name = PGLD

    def execute(self, fixpoint: Fixpoint,
                physical: PhysicalPlan | None = None) -> Relation:
        self._check_closed(fixpoint)
        decomposition = self._decomposition(fixpoint, physical)
        evaluator = self._central_evaluator()
        constant = evaluator.evaluate(decomposition.constant_part)
        if decomposition.variable_part is None:
            return constant
        var = fixpoint.var
        metrics = self.cluster.metrics
        # Per iteration each partition runs its step (kernel chain, or the
        # evaluator under row_mode) as one task.  Either way the constant
        # operands go out per iteration (broadcast), their indexes are
        # built on the first iteration and reused after.
        bind = self._bind_on_driver(self.kernel_cache, var,
                                    decomposition.variable_part,
                                    constant.columns, evaluator)
        if bind.kernel:
            task = self._kernel_partition_task(bind.kernel)
        else:
            task = partial(_evaluate_partition, bind.row_term, var)
        builds = bind.index_builds

        def step(delta: DistributedRelation) -> DistributedRelation:
            nonlocal builds
            metrics.global_iterations += 1
            for size in bind.broadcast_sizes:
                self.cluster.record_broadcast(size)
            for _ in range(builds):
                self.cluster.record_index_event(built=True)
            for _ in range(bind.indexed_ops - builds):
                self.cluster.record_index_event(built=False)
            builds = 0
            return delta.map_partitions(task)

        seed = DistributedRelation.from_relation(self.cluster, constant)
        accumulator = DistinctAccumulator(seed)
        limit = MAX_GLOBAL_ITERATIONS
        semi_naive(step, accumulator, seed, var=var,
                   engine="columnar" if bind.kernel else "row",
                   limit=limit,
                   nonconvergence=f"global loop on {var!r} did not converge "
                                  f"within {limit} iterations")
        return accumulator.relation()

    def _kernel_partition_task(self, bound: BoundKernel):
        """One partition's iteration step as a shippable closure.

        Encode, fused step, decode — all inside the task, on the same
        bound program the centralized loop runs.  Under the process
        backend the closure (dictionary and bound indexes included)
        travels via cloudpickle; a worker's dictionary copy may intern
        codes for values the driver has not seen, which is sound because
        the partition is decoded with that same copy before anything
        returns.
        """
        dictionary = self._dictionary
        columns = bound.out_schema
        step = bound.step

        def run(partition: Relation, _worker_id: int) -> Relation:
            produced = step(partition.columnar(dictionary).code_rows())
            return decode_rows(columns, produced, dictionary)
        return run


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


def run_local_loop(var: str, variable_part: Term,
                   operands: Mapping[Term, Relation],
                   dictionary: ValueDictionary, chunk: Relation,
                   max_iterations: int, variant: str,
                   columnar: bool) -> LocalLoopOutcome:
    """One worker's ``Pplw`` local fixpoint over its chunk of the seed.

    Module-level so process-pool executors can ship it by name.  The task
    receives results, not recipes: ``operands`` holds every
    recursion-constant operand of ``variable_part`` already resolved on
    the driver (the broadcast), ``dictionary`` is the snapshot's.  In
    process the relations — and the encodings and indexes memoized on
    them — are the driver's own objects, so a task only reuses; a pool
    process re-encodes and re-indexes what it unpickles.  Everything
    else the driver decided travels as data too — the iteration bound
    and the engine choice (``columnar``; a pool process does not see the
    driver's ``row_mode()``).  ``variant`` (``spark`` / ``postgres``)
    labels the span; the PostgreSQL variant also pays for marshalling
    the chunk in and the result back.
    """
    evaluator: Evaluator | None = None
    row_term: Term | None = None

    def row_step(delta: Relation) -> Relation:
        nonlocal evaluator, row_term
        if evaluator is None:
            # Only the row engine pays for an evaluator and for freezing
            # the operands in.
            evaluator = Evaluator({})
            row_term = _freeze_operands(variable_part, var,
                                        operands.__getitem__)
        return evaluator.evaluate(row_term, env={var: delta})

    engine = nullcontext() if columnar else row_mode()
    with engine, tracing.span("fixpoint.local_loop", var=var,
                              variant=variant, seed=len(chunk)) as loop_span:
        # The process-default program cache gives in-process task reuse
        # (compile once, bind per chunk).
        run = run_fixpoint(
            None, var, variable_part, chunk, dictionary,
            operands.__getitem__, row_step, max_iterations,
            f"local fixpoint on {var!r} did not converge "
            f"within {max_iterations} iterations")
        loop_span.set_attribute("iterations", run.iterations)
        loop_span.set_attribute("total", len(run.relation))
    marshalled = len(chunk) + len(run.relation) if variant == "postgres" else 0
    builds, reuses = run.index_builds, run.index_reuses
    if evaluator is not None:
        builds += evaluator.stats.index_builds
        reuses += evaluator.stats.index_reuses
    return LocalLoopOutcome(
        relation=run.relation, iterations=run.iterations,
        tuples_marshalled=marshalled, index_builds=builds,
        index_reuses=reuses)


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

    def execute(self, fixpoint: Fixpoint,
                physical: PhysicalPlan | None = None) -> Relation:
        self._check_closed(fixpoint)
        decomposition = self._decomposition(fixpoint, physical)
        evaluator = self._central_evaluator()
        constant = evaluator.evaluate(decomposition.constant_part)
        variable_part = decomposition.variable_part
        if variable_part is None:
            return constant
        var = fixpoint.var
        metrics = self.cluster.metrics
        decision = self._partitioning(fixpoint, physical, decomposition)
        metrics.partitioning = decision.strategy
        chunks = split_constant_part(constant, self.cluster, decision)
        self._broadcast_variable_part(variable_part, var)
        # Broadcast once: the operands are resolved (and their indexes
        # built) here, and every task receives the same table.  Bound
        # through the process-default program cache, the one the tasks
        # read: in process their binds find the program compiled.
        bind = self._bind_on_driver(None, var, variable_part,
                                    constant.columns, evaluator)
        max_iterations = local_engine_module.MAX_LOCAL_ITERATIONS
        columnar = columnar_enabled()
        outcomes = self.cluster.run_tasks(
            run_local_loop,
            [(var, variable_part, self.operands, self._dictionary, chunk,
              max_iterations, self.variant, columnar) for chunk in chunks])
        local_results: list[Relation] = []
        for worker_id, outcome in enumerate(outcomes):
            loop: LocalLoopOutcome = outcome.value
            self.cluster.record_worker_tuples(worker_id, len(loop.relation))
            metrics.local_iterations += loop.iterations
            metrics.tuples_marshalled += loop.tuples_marshalled
            metrics.index_builds += loop.index_builds
            metrics.index_reuses += loop.index_reuses
            local_results.append(loop.relation)
        # The driver's bind was the first access of each index, on the
        # tasks' behalf: what it built, some task found built and
        # reported as a reuse.
        metrics.index_builds += bind.index_builds
        metrics.index_reuses -= min(bind.index_builds, metrics.index_reuses)
        return self._final_union(local_results, constant.columns, decision)

    # -- Shared steps ----------------------------------------------------------------

    def _broadcast_variable_part(self, variable_part: Term, var: str) -> None:
        """Record the broadcast of every base relation used by the recursion."""
        for name in sorted(free_variables(variable_part) - {var}):
            if name in self.database:
                self.cluster.record_broadcast(len(self.database[name]))

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
