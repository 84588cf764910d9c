"""The distributed fixpoint execution plans: Pgld and Pplw.

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
  (Section III-B).  The paper runs the local loops either as Spark
  operations over broadcast relations (``Pplw^s``) or in a per-worker
  PostgreSQL (``Pplw^pg``); here every local loop runs on the shared
  engines, so there is one ``Pplw`` plan, ``Pplw^s``.

The plans differ in *where* the fixpoint step runs and what it
communicates, not in how a term is evaluated: every step is either the
bound columnar kernels or, under :func:`~repro.data.columnar.row_mode`,
an :class:`~repro.algebra.evaluate.Evaluator` — no plan applies a
relational operator itself.  On the kernels a fixpoint stays in code
space from its seed to its result: a seed holding a join is computed by
a seed program, both plans split it (``Pplw`` into chunks, ``Pgld``'s
loop its every delta into partitions) as code tuples with exactly the
row engine's assignments, ``Pgld`` accumulates ``X`` as codes on the
driver, and each result is decoded once.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial

from ..algebra.evaluate import Evaluator
from ..algebra.fixpoint import run_fixpoint, run_seed, semi_naive
from ..algebra.kernels import BoundKernel, KernelProgramCache, bind_program
from ..algebra.schema import infer_schema
from ..algebra.terms import Antijoin, Fixpoint, Join, Literal, Term
from ..algebra.variables import free_variables, is_constant_in
from ..algebra.visitors import transform_top_down, walk
from ..data.columnar import (CodeRows, ColumnarDeltaAccumulator,
                             ValueDictionary, columnar_enabled,
                             row_repr, snapshot_dictionary,
                             split_round_robin)
from ..data.relation import Relation
from ..data.snapshot import adopt_database, database_schemas
from ..errors import DistributionError
from ..obs import tracing
from .cluster import SparkCluster
from .partitioner import (FixpointAnalysis, PartitioningDecision,
                          analyse_fixpoint, split_constant_part)

#: Plan identifiers used in metrics, reports and strategy names.
PGLD = "pgld"
PPLW_SPARK = "plw-spark"

#: Safety bound on driver-side global iterations.
MAX_GLOBAL_ITERATIONS = 1_000_000
#: Safety bound on the iterations of one worker's local fixpoint.
MAX_LOCAL_ITERATIONS = 1_000_000


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
    """Base class of the two physical fixpoint plans."""

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
                analysis: FixpointAnalysis | None = None) -> Relation:
        """Evaluate ``fixpoint`` against the plan's database.

        ``analysis`` is the executor's analysis of this fixpoint
        (decomposition, partitioning, seed shape); a direct caller leaves
        it out and the plan analyses the fixpoint once, here.
        """
        raise NotImplementedError

    # -- Shared helpers ----------------------------------------------------------

    def _analysis(self, fixpoint: Fixpoint,
                  analysis: FixpointAnalysis | None) -> FixpointAnalysis:
        """Raise unless ``fixpoint`` reads only known relations; return
        ``analysis``, or the fixpoint's own when none is given."""
        unknown = free_variables(fixpoint) - set(self.database)
        if unknown:
            raise DistributionError(
                f"fixpoint references unknown relations {sorted(unknown)}")
        if analysis is None:
            analysis = analyse_fixpoint(fixpoint,
                                        database_schemas(self.database))
        return analysis

    def _seed_and_bind(self, cache: KernelProgramCache | None,
                       fixpoint: Fixpoint, analysis: FixpointAnalysis,
                       ) -> tuple[Relation | CodeRows, DriverBind | None]:
        """The seed, and the step bound once on the driver.

        Compile-and-bind the step's kernels (into ``cache``), or under
        ``row_mode()`` (and for shapes the kernels refuse) freeze the
        operands into the term the reference evaluator will run.  Either
        way every operand is resolved here — through the snapshot's memo,
        so a repeated execution finds relation, encoding and index
        already built — and the indexes the step probes exist before any
        task starts.  When the kernels run the step and the seed has a
        :class:`~repro.algebra.kernels.SeedShape`, the seed is computed
        on them too, as code tuples, *after* the step's bind: an index
        the two share is the step's, built (and accounted) as the row
        engine builds it.  Otherwise the seed is evaluated on rows.
        Either way the seed's operands stay out of :attr:`operands`,
        which is what the tasks receive: no step reads them.  The bind
        is None for a fixpoint without a variable part.
        """
        operands: dict[Term, Relation] = {}
        evaluator = Evaluator(self.database, kernel_cache=self.kernel_cache)

        def resolve(term: Term) -> Relation:
            relation = operands[term] = evaluator.evaluate_constant(term)
            return relation

        self.operands = operands
        constant_part = analysis.decomposition.constant_part
        variable_part = analysis.decomposition.variable_part
        shape = (analysis.seed if variable_part is not None
                 and columnar_enabled() else None)
        seed = bind = None
        if shape is not None:
            bind = self._bind_step(cache, fixpoint.var, variable_part,
                                   shape.columns, resolve)
            if bind.kernel:
                seed = run_seed(self.kernel_cache, shape, constant_part,
                                self.database[shape.leaf], self._dictionary,
                                evaluator.evaluate_constant)
        if seed is None:
            seed = evaluator.evaluate(constant_part)
        if bind is None and variable_part is not None:
            bind = self._bind_step(cache, fixpoint.var, variable_part,
                                   seed.columns, resolve)
        self.operands_evaluated = evaluator.stats.operands_evaluated
        return seed, bind

    def _bind_step(self, cache: KernelProgramCache | None, var: str,
                   variable_part: Term, seed_columns: tuple[str, ...],
                   resolve) -> DriverBind:
        kernel = bind_program(cache, var, variable_part, seed_columns,
                              self._dictionary, resolve)
        if kernel:
            return DriverBind(kernel, None, kernel.broadcast_sizes,
                              kernel.indexed_ops, kernel.index_builds)
        return self._bind_rows(var, variable_part, seed_columns, resolve)

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

    The loop holds its frontier, its partitions and ``X`` as one
    representation throughout: code tuples when the kernels run the
    step (the result is decoded once, at the end), value tuples under
    the row engine.  Either way each iteration deals the fresh delta
    round robin over the rows' canonical order — exactly
    :meth:`Relation.split_round_robin
    <repro.data.relation.Relation.split_round_robin>`'s partitions —
    runs one wave of one task per partition, and absorbs the union of
    their outputs into ``X`` on the driver.
    """

    name = PGLD

    def execute(self, fixpoint: Fixpoint,
                analysis: FixpointAnalysis | None = None) -> Relation:
        analysis = self._analysis(fixpoint, analysis)
        seed, bind = self._seed_and_bind(self.kernel_cache, fixpoint,
                                         analysis)
        if bind is None:
            return seed
        columns = seed.columns
        if not bind.kernel:
            task = partial(_evaluate_partition, bind.row_term, fixpoint.var,
                           columns)
            result = self._loop(fixpoint.var, bind, columns, seed.rows,
                                task, repr)
            return Relation._from_trusted(columns, frozenset(result.rows))
        if isinstance(seed, Relation):
            seed = CodeRows.encode(seed, self._dictionary)
        result = self._loop(fixpoint.var, bind, columns, seed.rows,
                            bind.kernel.step,
                            row_repr(self._dictionary, len(columns)))
        return result.relation(self._dictionary)

    def _loop(self, var: str, bind: DriverBind, columns: tuple[str, ...],
              seed: set, task, order) -> "_DistinctUnion":
        """Algorithm 1 with each step a wave of ``task`` over the
        partitions of the delta, dealt by ``order``."""
        cluster = self.cluster
        metrics = cluster.metrics
        parts = cluster.num_workers
        # Per iteration the constant operands go out (broadcast), their
        # indexes are built on the first iteration and reused after.
        builds = bind.index_builds
        accumulator = _DistinctUnion(cluster, columns, seed)

        def step(delta: set) -> set:
            nonlocal builds
            metrics.global_iterations += 1
            for size in bind.broadcast_sizes:
                cluster.record_broadcast(size)
            for _ in range(builds):
                cluster.record_index_event(built=True)
            for _ in range(bind.indexed_ops - builds):
                cluster.record_index_event(built=False)
            builds = 0
            values = cluster.run_tasks(task, [
                (partition,)
                for partition in split_round_robin(delta, parts, order)])
            produced: set = set()
            moved = 0
            for worker_id, value in enumerate(values):
                cluster.record_worker_tuples(worker_id, len(value))
                moved += len(value)
                produced |= value
            # new = phi(new) \ X    (global set difference: both sides
            # shuffle)
            cluster.record_shuffle(moved + len(accumulator))
            return produced

        limit = MAX_GLOBAL_ITERATIONS
        semi_naive(step, accumulator, seed, var=var,
                   engine="columnar" if bind.kernel else "row", limit=limit,
                   nonconvergence=f"global loop on {var!r} did not converge "
                                  f"within {limit} iterations")
        return accumulator


class _DistinctUnion(ColumnarDeltaAccumulator):
    """``Pgld``'s ``X``, held once on the driver as one row set (codes or
    values), because no task ever reads it — only the delta's partitions.

    ``absorb`` is the global union with ``distinct()``, recorded as the
    second shuffle of an iteration; ``X`` and the new rows are disjoint,
    so it eliminates no duplicate.
    """

    __slots__ = ("cluster",)

    def __init__(self, cluster: SparkCluster, columns: tuple[str, ...],
                 seed: set):
        super().__init__(columns, seed)
        self.cluster = cluster

    def absorb(self, produced: set) -> set:
        known = len(self)
        fresh = super().absorb(produced)
        self.cluster.record_shuffle(known + len(fresh))
        return fresh


def _evaluate_partition(term: Term, var: str, columns: tuple[str, ...],
                        partition: set) -> frozenset:
    """One partition's row step: ``term`` with ``var`` bound to it."""
    produced = Evaluator({}).evaluate(term, env={
        var: Relation._from_trusted(columns, frozenset(partition))})
    if produced.columns != columns:
        raise DistributionError(
            f"incompatible schemas {produced.columns} and {columns}")
    return produced.rows


@dataclass(frozen=True)
class LocalLoopOutcome:
    """What one worker's local fixpoint task reports back to the driver.

    A task is a worker's share of the plan: everything it observes
    (iteration count, index accesses) travels back as data instead of
    being written into the shared
    :class:`~repro.distributed.cluster.ClusterMetrics` mid-flight.
    """

    relation: Relation
    iterations: int
    index_builds: int = 0
    index_reuses: int = 0


def run_local_loop(var: str, variable_part: Term,
                   operands: Mapping[Term, Relation],
                   dictionary: ValueDictionary,
                   chunk: Relation) -> LocalLoopOutcome:
    """One worker's ``Pplw`` local fixpoint over its chunk of the seed.

    The task receives results, not recipes: ``operands`` holds every
    recursion-constant operand of ``variable_part`` already resolved on
    the driver (the broadcast), ``dictionary`` is the snapshot's.  The
    relations — and the encodings and indexes memoized on them — are the
    driver's own objects, so a task only reuses.  The engine is the
    caller's (``row_mode()`` is a context variable), and the iteration
    bound is :data:`MAX_LOCAL_ITERATIONS`.
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

    max_iterations = MAX_LOCAL_ITERATIONS
    with tracing.span("fixpoint.local_loop", var=var,
                      seed=len(chunk)) as loop_span:
        # The process-default program cache gives in-process task reuse
        # (compile once, bind per chunk).
        run = run_fixpoint(
            None, var, variable_part, chunk, dictionary,
            operands.__getitem__, row_step, max_iterations,
            f"local fixpoint on {var!r} did not converge "
            f"within {max_iterations} iterations")
        loop_span.set_attribute("iterations", run.iterations)
        loop_span.set_attribute("total", len(run.relation))
    builds, reuses = run.index_builds, run.index_reuses
    if evaluator is not None:
        builds += evaluator.stats.index_builds
        reuses += evaluator.stats.index_reuses
    return LocalLoopOutcome(
        relation=run.relation, iterations=run.iterations,
        index_builds=builds, index_reuses=reuses)


class ParallelLocalLoops(DistributedFixpointPlan):
    """``Pplw^s``: every worker runs its own local fixpoint.

    Splits the constant part (by stable column when possible), broadcasts
    the recursion-constant relations of the variable part, and runs one
    wave of one local-fixpoint task per worker on the cluster — the tasks
    share no state, which is exactly the paper's claim that the local
    loops run without coordination, and the cluster accounts each task's
    seconds to its worker as the simulated schedule.  Joins against the
    broadcast relations and the task's own union / set-difference never
    exchange data with other workers.
    """

    name = PPLW_SPARK

    def execute(self, fixpoint: Fixpoint,
                analysis: FixpointAnalysis | None = None) -> Relation:
        analysis = self._analysis(fixpoint, analysis)
        # Broadcast once: the operands are resolved (and their indexes
        # built) here, and every task receives the same table.  Bound
        # through the process-default program cache, the one the tasks
        # read: in process their binds find the program compiled.
        seed, bind = self._seed_and_bind(None, fixpoint, analysis)
        if bind is None:
            return seed
        variable_part = analysis.decomposition.variable_part
        var = fixpoint.var
        metrics = self.cluster.metrics
        decision = self.partitioning_override or analysis.partitioning
        metrics.partitioning = decision.strategy
        # On the kernels the chunks are cut from the encoded seed, so no
        # task encodes its chunk; each decodes its own result once.
        if bind.kernel and isinstance(seed, Relation):
            seed = CodeRows.encode(seed, self._dictionary)
        chunks = split_constant_part(seed, self.cluster, decision)
        self._broadcast_variable_part(variable_part, var)
        loops: list[LocalLoopOutcome] = self.cluster.run_tasks(
            run_local_loop,
            [(var, variable_part, self.operands, self._dictionary, chunk)
             for chunk in chunks])
        local_results: list[Relation] = []
        for worker_id, loop in enumerate(loops):
            self.cluster.record_worker_tuples(worker_id, len(loop.relation))
            metrics.local_iterations += loop.iterations
            metrics.index_builds += loop.index_builds
            metrics.index_reuses += loop.index_reuses
            local_results.append(loop.relation)
        # The driver's bind was the first access of each index, on the
        # tasks' behalf: what it built, some task found built and
        # reported as a reuse.
        metrics.index_builds += bind.index_builds
        metrics.index_reuses -= min(bind.index_builds, metrics.index_reuses)
        return self._final_union(local_results, seed.columns, decision)

    # -- Shared steps ----------------------------------------------------------------

    def _broadcast_variable_part(self, variable_part: Term, var: str) -> None:
        """Record the broadcast of every base relation used by the recursion."""
        for name in sorted(free_variables(variable_part) - {var}):
            if name in self.database:
                self.cluster.record_broadcast(len(self.database[name]))

    def _final_union(self, locals_: list[Relation], columns: tuple[str, ...],
                     decision: PartitioningDecision) -> Relation:
        """Union the workers' local fixpoints, one row set per worker
        (BigDatalog's set-valued RDD).

        Every worker ran its own complete loop, so nothing looked at
        another partition during the recursion and only this union may
        need a shuffle.  After a stable-column split the local fixpoints
        are provably pairwise disjoint (Section III-B): one
        ``frozenset.union`` builds the result, with no duplicate
        elimination and no shuffle.  (It sizes the table for the sum of
        the partitions, so overlapping partitions are copied into one set
        instead: an oversized result stays as long as cached.)  Otherwise
        every row is shuffled once and the duplicates are eliminated.
        """
        first, *rest = (local.rows for local in locals_)
        if decision.disjoint:
            self.cluster.metrics.final_union_skipped = True
            return Relation._from_trusted(columns, first.union(*rest))
        rows = set(first)
        for partition in rest:
            rows.update(partition)
        total = len(first) + sum(len(partition) for partition in rest)
        self.cluster.record_shuffle(total)
        self.cluster.metrics.duplicates_eliminated += total - len(rows)
        return Relation._from_trusted(columns, rows)


#: Registry of the plans by name, read by the executor and the benchmarks.
PLAN_CLASSES = {
    PGLD: GlobalLoopOnDriver,
    PPLW_SPARK: ParallelLocalLoops,
}


def make_plan(name: str, cluster: SparkCluster,
              database: Mapping[str, Relation],
              kernel_cache: KernelProgramCache | None = None,
              ) -> DistributedFixpointPlan:
    """Instantiate a fixpoint plan by name (``pgld`` or ``plw-spark``)."""
    try:
        plan_class = PLAN_CLASSES[name]
    except KeyError as exc:
        raise DistributionError(
            f"unknown physical plan {name!r}; known plans: {sorted(PLAN_CLASSES)}"
        ) from exc
    return plan_class(cluster, database, kernel_cache=kernel_cache)
