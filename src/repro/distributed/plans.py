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
communicates, not in how a term is evaluated: each plan holds one
:class:`~repro.algebra.evaluate.Evaluator`, which binds the step once
per execution (:meth:`~repro.algebra.evaluate.Evaluator.bind_fixpoint`)
— the columnar kernels or, under :func:`~repro.data.columnar.row_mode`,
the evaluator's own row step — and every ``Pgld`` wave and every
``Pplw`` task runs that one bind; no plan applies a relational
operator itself, nor binds a step of its own.  On the kernels a
fixpoint stays in code space from its seed to its result: a seed
holding a join is computed by a seed program, both plans split it
(``Pplw`` into chunks, ``Pgld``'s loop its every delta into partitions)
as code tuples with exactly the row engine's assignments, ``Pgld``
accumulates ``X`` as codes on the driver, and each result is decoded
once.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial

from ..algebra.evaluate import Evaluator
from ..algebra.fixpoint import (FixpointBind, FixpointRun, run_fixpoint,
                                semi_naive)
from ..algebra.kernels import KernelProgramCache
from ..algebra.terms import Fixpoint, Term
from ..algebra.variables import free_variables
from ..data.columnar import (CodeRows, ColumnarDeltaAccumulator,
                             ValueDictionary, row_repr, split_round_robin)
from ..data.relation import Relation
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


class DistributedFixpointPlan:
    """Base class of the two physical fixpoint plans."""

    name: str = "abstract"

    def __init__(self, cluster: SparkCluster, database: Mapping[str, Relation],
                 partitioning_override: PartitioningDecision | None = None,
                 kernel_cache: KernelProgramCache | None = None):
        self.cluster = cluster
        #: The plan's one evaluator: it binds the step — compiling into
        #: ``kernel_cache``, the executor's, shared with the plan cache
        #: entry that selected this plan (``None``: the process default)
        #: — and evaluates the seed; its row step is what the tasks run.
        #: Its database (a snapshot, so broadcasts ship the snapshot's own
        #: relations, hash indexes included) and its value dictionary are
        #: the plan's.
        self.evaluator = Evaluator(database, kernel_cache=kernel_cache)
        self.database = self.evaluator.database
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
            analysis = analyse_fixpoint(fixpoint, self.database.schemas)
        return analysis

    def _seed_and_bind(self, fixpoint: Fixpoint, analysis: FixpointAnalysis,
                       ) -> tuple[Relation | CodeRows, FixpointBind | None]:
        """The seed, and the step bound once on the driver
        (:meth:`~repro.algebra.evaluate.Evaluator.bind_fixpoint`).

        Every operand is resolved here — through the snapshot's memo, so
        a repeated execution finds relation, encoding and index already
        built — and the indexes the step probes exist before any task
        starts.  The step's operands are recorded in :attr:`operands`:
        that is the broadcast; the seed's stay out of it, as no step
        reads them.  The bind is None for a fixpoint without a variable
        part.
        """
        evaluator = self.evaluator
        operands: dict[Term, Relation] = {}

        def resolve(term: Term) -> Relation:
            relation = operands[term] = evaluator.evaluate_constant(term)
            return relation

        self.operands = operands
        evaluated = evaluator.stats.operands_evaluated
        seed, bind = evaluator.bind_fixpoint(
            fixpoint.var, analysis.decomposition, analysis.seed, resolve)
        self.operands_evaluated = (evaluator.stats.operands_evaluated
                                   - evaluated)
        return seed, bind


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
        seed, bind = self._seed_and_bind(fixpoint, analysis)
        if bind is None:
            return seed
        columns = seed.columns
        if not bind.kernel:
            task = partial(_evaluate_partition, bind.row_step, columns)
            result = self._loop(bind, columns, seed.rows, task, repr)
            return Relation._from_trusted(columns, frozenset(result.rows))
        dictionary = self.evaluator.dictionary
        if isinstance(seed, Relation):
            seed = CodeRows.encode(seed, dictionary)
        result = self._loop(bind, columns, seed.rows, bind.kernel.step,
                            row_repr(dictionary, len(columns)))
        return result.relation(dictionary)

    def _loop(self, bind: FixpointBind, columns: tuple[str, ...],
              seed: set, task, order) -> "_DistinctUnion":
        """Algorithm 1 with each step a wave of ``task`` over the
        partitions of the delta, dealt by ``order``."""
        cluster = self.cluster
        metrics = cluster.metrics
        parts = cluster.num_workers
        accumulator = _DistinctUnion(cluster, columns, seed)

        def step(delta: set) -> set:
            metrics.global_iterations += 1
            # Per iteration the constant operands go out (broadcast).
            for size in bind.broadcast_sizes:
                cluster.record_broadcast(size)
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

        var = bind.var
        limit = MAX_GLOBAL_ITERATIONS
        iterations = semi_naive(
            step, accumulator, seed, var=var,
            engine="columnar" if bind.kernel else "row", limit=limit,
            nonconvergence=f"global loop on {var!r} did not converge "
                           f"within {limit} iterations")
        builds, reuses = bind.index_events(iterations)
        metrics.index_builds += builds
        metrics.index_reuses += reuses
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


def _evaluate_partition(row_step, columns: tuple[str, ...],
                        partition: set) -> frozenset:
    """One partition's row step: the bound step over it as the delta."""
    produced = row_step(Relation._from_trusted(columns, frozenset(partition)))
    if produced.columns != columns:
        raise DistributionError(
            f"incompatible schemas {produced.columns} and {columns}")
    return produced.rows


def run_local_loop(bind: FixpointBind, dictionary: ValueDictionary,
                   chunk: Relation | CodeRows) -> FixpointRun:
    """One worker's ``Pplw`` local fixpoint over its chunk of the seed.

    The task receives results, not recipes: ``bind`` is the step bound
    once on the driver — its operands resolved and indexed (the
    broadcast), its engine chosen — and ``dictionary`` is the
    snapshot's, so a task only reuses.  Everything it observes travels
    back as the returned run instead of being written into the shared
    :class:`~repro.distributed.cluster.ClusterMetrics` mid-flight.  The
    iteration bound is :data:`MAX_LOCAL_ITERATIONS`.
    """
    var = bind.var
    max_iterations = MAX_LOCAL_ITERATIONS
    with tracing.span("fixpoint.local_loop", var=var,
                      seed=len(chunk)) as loop_span:
        run = run_fixpoint(
            bind, chunk, dictionary, max_iterations,
            f"local fixpoint on {var!r} did not converge "
            f"within {max_iterations} iterations")
        loop_span.set_attribute("iterations", run.iterations)
        loop_span.set_attribute("total", len(run.relation))
    return run


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
        # Broadcast once: the step is bound (its operands resolved, its
        # indexes built) here, and every task runs that one bind.
        seed, bind = self._seed_and_bind(fixpoint, analysis)
        if bind is None:
            return seed
        metrics = self.cluster.metrics
        decision = self.partitioning_override or analysis.partitioning
        metrics.partitioning = decision.strategy
        dictionary = self.evaluator.dictionary
        # On the kernels the chunks are cut from the encoded seed, so no
        # task encodes its chunk; each decodes its own result once.
        if bind.kernel and isinstance(seed, Relation):
            seed = CodeRows.encode(seed, dictionary)
        chunks = split_constant_part(seed, self.cluster, decision)
        self._broadcast_variable_part(analysis.decomposition.variable_part,
                                      fixpoint.var)
        runs: list[FixpointRun] = self.cluster.run_tasks(
            run_local_loop, [(bind, dictionary, chunk) for chunk in chunks])
        iterations = 0
        for worker_id, run in enumerate(runs):
            self.cluster.record_worker_tuples(worker_id, len(run.relation))
            iterations += run.iterations
        metrics.local_iterations += iterations
        builds, reuses = bind.index_events(iterations)
        metrics.index_builds += builds
        metrics.index_reuses += reuses
        return self._final_union([run.relation for run in runs],
                                 seed.columns, decision)

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
