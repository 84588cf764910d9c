"""Tests of the per-worker local loop, the final union of ``Pplw``'s
local fixpoints and the distributed query executor."""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.algebra import (Filter, Fixpoint, RelVar, Union, closure,
                           closure_from_seed, evaluate, schemas_of_database)
from repro.data import Eq, Relation
from repro.data.columnar import CodeRows, ValueDictionary, row_mode
from repro.distributed import (AUTO, PGLD, DistributedQueryExecutor,
                               PPLW_SPARK, ParallelLocalLoops,
                               PartitioningDecision, SparkCluster, make_plan)
from repro.distributed.plans import run_local_loop
from repro.errors import DistributionError, EvaluationError, PlanSelectionError
from repro.obs import tracing
from repro.obs.tracing import Tracer


@pytest.fixture
def local_loop(shipped):
    def run(fixpoint, database, chunk, columnar=True):
        with nullcontext() if columnar else row_mode():
            return run_local_loop(*shipped(fixpoint, database), chunk)
    return run


class TestLocalLoop:
    """``run_local_loop``: one worker's fixpoint over its chunk of the seed."""

    def test_fixpoint_matches_reference_evaluator(self, paper_database,
                                                  local_loop):
        term = closure(RelVar("E"), var="X")
        for columnar in (True, False):
            outcome = local_loop(term, paper_database, paper_database["E"],
                                 columnar=columnar)
            assert outcome.relation == evaluate(term, paper_database)

    def test_chunk_restricts_the_recursion(self, paper_database, local_loop):
        term = closure(RelVar("E"), var="X")
        chunk = Relation.from_pairs([(1, 2)], columns=("src", "trg"))
        restricted = local_loop(term, paper_database, chunk).relation
        full = local_loop(term, paper_database, paper_database["E"]).relation
        assert restricted.rows < full.rows
        assert all(row["src"] == 1 for row in restricted.to_dicts())

    def test_indexes_are_built_once_and_reused(self, paper_edges, local_loop):
        for columnar in (True, False):
            # A private copy: the fixture may already carry the index.
            database = {"E": Relation(paper_edges.columns, paper_edges.rows)}
            outcome = local_loop(closure(RelVar("E"), var="X"), database,
                                 database["E"], columnar=columnar)
            assert outcome.iterations >= 3
            assert outcome.index_builds == 1
            assert outcome.index_reuses == outcome.iterations - 1

    def test_filtered_seed_term(self, paper_database, local_loop):
        seed = Filter(Eq("src", 1), RelVar("S"))
        term = closure_from_seed(seed, RelVar("E"), var="X")
        outcome = local_loop(term, paper_database,
                             evaluate(seed, paper_database))
        assert outcome.relation == evaluate(term, paper_database)

    @pytest.mark.parametrize("chunk_form", ("rows", "codes"))
    def test_the_task_runs_the_engine_its_bind_chose(self, paper_database,
                                                     shipped, chunk_form):
        """The task iterates on the engine the driver's bind chose, even
        when it runs under the other engine's context, whether its chunk
        comes as rows or, as the plan cuts it on the kernels, as code
        tuples (the row engine then decodes it)."""
        term = closure(RelVar("E"), var="X")
        engines = {}
        for columnar in (True, False):
            with nullcontext() if columnar else row_mode():
                bind, dictionary = shipped(term, paper_database)
            chunk = paper_database["E"]
            if chunk_form == "codes":
                chunk = CodeRows.encode(chunk, dictionary)
            tracer = Tracer(enabled=True)
            with tracing.activate(tracer), \
                    row_mode() if columnar else nullcontext():
                outcome = run_local_loop(bind, dictionary, chunk)
            assert outcome.relation == evaluate(term, paper_database)
            engines[columnar] = {
                dict(record.attributes)["engine"]
                for record in tracer.records()
                if record.name == "fixpoint.iteration"}
        assert engines == {True: {"columnar"}, False: {"row"}}

    def test_unknown_table_raises(self, paper_edges, local_loop):
        with pytest.raises(EvaluationError, match="unknown relation"):
            local_loop(closure(RelVar("missing"), var="X"), {}, paper_edges)


class TestFinalUnion:
    """``Pplw``'s final union of the workers' local fixpoints: no
    shuffle after a stable-column split, one deduplicating shuffle
    after a round-robin one."""

    def test_disjoint_partitions_skip_the_shuffle(self, paper_database):
        term = closure(RelVar("E"), var="X")
        cluster = SparkCluster(num_workers=3)
        result = make_plan(PPLW_SPARK, cluster, paper_database).execute(term)
        metrics = cluster.metrics
        assert result == evaluate(term, paper_database)
        assert metrics.partitioning == "stable-column"
        assert metrics.final_union_skipped
        assert metrics.shuffles == metrics.tuples_shuffled == 0
        assert metrics.duplicates_eliminated == 0
        # Disjoint: the workers' rows add up to the result exactly.
        assert metrics.total_tuples_processed == len(result)

    @pytest.mark.parametrize("engine", ("columnar", "row"))
    def test_overlapping_partitions_shuffle_once_and_deduplicate(
            self, paper_database, engine):
        term = closure(RelVar("E"), var="X")
        cluster = SparkCluster(num_workers=3)
        plan = ParallelLocalLoops(
            cluster, paper_database,
            partitioning_override=PartitioningDecision.round_robin())
        with row_mode() if engine == "row" else nullcontext():
            result = plan.execute(term)
        metrics = cluster.metrics
        assert result == evaluate(term, paper_database)
        assert metrics.partitioning == "round-robin"
        assert not metrics.final_union_skipped
        assert metrics.shuffles == 1
        assert metrics.tuples_shuffled == metrics.total_tuples_processed
        assert metrics.duplicates_eliminated \
            == metrics.tuples_shuffled - len(result) > 0

    def test_key_partitioning_is_consistent(self, paper_edges):
        """Rows or codes, a key's rows land in one partition, the same."""
        dictionary = ValueDictionary()
        by_rows = paper_edges.split_by_columns(("src",), 4)
        by_codes = CodeRows.encode(paper_edges, dictionary) \
            .split_by_columns(("src",), 4)
        assert [part.to_relation() for part in by_codes] == by_rows
        for value in paper_edges.column_values("src"):
            holders = [i for i, part in enumerate(by_rows)
                       if value in part.column_values("src")]
            assert len(holders) == 1


class TestGlobalLoopAccounting:
    def test_each_iteration_records_two_shuffles(self, paper_database):
        """Pgld's ``new = phi(new) \\ X`` moves the step's output and X,
        and ``X U new`` with ``distinct()`` moves X and the new rows: two
        shuffles per iteration, of the same rows whichever representation
        (codes or values) the driver holds them in."""
        term = closure_from_seed(RelVar("S"), RelVar("E"), var="X")
        seen = {}
        for engine in ("columnar", "row"):
            cluster = SparkCluster(num_workers=2)
            with (row_mode() if engine == "row" else nullcontext()):
                result = make_plan(PGLD, cluster,
                                   paper_database).execute(term)
            assert result == evaluate(term, paper_database)
            metrics = cluster.metrics
            assert metrics.shuffles == 2 * metrics.global_iterations
            assert metrics.tasks_launched == 2 * metrics.global_iterations
            assert metrics.duplicates_eliminated == 0
            seen[engine] = (metrics.shuffles, metrics.tuples_shuffled,
                            metrics.tuples_processed_per_worker)
        assert seen["columnar"] == seen["row"]

    @pytest.mark.parametrize("engine", ["columnar", "row"])
    def test_a_schema_changing_step_is_rejected(self, paper_database,
                                                engine):
        """A step whose output schema is not the seed's is refused by
        the partition task, on both engines: the kernels decline the
        shape and leave it to the row step, which raises."""
        bad = Fixpoint("X", Union(RelVar("S"),
                                  RelVar("X").rename("trg", "t2")))
        plan = make_plan(PGLD, SparkCluster(num_workers=2), paper_database)
        with (row_mode() if engine == "row" else nullcontext()), \
                pytest.raises(DistributionError, match="incompatible"):
            plan.execute(bad)


class TestDistributedQueryExecutor:
    def test_auto_resolves_to_parallel_local_loops(self, paper_database):
        executor = DistributedQueryExecutor(SparkCluster(num_workers=2),
                                            paper_database, strategy=AUTO)
        outcome = executor.execute(closure(RelVar("E"), var="X"))
        assert outcome.strategies == (PPLW_SPARK,)

    def test_executor_handles_terms_around_fixpoints(self, paper_database):
        cluster = SparkCluster(num_workers=2)
        executor = DistributedQueryExecutor(cluster, paper_database, strategy=AUTO)
        term = Filter(Eq("src", 1), closure(RelVar("E"), var="X"))
        outcome = executor.execute(term)
        assert outcome.relation == evaluate(term, paper_database)
        assert outcome.strategies == (PPLW_SPARK,)

    @pytest.mark.parametrize("strategy", ("not-a-plan", "plw-postgres"))
    def test_executor_rejects_unknown_strategy(self, paper_database,
                                               strategy):
        cluster = SparkCluster(num_workers=2)
        with pytest.raises(PlanSelectionError, match="unknown strategy"):
            DistributedQueryExecutor(cluster, paper_database,
                                     strategy=strategy)

    def test_executor_rejects_an_analysis_of_another_term(self,
                                                          paper_database):
        from repro.distributed.partitioner import analyse_fixpoints
        executor = DistributedQueryExecutor(SparkCluster(num_workers=2),
                                            paper_database)
        schemas = schemas_of_database(paper_database)
        term = closure(RelVar("E"), var="X")
        other = analyse_fixpoints(closure(RelVar("E"), var="Y"), schemas)
        with pytest.raises(PlanSelectionError):
            executor.execute(term, other)
        with pytest.raises(PlanSelectionError):
            executor.execute(term, ())
        assert executor.execute(term, analyse_fixpoints(term, schemas)) \
            .relation == evaluate(term, paper_database)


class TestTracedCardinalityEstimate:
    """EXPLAIN ANALYZE's estimate: a term the estimator rejects has none,
    a defect in the estimator propagates instead of losing the drift."""

    def run_traced(self, paper_database):
        executor = DistributedQueryExecutor(SparkCluster(num_workers=2),
                                            paper_database)
        tracer = Tracer(enabled=True)
        with tracing.activate(tracer):
            executor.execute(closure(RelVar("E"), var="X"))
        return next(dict(record.attributes) for record in tracer.records()
                    if record.name == "fixpoint")

    def test_a_rejected_term_has_no_estimate(self, paper_database,
                                             monkeypatch):
        from repro.cost.cardinality import CardinalityEstimator
        from repro.errors import CostEstimationError

        def reject(self, term):
            raise CostEstimationError("cannot price this term")
        monkeypatch.setattr(CardinalityEstimator, "cardinality", reject)
        attributes = self.run_traced(paper_database)
        assert attributes["actual_rows"] == 37
        assert "estimated_rows" not in attributes

    def test_an_estimator_defect_propagates(self, paper_database,
                                            monkeypatch):
        from repro.cost.cardinality import CardinalityEstimator

        def defect(self, term):
            raise RuntimeError("estimator bug")
        monkeypatch.setattr(CardinalityEstimator, "cardinality", defect)
        with pytest.raises(RuntimeError, match="estimator bug"):
            self.run_traced(paper_database)
