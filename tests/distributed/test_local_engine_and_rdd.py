"""Tests of the per-worker local loop, the RDD abstractions and the
physical plan generator/executor."""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.algebra import (Filter, Fixpoint, RelVar, Union, closure,
                           closure_from_seed, evaluate)
from repro.data import Eq, Relation
from repro.data.columnar import CodeRows, ValueDictionary, row_mode
from repro.distributed import (AUTO, PGLD, DistributedQueryExecutor,
                               PPLW_POSTGRES, PPLW_SPARK,
                               PhysicalPlanGenerator, SetRDD, SparkCluster,
                               fixpoint_to_sql, make_plan)
from repro.distributed.plans import run_local_loop
from repro.errors import DistributionError, EvaluationError
from repro.obs import tracing
from repro.obs.tracing import Tracer


@pytest.fixture
def local_loop(shipped):
    def run(fixpoint, database, chunk, variant="postgres", columnar=True):
        with nullcontext() if columnar else row_mode():
            return run_local_loop(*shipped(fixpoint, database), chunk,
                                  variant)
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

    def test_only_the_postgres_variant_marshals(self, paper_database,
                                                local_loop):
        term = closure(RelVar("E"), var="X")
        chunk = paper_database["E"]
        postgres = local_loop(term, paper_database, chunk)
        spark = local_loop(term, paper_database, chunk, variant="spark")
        assert spark.relation == postgres.relation
        assert spark.tuples_marshalled == 0
        assert postgres.tuples_marshalled == len(chunk) + len(postgres.relation)

    @pytest.mark.parametrize("variant", ("spark", "postgres"))
    def test_engine_choice_is_the_calling_context(self, paper_database,
                                                  local_loop, variant):
        """The task iterates on the engine its caller's ``row_mode()``
        chose (it runs on the caller's thread), in either local loop."""
        term = closure(RelVar("E"), var="X")
        engines = {}
        for columnar in (True, False):
            tracer = Tracer(enabled=True)
            with tracing.activate(tracer):
                local_loop(term, paper_database, paper_database["E"],
                           variant=variant, columnar=columnar)
            engines[columnar] = {
                dict(record.attributes)["engine"]
                for record in tracer.records()
                if record.name == "fixpoint.iteration"}
        assert engines == {True: {"columnar"}, False: {"row"}}

    def test_unknown_table_raises(self, paper_edges, local_loop):
        with pytest.raises(EvaluationError, match="unknown relation"):
            local_loop(closure(RelVar("missing"), var="X"), {}, paper_edges)

    def test_sql_rendering_mentions_recursive_cte(self):
        term = closure(RelVar("E"), var="X")
        sql = fixpoint_to_sql(term)
        assert "WITH RECURSIVE" in sql
        assert "constant_part" in sql


class TestSetRDD:
    def test_partition_count_matches_workers(self, paper_edges):
        cluster = SparkCluster(num_workers=3)
        dataset = SetRDD(cluster, paper_edges.split_round_robin(3))
        assert len(dataset.partitions) == 3
        assert dataset.count() == len(paper_edges)
        assert dataset.collect() == paper_edges
        with pytest.raises(DistributionError):
            SetRDD(cluster, paper_edges.split_round_robin(2))

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

    def test_mismatched_schemas_rejected(self, paper_edges,
                                         paper_start_edges):
        cluster = SparkCluster(num_workers=2)
        with pytest.raises(DistributionError):
            SetRDD(cluster, [paper_edges,
                             paper_start_edges.rename("trg", "other")])


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


class TestPhysicalPlanGenerator:
    def test_generates_all_three_strategies(self, paper_database):
        cluster = SparkCluster(num_workers=2)
        generator = PhysicalPlanGenerator(cluster, paper_database)
        plans = generator.generate(closure(RelVar("E"), var="X"))
        assert sorted(plan.strategy for plan in plans) == sorted(
            generator.candidate_strategies())

    def test_heuristic_switches_on_memory_budget(self, paper_database):
        cluster = SparkCluster(num_workers=2)
        term = closure(RelVar("E"), var="X")
        spacious = PhysicalPlanGenerator(cluster, paper_database,
                                         memory_per_task=10_000)
        cramped = PhysicalPlanGenerator(cluster, paper_database,
                                        memory_per_task=2)
        assert spacious.select(term).strategy == PPLW_SPARK
        assert cramped.select(term).strategy == PPLW_POSTGRES

    def test_executor_handles_terms_around_fixpoints(self, paper_database):
        cluster = SparkCluster(num_workers=2)
        executor = DistributedQueryExecutor(cluster, paper_database, strategy=AUTO)
        term = Filter(Eq("src", 1), closure(RelVar("E"), var="X"))
        outcome = executor.execute(term)
        assert outcome.relation == evaluate(term, paper_database)
        assert len(outcome.physical_plans) == 1

    def test_executor_rejects_unknown_strategy(self, paper_database):
        from repro.errors import PlanSelectionError
        cluster = SparkCluster(num_workers=2)
        executor = DistributedQueryExecutor(cluster, paper_database,
                                            strategy="not-a-plan")
        with pytest.raises(PlanSelectionError):
            executor.execute(closure(RelVar("E"), var="X"))

    def test_executor_rejects_an_analysis_of_another_term(self,
                                                          paper_database):
        from repro.distributed.partitioner import analyse_fixpoints
        from repro.errors import PlanSelectionError
        executor = DistributedQueryExecutor(SparkCluster(num_workers=2),
                                            paper_database)
        schemas = executor.generator.schemas
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
