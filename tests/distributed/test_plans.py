"""Tests of the distributed fixpoint plans (Pgld, Pplw^s).

Correctness: every plan must return exactly the relation the centralized
evaluator returns.  Communication: Pgld must shuffle at every iteration,
Pplw must not shuffle during the recursion (and must skip the final union
when a stable column exists).  The plan matrix runs ``Pplw^s`` a second
time split round robin, so the deduplicating final union is exercised.
"""

from __future__ import annotations

import importlib
from contextlib import nullcontext

import pytest

from repro.algebra import RelVar, Union, closure, closure_from_seed, evaluate
from repro.algebra.builders import RIGHT_TO_LEFT, compose, swap_src_trg
from repro.data import Eq
from repro.data.columnar import ColumnarRelation, row_mode
from repro.data.snapshot import DatabaseSnapshot
from repro.distributed import (PGLD, PPLW_SPARK, DistributedQueryExecutor,
                               SparkCluster, make_plan, plan_partitioning)
from repro.distributed import physical
from repro.distributed.partitioner import analyse_fixpoint
from repro.algebra import Filter, schemas_of_database
from repro.algebra.fixpoint import run_seed
from repro.algebra.kernels import KernelProgram
from repro.algebra.variables import free_variables


#: The module, which ``repro.algebra``'s ``evaluate`` function shadows.
evaluate_module = importlib.import_module("repro.algebra.evaluate")


@pytest.fixture
def database(paper_database):
    return paper_database


@pytest.fixture
def closure_term():
    return closure(RelVar("E"), var="X")


@pytest.fixture
def seeded_term():
    return closure_from_seed(RelVar("S"), RelVar("E"), var="X")


#: ``build_plan`` (tests/conftest.py) builds this one.
PPLW_ROUND_ROBIN = "plw-spark-round-robin"
ALL_PLANS = [PGLD, PPLW_SPARK, PPLW_ROUND_ROBIN]


class TestOperandsOncePerSnapshot:
    """Resolve, encode, index: paid by the first execution on a snapshot
    version, found by every later one — whichever plan runs it."""

    @pytest.mark.parametrize("strategy,term", [
        *(pytest.param(strategy, "closure", id=strategy)
          for strategy in ALL_PLANS),
        *(pytest.param(strategy, "join seed", id=f"{strategy}-join-seed")
          for strategy in ALL_PLANS)])
    def test_second_execution_rebuilds_nothing(self, strategy, term, database,
                                               closure_term, monkeypatch,
                                               build_plan):
        """Operands, encodings and indexes: all of them found by the
        second execution — the seed's included when the kernels compute
        it (the ``(a/-a)+/b`` shape: ``E`` drives a join with the step's
        own operand).  The fixpoint's rows are encoded where the seed's
        base relation was, so a seed that is one, or that the kernels
        compute from one, leaves nothing to encode on either plan: no
        ``Pgld`` partition and no ``Pplw`` chunk is."""
        if term == "join seed":
            # Small enough for the memo's budget (the snapshot's rows).
            pairs = compose(RelVar("S"), swap_src_trg(RelVar("S")))
            term = closure_from_seed(compose(pairs, RelVar("E")), pairs,
                                     direction=RIGHT_TO_LEFT, var="X")
            shape = analyse_fixpoint(term, schemas_of_database(database)).seed
            assert shape is not None and shape.leaf == "E"
        else:
            term = closure_term
        snapshot = DatabaseSnapshot.from_relations(database)
        first = SparkCluster(num_workers=4)
        expected = build_plan(strategy, first, snapshot).execute(term)
        with row_mode():
            assert expected == evaluate(term, database)
        assert first.metrics.index_builds == 1

        encoded, indexed = [], []
        encode = ColumnarRelation.from_relation.__func__
        build_index = ColumnarRelation._build_index

        def recording(cls, relation, dictionary):
            encoded.append(relation)
            return encode(cls, relation, dictionary)

        def recording_index(self, positions, payload):
            indexed.append((positions, payload))
            return build_index(self, positions, payload)

        monkeypatch.setattr(ColumnarRelation, "from_relation",
                            classmethod(recording))
        monkeypatch.setattr(ColumnarRelation, "_build_index",
                            recording_index)
        second = SparkCluster(num_workers=4)
        plan = build_plan(strategy, second, snapshot)
        assert plan.execute(term) == expected
        assert second.metrics.index_builds == 0 and indexed == []
        assert second.metrics.index_reuses \
            == first.metrics.index_builds + first.metrics.index_reuses
        assert plan.operands and plan.operands_evaluated == 0
        assert encoded == []

    def test_a_plain_mapping_shares_nothing_across_executions(
            self, database, closure_term):
        for _ in range(2):
            cluster = SparkCluster(num_workers=4)
            plan = make_plan(PPLW_SPARK, cluster, dict(database))
            plan.execute(closure_term)
            assert cluster.metrics.index_builds == 1
            assert plan.operands_evaluated == len(plan.operands) == 1

    def test_an_executor_wraps_a_plain_mapping_once_for_all_its_plans(
            self, database, closure_term, monkeypatch):
        """Every fixpoint plan of one execution reads the executor's own
        snapshot, so they share its value dictionary and a base relation
        is encoded once per execution, not once per plan."""
        term = Union(closure_term, closure(RelVar("E"), var="Y"))
        expected = evaluate(term, database)
        plans, encoded = [], []
        build = physical.make_plan
        encode = ColumnarRelation.from_relation.__func__

        def recording_plan(*args, **kwargs):
            plans.append(build(*args, **kwargs))
            return plans[-1]

        def recording(cls, relation, dictionary):
            encoded.append(relation)
            return encode(cls, relation, dictionary)

        monkeypatch.setattr(physical, "make_plan", recording_plan)
        monkeypatch.setattr(ColumnarRelation, "from_relation",
                            classmethod(recording))
        executor = DistributedQueryExecutor(SparkCluster(num_workers=4),
                                            dict(database))
        assert executor.execute(term).relation == expected
        assert len(plans) == 2
        for plan in plans:
            assert plan.database is executor.database
            assert plan.evaluator.dictionary is plans[0].evaluator.dictionary
        assert sum(r is database["E"] for r in encoded) == 1


class TestOneBindPerExecution:
    """The driver binds the step once; every task runs that one bind."""

    @pytest.mark.parametrize("num_workers", (4, 8))
    def test_pplw_binds_the_step_once(self, database, closure_term,
                                      monkeypatch, num_workers):
        binds, freezes = [], []
        bind = KernelProgram.bind
        freeze = evaluate_module.transform_top_down

        def recording_bind(program, *args):
            binds.append(program)
            return bind(program, *args)

        def recording_freeze(*args):
            freezes.append(args)
            return freeze(*args)

        monkeypatch.setattr(KernelProgram, "bind", recording_bind)
        monkeypatch.setattr(evaluate_module, "transform_top_down",
                            recording_freeze)
        expected = evaluate(closure_term, database)
        for engine in ("columnar", "row"):
            binds.clear()
            freezes.clear()
            cluster = SparkCluster(num_workers=num_workers)
            with row_mode() if engine == "row" else nullcontext():
                result = make_plan(PPLW_SPARK, cluster,
                                   database).execute(closure_term)
            assert result == expected
            assert cluster.metrics.tasks_launched == num_workers
            assert (len(binds), len(freezes)) == (
                (1, 0) if engine == "columnar" else (0, 1))


class TestSeedPrograms:
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_a_selecting_seed_runs_on_the_kernels(self, strategy, database,
                                                  monkeypatch, build_plan):
        """A seed holding a join takes its seed program whether or not it
        selects: the selection becomes one of the program's operands.
        That operand is resolved on the driver but stays off the operand
        table the tasks receive, because no step reads it."""
        seed = compose(Filter(Eq("src", 1), RelVar("S")), RelVar("E"))
        term = closure_from_seed(seed, RelVar("E"), var="X")
        shape = analyse_fixpoint(term, schemas_of_database(database)).seed
        assert shape is not None and shape.leaf == "E"
        seeds = []

        def recording(*args):
            seeds.append(run_seed(*args))
            return seeds[-1]

        monkeypatch.setattr(evaluate_module, "run_seed", recording)
        plan = build_plan(strategy, SparkCluster(num_workers=4), database)
        result = plan.execute(term)
        with row_mode():
            assert result == evaluate(term, database)
        assert len(seeds) == 1 and seeds[0] is not None
        assert plan.operands and all(
            "S" not in free_variables(operand) for operand in plan.operands)


class TestPlanCorrectness:
    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_closure_matches_centralized(self, strategy, database, closure_term,
                                         build_plan):
        cluster = SparkCluster(num_workers=4)
        plan = build_plan(strategy, cluster, database)
        distributed = plan.execute(closure_term)
        assert distributed == evaluate(closure_term, database)

    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_seeded_closure_matches_centralized(self, strategy, database, seeded_term,
                                                build_plan):
        cluster = SparkCluster(num_workers=4)
        plan = build_plan(strategy, cluster, database)
        distributed = plan.execute(seeded_term)
        assert distributed == evaluate(seeded_term, database)

    @pytest.mark.parametrize("strategy", ALL_PLANS)
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_result_is_independent_of_worker_count(self, strategy, workers,
                                                   database, closure_term,
                                                   build_plan):
        cluster = SparkCluster(num_workers=workers)
        plan = build_plan(strategy, cluster, database)
        assert plan.execute(closure_term) == evaluate(closure_term, database)

    @pytest.mark.parametrize("strategy", ALL_PLANS)
    def test_fixpoint_with_filtered_seed(self, strategy, database, build_plan):
        term = closure_from_seed(Filter(Eq("src", 1), RelVar("E")), RelVar("E"),
                                 var="X")
        cluster = SparkCluster(num_workers=4)
        plan = build_plan(strategy, cluster, database)
        assert plan.execute(term) == evaluate(term, database)

    def test_unknown_strategy_rejected(self, database):
        from repro.errors import DistributionError
        with pytest.raises(DistributionError):
            make_plan("mapreduce", SparkCluster(), database)


class TestCommunicationBehaviour:
    def test_pgld_shuffles_every_iteration(self, database, closure_term):
        cluster = SparkCluster(num_workers=4)
        plan = make_plan(PGLD, cluster, database)
        plan.execute(closure_term)
        metrics = cluster.metrics
        assert metrics.global_iterations >= 2
        # At least one shuffle per iteration (the paper's argument).
        assert metrics.shuffles >= metrics.global_iterations

    def test_pplw_does_not_shuffle_during_recursion(self, database, closure_term):
        cluster = SparkCluster(num_workers=4)
        plan = make_plan(PPLW_SPARK, cluster, database)
        plan.execute(closure_term)
        metrics = cluster.metrics
        assert metrics.local_iterations >= 2
        # No shuffle at all: the stable-column partitioning makes even the
        # final union shuffle-free.
        assert metrics.shuffles == 0
        assert metrics.final_union_skipped

    def test_pplw_shuffles_less_than_pgld(self, database, closure_term):
        pgld_cluster = SparkCluster(num_workers=4)
        make_plan(PGLD, pgld_cluster, database).execute(closure_term)
        pplw_cluster = SparkCluster(num_workers=4)
        make_plan(PPLW_SPARK, pplw_cluster, database).execute(closure_term)
        assert (pplw_cluster.metrics.tuples_shuffled
                < pgld_cluster.metrics.tuples_shuffled)

    def test_stable_column_partitioning_detected(self, database, closure_term):
        decision = plan_partitioning(closure_term, schemas_of_database(database))
        assert decision.strategy == "stable-column"
        assert decision.disjoint
        assert "src" in decision.key_columns

    def test_broadcast_recorded_for_variable_part(self, database, closure_term):
        cluster = SparkCluster(num_workers=4)
        make_plan(PPLW_SPARK, cluster, database).execute(closure_term)
        assert cluster.metrics.broadcasts >= 1
        assert cluster.metrics.tuples_broadcast >= len(database["E"])


class TestRoundRobinFallback:
    def test_no_stable_column_still_correct(self, database):
        # A fixpoint over a "same-generation"-like step has no stable column;
        # the split falls back to round-robin and the final union dedups.
        from repro.algebra import compose
        step = compose(compose(RelVar("E"), RelVar("X")), RelVar("E"))
        from repro.algebra import Fixpoint, Union
        term = Fixpoint("X", Union(RelVar("E"), step))
        schemas = schemas_of_database(database)
        decision = plan_partitioning(term, schemas)
        assert decision.strategy == "round-robin"
        cluster = SparkCluster(num_workers=3)
        plan = make_plan(PPLW_SPARK, cluster, database)
        assert plan.execute(term) == evaluate(term, database)
        assert not cluster.metrics.final_union_skipped
