"""Regression tests: iteration guards fail cleanly instead of hanging.

A fixpoint that does not converge within the configured bound must raise
:class:`~repro.errors.EvaluationError` — from every plan, on either
engine, and through the benchmark harness (which converts it into a
``failed`` run, the paper's red cross).  The bounds are monkeypatched to
tiny values so an ordinary multi-iteration closure plays the role of the
deliberately non-converging fixpoint.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from repro.algebra import RelVar, closure
from repro.data import row_mode
from repro.distributed import PGLD, PPLW_SPARK, SparkCluster, make_plan
from repro.distributed import plans as plans_module
from repro.distributed.plans import run_local_loop
from repro.errors import EvaluationError

#: ``build_plan`` (tests/conftest.py) builds this one.
PPLW_ROUND_ROBIN = "plw-spark-round-robin"


@pytest.fixture
def closure_term():
    return closure(RelVar("E"), var="X")


def test_global_loop_guard_raises(paper_database, closure_term, monkeypatch):
    monkeypatch.setattr(plans_module, "MAX_GLOBAL_ITERATIONS", 1)
    plan = make_plan(PGLD, SparkCluster(num_workers=4), paper_database)
    with pytest.raises(EvaluationError, match="did not converge"):
        plan.execute(closure_term)


@pytest.mark.parametrize("num_workers", (1, 2, 4))
@pytest.mark.parametrize("strategy", (PPLW_SPARK, PPLW_ROUND_ROBIN))
def test_local_loop_guard_raises_through_the_plans(
        paper_database, closure_term, monkeypatch, build_plan, strategy,
        num_workers):
    # Every local loop reads the patched bound, however many partitions
    # the fixpoint is split into.
    monkeypatch.setattr(plans_module, "MAX_LOCAL_ITERATIONS", 1)
    plan = build_plan(strategy, SparkCluster(num_workers=num_workers),
                      paper_database)
    with pytest.raises(EvaluationError, match="did not converge"):
        plan.execute(closure_term)


@pytest.mark.parametrize("strategy", (PGLD, PPLW_SPARK, PPLW_ROUND_ROBIN))
def test_guards_fire_on_the_row_engine_too(paper_database, closure_term,
                                           monkeypatch, build_plan, strategy):
    """One driver, one guard: the row steps hit the same patched bounds
    (read at call time) as the kernels."""
    monkeypatch.setattr(plans_module, "MAX_GLOBAL_ITERATIONS", 2)
    monkeypatch.setattr(plans_module, "MAX_LOCAL_ITERATIONS", 2)
    plan = build_plan(strategy, SparkCluster(num_workers=4), paper_database)
    with row_mode(), pytest.raises(EvaluationError,
                                   match="within 2 iterations"):
        plan.execute(closure_term)


@pytest.mark.parametrize("engine", ("columnar", "row"))
def test_global_iterations_count_every_round_that_ran(
        paper_database, closure_term, monkeypatch, engine):
    """The guard trips on entering round ``bound + 1``: the rounds that
    ran are all counted, the one that was refused is not."""
    monkeypatch.setattr(plans_module, "MAX_GLOBAL_ITERATIONS", 3)
    cluster = SparkCluster(num_workers=4)
    plan = make_plan(PGLD, cluster, paper_database)
    with row_mode() if engine == "row" else nullcontext():
        with pytest.raises(EvaluationError, match="did not converge"):
            plan.execute(closure_term)
    assert cluster.metrics.global_iterations == 3


def test_local_engine_guard_raises(paper_database, closure_term, shipped,
                                   monkeypatch):
    monkeypatch.setattr(plans_module, "MAX_LOCAL_ITERATIONS", 1)
    with pytest.raises(EvaluationError, match="did not converge"):
        run_local_loop(*shipped(closure_term, paper_database),
                       paper_database["E"])


def test_local_engine_guard_reports_bound(paper_database, closure_term,
                                          shipped, monkeypatch):
    """The task reads the bound at call time, on either engine."""
    monkeypatch.setattr(plans_module, "MAX_LOCAL_ITERATIONS", 2)
    for engine in (nullcontext, row_mode):
        with engine(), pytest.raises(
                EvaluationError, match="local fixpoint on 'X' did not "
                                       "converge within 2 iterations"):
            run_local_loop(*shipped(closure_term, paper_database),
                           paper_database["E"])


def test_harness_reports_nonconvergence_as_failed_run(paper_edges, monkeypatch):
    """The benchmark harness turns the guard into a failed cell, not a hang."""
    from repro.bench import run_distmura
    from repro.data import LabeledGraph
    from repro.workloads.common import ucrpq_query

    monkeypatch.setattr(plans_module, "MAX_LOCAL_ITERATIONS", 1)
    graph = LabeledGraph(name="guard-test")
    graph.add_edges([(row[0], "edge", row[1]) for row in paper_edges.rows])
    query = ucrpq_query("GUARD", "?x,?y <- ?x edge+ ?y")
    measured = run_distmura(graph, query, strategy=PPLW_SPARK,
                            optimize=False)
    assert measured.status == "failed"
    assert "did not converge" in measured.detail
