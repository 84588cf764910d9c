"""Ablation — stable-column partitioning vs naive round-robin splitting.

DESIGN.md calls out the stable-column partitioning as a design choice worth
ablating: both splits are correct (Proposition 3), but only the
stable-column split guarantees disjoint local results, letting the final
duplicate-eliminating shuffle be skipped.  The ablation measures the time
and the duplicate/shuffle counters of both variants on the same fixpoint.
"""

from __future__ import annotations

import time

import pytest

from repro.algebra import RelVar, closure
from repro.bench import MeasuredRun
from repro.distributed import (PPLW_SPARK, PartitioningDecision, SparkCluster,
                               make_plan)
from repro.distributed.plans import ParallelLocalLoops

FIGURE_TITLE = "Ablation - stable-column partitioning vs round-robin splitting"

VARIANTS = ("stable-column", "round-robin")


def _run(graph, variant: str) -> MeasuredRun:
    database = graph.relations()
    term = closure(RelVar("edge"))
    cluster = SparkCluster(num_workers=4)
    override = PartitioningDecision.round_robin() if variant == "round-robin" \
        else None
    plan = ParallelLocalLoops(cluster, database,
                              partitioning_override=override)
    started = time.perf_counter()
    result = plan.execute(term)
    elapsed = time.perf_counter() - started
    return MeasuredRun(system=variant, query_id="edge+", dataset=graph.name,
                       seconds=elapsed, rows=len(result),
                       metrics=cluster.metrics.summary())


@pytest.mark.parametrize("variant", VARIANTS)
def test_partitioning_variant(benchmark, figure_report, transitive_closure_graph,
                              variant):
    run = benchmark.pedantic(lambda: _run(transitive_closure_graph, variant),
                             rounds=1, iterations=1)
    figure_report.add(run)
    assert run.succeeded
    if variant == "stable-column":
        assert run.metrics["final_union_skipped"]
        assert run.metrics["shuffles"] == 0
    else:
        assert not run.metrics["final_union_skipped"]


def test_both_variants_agree(benchmark, figure_report, transitive_closure_graph):
    def compare():
        database = transitive_closure_graph.relations()
        term = closure(RelVar("edge"))
        stable = make_plan(PPLW_SPARK, SparkCluster(4), database).execute(term)
        round_robin = ParallelLocalLoops(
            SparkCluster(4), database,
            partitioning_override=PartitioningDecision.round_robin()).execute(term)
        return stable == round_robin

    assert benchmark.pedantic(compare, rounds=1, iterations=1)
