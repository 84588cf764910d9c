"""Simulated parallel speedup of the Pplw^s local loops on 4 workers.

The paper's central claim is that ``Pplw`` runs one complete fixpoint per
worker *without coordination*; this benchmark verifies that the claim buys
parallelism on the simulated cluster.  The workload is fig14-style: the
transitive closure of the ``int`` (protein interaction) relation on a
generated Uniprot graph, the recursion that dominates the paper's
scalability sweep.

Pplw^s runs once on a 4-worker cluster.  Its local loops form
one task wave; the cluster times every task (CPU seconds) and attributes
task *i* to worker ``i % 4``, so the busiest worker's seconds are the
wave's makespan on a real 4-machine cluster.  The simulated speedup
replaces the tasks' summed seconds by that makespan::

    seconds / (seconds - total_task_seconds + max_worker_seconds)

where ``seconds`` is the harness's reported time (wall clock + simulated
communication delay + task-schedule adjustment).  The headline assertion:
Pplw^s must reach more than 1.5x.
"""

from __future__ import annotations

import pytest

from repro.algebra import RelVar, closure
from repro.bench import MeasuredRun, run_distmura
from repro.datasets import uniprot_graph
from repro.distributed import PPLW_SPARK
from repro.workloads.common import mu_ra_query

FIGURE_TITLE = "Parallel speedup - Pplw local loops on the simulated cluster"

NUM_WORKERS = 4
#: Minimum acceptable simulated speedup for Pplw^s.
SPEEDUP_FLOOR = 1.5

#: strategy -> MeasuredRun, filled by the run below and consumed by the
#: speedup assertion.
_RESULTS: dict[str, MeasuredRun] = {}


def simulated_speedup(run: MeasuredRun) -> float:
    """Reported time over the time with the wave packed onto the workers."""
    metrics = run.metrics
    parallel = (run.seconds - metrics["total_task_seconds"]
                + metrics["max_worker_seconds"])
    return run.seconds / parallel


@pytest.fixture(scope="module")
def speedup_graph():
    """Fig. 14-style Uniprot stand-in (the paper's uniprot_1M, scaled)."""
    return uniprot_graph(num_edges=6_000, seed=11)


@pytest.fixture(scope="module")
def closure_query():
    """Transitive closure of the protein-interaction relation."""
    return mu_ra_query("TCint", closure(RelVar("int"), var="X"),
                       description="transitive closure of int")


def test_local_loops(benchmark, figure_report, speedup_graph, closure_query):
    def run():
        measured = run_distmura(speedup_graph, closure_query,
                                strategy=PPLW_SPARK, num_workers=NUM_WORKERS,
                                optimize=False)
        measured.query_id = f"{closure_query.qid}[{PPLW_SPARK}]"
        return measured

    measured = benchmark.pedantic(run, rounds=1, iterations=1)
    figure_report.add(measured)
    _RESULTS[PPLW_SPARK] = measured
    assert measured.succeeded
    assert measured.metrics["task_waves"] == 1


def test_simulated_speedup_exceeds_floor(figure_report):
    """Pplw^s on 4 simulated workers must be >1.5x faster than in order."""
    if PPLW_SPARK not in _RESULTS:
        pytest.skip("the Pplw^s run was deselected")
    lines = [f"simulated speedup ({NUM_WORKERS} workers):"]
    for strategy, run in _RESULTS.items():
        lines.append(f"  {strategy:12s} {simulated_speedup(run):5.2f}x "
                     f"(tasks={run.metrics['tasks_launched']}, "
                     f"compute_skew={run.metrics['compute_skew']})")
    figure_report.add_section("\n".join(lines))
    speedup = simulated_speedup(_RESULTS[PPLW_SPARK])
    assert speedup > SPEEDUP_FLOOR, (
        f"Pplw^s simulated speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR}x floor")
