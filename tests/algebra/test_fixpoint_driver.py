"""Contract of the semi-naive driver (``repro.algebra.fixpoint``).

One loop serves every engine, so the contract is stated once and checked
against both accumulators: same iterations, same result, same guard,
same spans.  The cluster-counter literals at the bottom were captured at
the commit before the seven hand-written loops were replaced; ``Pgld``'s
row entry converged onto its columnar one when the row fallback became
one task wave per iteration too.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

import repro.algebra.fixpoint as fixpoint_module
from repro.algebra import (Evaluator, RelVar, closure, closure_from_seed,
                           decompose, filter_source, naive_fixpoint,
                           run_fixpoint)
from repro.algebra.kernels import KernelProgramCache
from repro.data import Relation, ValueDictionary, row_mode
from repro.distributed import (PGLD, PPLW_POSTGRES, PPLW_SPARK, SparkCluster,
                               make_plan)
from repro.errors import EvaluationError
from repro.obs import tracing
from repro.obs.metrics import get_registry
from repro.obs.tracing import Tracer

ENGINES = ("columnar", "row")

CHAIN = Relation.from_pairs([(i, i + 1) for i in range(6)] + [(2, 9)],
                            columns=("src", "trg"))

#: name -> (fixpoint, iterations both engines must take)
FIXPOINTS = {
    "tc": (closure(RelVar("E"), var="X"), 6),
    "filtered": (closure_from_seed(filter_source(RelVar("E"), 2),
                                   RelVar("E"), var="X"), 4),
}


def pinned(engine):
    return row_mode() if engine == "row" else nullcontext()


def drive(fixpoint, engine, limit=100, nonconvergence="did not converge",
          cache=None):
    """Run one fixpoint over ``CHAIN`` through ``run_fixpoint``."""
    database = {"E": CHAIN}
    evaluator = Evaluator(database)
    decomposition = decompose(fixpoint)
    seed = evaluator.evaluate(decomposition.constant_part)

    def row_step(delta):
        return evaluator.evaluate(decomposition.variable_part,
                                  env={fixpoint.var: delta})

    with pinned(engine):
        return run_fixpoint(
            cache if cache is not None else KernelProgramCache(),
            fixpoint.var, decomposition.variable_part,
            seed, ValueDictionary(), evaluator.evaluate_constant, row_step,
            limit, nonconvergence)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(FIXPOINTS))
def test_same_iterations_and_result_on_both_accumulators(name, engine):
    fixpoint, iterations = FIXPOINTS[name]
    run = drive(fixpoint, engine)
    assert run.iterations == iterations
    assert run.relation == naive_fixpoint(fixpoint, {"E": CHAIN})


@pytest.mark.parametrize("engine", ENGINES)
def test_limit_raises_the_callers_message_verbatim(engine):
    fixpoint, iterations = FIXPOINTS["tc"]
    message = "caller's words, limit 5, verbatim"
    with pytest.raises(EvaluationError) as raised:
        drive(fixpoint, engine, limit=iterations - 1, nonconvergence=message)
    assert str(raised.value) == message
    # The bound is inclusive: exactly `iterations` rounds are allowed.
    assert drive(fixpoint, engine, limit=iterations).iterations == iterations


def iteration_spans(tracer):
    return [dict(record.attributes) for record in tracer.records()
            if record.name == "fixpoint.iteration"]


def test_both_engines_emit_the_same_six_span_attributes():
    fixpoint, iterations = FIXPOINTS["tc"]
    spans = {}
    for engine in ENGINES:
        tracer = Tracer(enabled=True)
        with tracing.activate(tracer):
            drive(fixpoint, engine)
        spans[engine] = iteration_spans(tracer)
        assert len(spans[engine]) == iterations
        for attributes in spans[engine]:
            assert set(attributes) == {"var", "iteration", "delta",
                                       "produced", "total", "engine"}
            assert attributes["engine"] == engine
    # Engines differ in how many duplicates a step emits, never in what
    # is genuinely new.
    comparable = ("var", "iteration", "delta", "total")
    assert [[a[k] for k in comparable] for a in spans["columnar"]] \
        == [[a[k] for k in comparable] for a in spans["row"]]
    assert spans["row"][0] == {"var": "X", "iteration": 1, "delta": 7,
                               "produced": 6, "total": 13, "engine": "row"}


def test_grouped_and_flat_forms_emit_identical_spans(monkeypatch):
    """The closure of E, grouped on its stable column or flat: the same
    iterations, deltas, produced and totals, row for row."""
    fixpoint, iterations = FIXPOINTS["tc"]
    spans = {}
    for form, threshold in (("grouped", 0), ("flat", 10 ** 9)):
        monkeypatch.setattr(fixpoint_module, "GROUPED_MIN_ROWS_PER_KEY",
                            threshold)
        tracer = Tracer(enabled=True)
        with tracing.activate(tracer):
            drive(fixpoint, "columnar")
        spans[form] = iteration_spans(tracer)
    assert len(spans["grouped"]) == iterations
    assert spans["grouped"] == spans["flat"]
    assert spans["grouped"][0] == {"var": "X", "iteration": 1, "delta": 7,
                                   "produced": 6, "total": 13,
                                   "engine": "columnar"}


def test_postgres_local_loops_trace_iterations_on_the_row_engine(
        paper_database):
    """The ``Pplw^pg`` row fallback used to run dark."""
    tracer = Tracer(enabled=True)
    with row_mode(), tracing.activate(tracer):
        plan = make_plan(PPLW_POSTGRES, SparkCluster(num_workers=4),
                         paper_database)
        plan.execute(closure(RelVar("E"), var="X"))
    spans = iteration_spans(tracer)
    assert len(spans) == 13  # == local_iterations below
    assert {attributes["engine"] for attributes in spans} == {"row"}


#: ClusterMetrics of the closure of E on the paper database (4 workers,
#: serial executor), captured before the loops were unified.  Since the
#: driver resolves and indexes the broadcast operand once for all four
#: tasks, ``Pplw`` builds one index where every task used to build its
#: own (4 builds / 9 reuses); one access per local iteration either way.
_PLW = {"shuffles": 0, "tuples_shuffled": 0, "broadcasts": 1,
        "tuples_broadcast": 56, "tasks_launched": 4, "task_waves": 1,
        "global_iterations": 0, "local_iterations": 13, "index_builds": 1,
        "index_reuses": 12}
_PGLD = {"shuffles": 8, "tuples_shuffled": 299, "broadcasts": 4,
         "tuples_broadcast": 224, "global_iterations": 4,
         "local_iterations": 0, "tuples_marshalled": 0, "index_builds": 1,
         "index_reuses": 3}
PARENT_COUNTERS = {
    (PGLD, "columnar"): dict(_PGLD, tasks_launched=16, task_waves=4),
    # One map_partitions wave per iteration on either engine (the row
    # fallback used to launch one wave per operator: 48 tasks, 12 waves).
    (PGLD, "row"): dict(_PGLD, tasks_launched=16, task_waves=4),
    (PPLW_SPARK, "columnar"): dict(_PLW, tuples_marshalled=0),
    (PPLW_SPARK, "row"): dict(_PLW, tuples_marshalled=0),
    (PPLW_POSTGRES, "columnar"): dict(_PLW, tuples_marshalled=51),
    (PPLW_POSTGRES, "row"): dict(_PLW, tuples_marshalled=51),
}


@pytest.mark.parametrize("strategy,engine", sorted(PARENT_COUNTERS))
def test_cluster_counters_match_the_hand_written_loops(paper_database,
                                                       strategy, engine):
    cluster = SparkCluster(num_workers=4)
    with pinned(engine):
        result = make_plan(strategy, cluster, paper_database).execute(
            closure(RelVar("E"), var="X"))
    metrics = cluster.metrics
    assert len(result) == 37
    assert metrics.duplicates_eliminated == 0
    assert {name: getattr(metrics, name)
            for name in PARENT_COUNTERS[strategy, engine]} \
        == PARENT_COUNTERS[strategy, engine]


@pytest.mark.parametrize("engine", ENGINES)
def test_an_empty_seed_returns_before_binding(engine):
    """An empty seed is its own fixpoint: 0 iterations, and neither the
    kernel program nor an operand is looked up for it."""
    fixpoint, _ = FIXPOINTS["tc"]
    cache = KernelProgramCache()
    drive(fixpoint, engine, cache=cache)  # compiled (columnar) and cached
    reuses = get_registry().counter("repro_kernel_reuses_total")
    before = reuses.value

    def no_operand(term):
        raise AssertionError(f"resolved {term} for an empty seed")

    def no_step(delta):
        raise AssertionError("stepped an empty seed")

    seed = Relation(("src", "trg"), [])
    with pinned(engine):
        run = run_fixpoint(cache, fixpoint.var,
                           decompose(fixpoint).variable_part, seed,
                           ValueDictionary(), no_operand, no_step, 100,
                           "did not converge")
    assert run.iterations == 0 and len(run.relation) == 0
    assert (run.index_builds, run.index_reuses, run.probes) == (0, 0, 0)
    assert reuses.value == before


@pytest.mark.parametrize("strategy", (PPLW_SPARK, PPLW_POSTGRES))
def test_local_loops_over_empty_chunks_count_indexes_like_the_row_engine(
        paper_database, strategy):
    """Eight workers, a two-row seed: most chunks are empty.  An empty
    chunk's task used to bind its kernels and count an index reuse the
    row engine never makes."""
    fixpoint = closure_from_seed(filter_source(RelVar("S"), 1),
                                 RelVar("E"), var="X")
    seen = {}
    for engine in ENGINES:
        cluster = SparkCluster(num_workers=8)
        with pinned(engine):
            relation = make_plan(strategy, cluster,
                                 paper_database).execute(fixpoint)
        metrics = cluster.metrics
        seen[engine] = (relation, metrics.tasks_launched,
                        metrics.local_iterations, metrics.index_builds,
                        metrics.index_reuses)
    assert seen["columnar"] == seen["row"]
    relation, tasks, iterations, builds, reuses = seen["row"]
    assert relation == naive_fixpoint(fixpoint, paper_database)
    assert tasks == 8
    assert builds + reuses == iterations
