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
from repro.data import LabeledGraph, Relation, row_mode
from repro.distributed import PGLD, PPLW_SPARK, SparkCluster, make_plan
from repro.errors import EvaluationError
from repro.obs import tracing
from repro.obs.metrics import get_registry
from repro.obs.tracing import Tracer
from repro.session import Session

ENGINES = ("columnar", "row")

#: ``build_plan`` (tests/conftest.py) builds this one.
PPLW_ROUND_ROBIN = "plw-spark-round-robin"

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


def bind(fixpoint, engine, cache=None):
    """``fixpoint``'s step over ``CHAIN``, bound once on ``engine``; the
    seed; and the dictionary the bind shares."""
    evaluator = Evaluator({"E": CHAIN}, kernel_cache=cache
                          if cache is not None else KernelProgramCache())
    decomposition = decompose(fixpoint)
    seed = evaluator.evaluate(decomposition.constant_part)
    with pinned(engine):
        bound = evaluator.bind_step(fixpoint.var, decomposition.variable_part,
                                    seed.columns, evaluator.evaluate_constant)
    return bound, seed, evaluator.dictionary


def drive(fixpoint, engine, limit=100, nonconvergence="did not converge",
          cache=None):
    """Run one fixpoint over ``CHAIN`` through ``run_fixpoint``."""
    bound, seed, dictionary = bind(fixpoint, engine, cache)
    return run_fixpoint(bound, seed, dictionary, limit, nonconvergence)


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


def test_local_loops_trace_iterations_on_the_row_engine(paper_database):
    """The ``Pplw`` row fallback used to run dark."""
    tracer = Tracer(enabled=True)
    with row_mode(), tracing.activate(tracer):
        plan = make_plan(PPLW_SPARK, SparkCluster(num_workers=4),
                         paper_database)
        plan.execute(closure(RelVar("E"), var="X"))
    spans = iteration_spans(tracer)
    assert len(spans) == 13  # == local_iterations below
    assert {attributes["engine"] for attributes in spans} == {"row"}


#: ClusterMetrics of the closure of E on the paper database (4 workers),
#: captured before the loops were unified.  Since the
#: driver resolves and indexes the broadcast operand once for all four
#: tasks, ``Pplw`` builds one index where every task used to build its
#: own (4 builds / 9 reuses); one access per local iteration either way.
_PLW = {"shuffles": 0, "tuples_shuffled": 0, "broadcasts": 1,
        "tuples_broadcast": 56, "tasks_launched": 4, "task_waves": 1,
        "global_iterations": 0, "local_iterations": 13, "index_builds": 1,
        "index_reuses": 12, "duplicates_eliminated": 0}
_PGLD = {"shuffles": 8, "tuples_shuffled": 299, "broadcasts": 4,
         "tuples_broadcast": 224, "global_iterations": 4,
         "local_iterations": 0, "index_builds": 1, "index_reuses": 3,
         "duplicates_eliminated": 0}
#: ``Pplw^s`` split round robin, which the hand-written loops did not
#: cover: the local fixpoints overlap, so the final union shuffles the 59
#: rows the workers produced once and eliminates the 22 duplicates.
_PLW_ROUND_ROBIN = dict(_PLW, shuffles=1, tuples_shuffled=59,
                        local_iterations=18, index_reuses=17,
                        duplicates_eliminated=22)
#: The shape every entry above runs: ``build_plan``'s plan over the
#: closure of E.
CLOSURE_OF_E = "E+"
PARENT_COUNTERS = {
    (CLOSURE_OF_E, PGLD, "columnar"): dict(_PGLD, tasks_launched=16,
                                           task_waves=4),
    # One map_partitions wave per iteration on either engine (the row
    # fallback used to launch one wave per operator: 48 tasks, 12 waves).
    (CLOSURE_OF_E, PGLD, "row"): dict(_PGLD, tasks_launched=16,
                                      task_waves=4),
    (CLOSURE_OF_E, PPLW_SPARK, "columnar"): _PLW,
    (CLOSURE_OF_E, PPLW_SPARK, "row"): _PLW,
    (CLOSURE_OF_E, PPLW_ROUND_ROBIN, "columnar"): _PLW_ROUND_ROBIN,
    (CLOSURE_OF_E, PPLW_ROUND_ROBIN, "row"): _PLW_ROUND_ROBIN,
}

#: Two ``recursive-cold`` shapes whose fixpoint seed holds a join, so
#: the kernels compute it with a seed program, bound after the step.
SEED_PROGRAM_QUERIES = {
    "-a/(b/-b)+": "?x,?y <- ?x -a/(b/-b)+ ?y",
    "(a/-a)+/b": "?x,?y <- ?x (a/-a)+/b ?y",
}
#: A fixed two-label graph: each node has two ``a``- and two
#: ``b``-successors, shared with its neighbour, so ``b/-b`` and ``a/-a``
#: link each node to the next and their closures take several rounds.
SEED_PROGRAM_GRAPH = LabeledGraph(name="seed-programs")
SEED_PROGRAM_GRAPH.add_edges(
    [(i, "a", 10 + i + d) for i in range(6) for d in (0, 1)]
    + [(i, "b", 20 + i + d) for i in range(6) for d in (0, 1)]
    + [(10 + i, "b", 20 + i) for i in (1, 3, 5)])
#: Every traffic counter of the two queries on that graph (4 workers),
#: captured before the step was bound once per execution; both engines
#: agree.
_SEED_PGLD = {"shuffles": 10, "broadcasts": 5, "tasks_launched": 20,
              "task_waves": 5, "global_iterations": 5, "local_iterations": 0,
              "duplicates_eliminated": 0, "final_union_skipped": False,
              "partitioning": "none", "index_builds": 1, "index_reuses": 4}
_SEED_PLW = {"shuffles": 0, "tuples_shuffled": 0, "broadcasts": 2,
             "tasks_launched": 4, "task_waves": 1, "global_iterations": 0,
             "local_iterations": 18, "duplicates_eliminated": 0,
             "final_union_skipped": True, "partitioning": "stable-column",
             "index_builds": 1, "index_reuses": 17}
SEED_PROGRAM_COUNTERS = {
    ("-a/(b/-b)+", PGLD): dict(
        _SEED_PGLD, tuples_shuffled=741, tuples_broadcast=620,
        tuples_processed_per_worker={0: 58, 1: 60, 2: 50, 3: 43}),
    ("-a/(b/-b)+", PPLW_SPARK): dict(
        _SEED_PLW, tuples_broadcast=120,
        tuples_processed_per_worker={0: 18, 1: 18, 2: 18, 3: 9}),
    ("(a/-a)+/b", PGLD): dict(
        _SEED_PGLD, tuples_shuffled=396, tuples_broadcast=320,
        tuples_processed_per_worker={0: 28, 1: 26, 2: 20, 3: 22}),
    ("(a/-a)+/b", PPLW_SPARK): dict(
        _SEED_PLW, tuples_broadcast=96,
        tuples_processed_per_worker={0: 12, 1: 6, 2: 6, 3: 12}),
}
PARENT_COUNTERS.update({
    (query, strategy, engine): counters
    for (query, strategy), counters in SEED_PROGRAM_COUNTERS.items()
    for engine in ENGINES})
ROWS = {CLOSURE_OF_E: 37, "-a/(b/-b)+": 63, "(a/-a)+/b": 42}


@pytest.mark.parametrize("shape,strategy,engine", [
    pytest.param(*key, id="-".join(key[1:] if key[0] == CLOSURE_OF_E
                                   else key))
    for key in sorted(PARENT_COUNTERS)])
def test_cluster_counters_match_the_hand_written_loops(paper_database,
                                                       build_plan, shape,
                                                       strategy, engine):
    if shape == CLOSURE_OF_E:
        cluster = SparkCluster(num_workers=4)
        with pinned(engine):
            result = build_plan(strategy, cluster, paper_database).execute(
                closure(RelVar("E"), var="X"))
        metrics = cluster.metrics
    else:
        with pinned(engine), Session(SEED_PROGRAM_GRAPH,
                                     num_workers=4) as session:
            run = session.ucrpq(SEED_PROGRAM_QUERIES[shape]).run_once(
                strategy=strategy, use_result_cache=False)[0]
        result, metrics = run.relation, run.metrics
    assert len(result) == ROWS[shape]
    assert {name: getattr(metrics, name)
            for name in PARENT_COUNTERS[shape, strategy, engine]} \
        == PARENT_COUNTERS[shape, strategy, engine]


@pytest.mark.parametrize("engine", ENGINES)
def test_an_empty_seed_returns_before_stepping(engine):
    """An empty seed is its own fixpoint: 0 iterations, no index access,
    and neither the kernel program nor the step is touched for it."""
    fixpoint, _ = FIXPOINTS["tc"]
    cache = KernelProgramCache()
    bound, _, dictionary = bind(fixpoint, engine, cache=cache)
    reuses = get_registry().counter("repro_kernel_reuses_total")
    before = reuses.value

    def no_step(delta):
        raise AssertionError("stepped an empty seed")

    if bound.kernel is None:
        bound.row_step = no_step
    else:
        bound.kernel.step = bound.kernel.grouped_step = no_step
    seed = Relation(("src", "trg"), [])
    run = run_fixpoint(bound, seed, dictionary, 100, "did not converge")
    assert run.iterations == 0 and len(run.relation) == 0
    assert (run.index_builds, run.index_reuses, run.probes) == (0, 0, 0)
    assert reuses.value == before


@pytest.mark.parametrize("strategy", (PGLD, PPLW_SPARK, PPLW_ROUND_ROBIN))
def test_an_empty_seed_accesses_no_index_on_either_plan(paper_database,
                                                        build_plan,
                                                        strategy):
    """No iteration, no index access: the driver's bind may build an
    index, but no loop ever probes it."""
    fixpoint = closure_from_seed(filter_source(RelVar("S"), 99),
                                 RelVar("E"), var="X")
    for engine in ENGINES:
        cluster = SparkCluster(num_workers=4)
        with pinned(engine):
            relation = build_plan(strategy, cluster,
                                  paper_database).execute(fixpoint)
        metrics = cluster.metrics
        assert len(relation) == 0
        assert (metrics.global_iterations, metrics.local_iterations,
                metrics.index_builds, metrics.index_reuses) == (0, 0, 0, 0)


@pytest.mark.parametrize("strategy", (PPLW_SPARK, PPLW_ROUND_ROBIN))
def test_local_loops_over_empty_chunks_count_indexes_like_the_row_engine(
        paper_database, build_plan, strategy):
    """Eight workers, a two-row seed: most chunks are empty.  An empty
    chunk's task used to bind its kernels and count an index reuse the
    row engine never makes."""
    fixpoint = closure_from_seed(filter_source(RelVar("S"), 1),
                                 RelVar("E"), var="X")
    seen = {}
    for engine in ENGINES:
        cluster = SparkCluster(num_workers=8)
        with pinned(engine):
            relation = build_plan(strategy, cluster,
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
