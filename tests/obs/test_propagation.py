"""Trace-context propagation across every concurrency boundary.

The tracer and current span live in ContextVars; cluster tasks run on the
submitting thread, and the one internal thread hand-off (the service's
request workers) copies the submitting context.  These tests pin the
two properties that make traces trustworthy:

* **continuity** — spans produced by cluster tasks and on worker threads
  attach under the submitting query's root (one connected tree per query),
* **isolation** — concurrent queries never adopt each other's spans.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

import pytest

from repro import PGLD, PPLW_SPARK, QueryService, Session, SparkCluster
from repro.algebra import RelVar, closure
from repro.data import LabeledGraph, row_mode
from repro.distributed import AUTO, ParallelLocalLoops, PartitioningDecision
from repro.obs import tracing
from repro.obs.tracing import Tracer

TC_QUERY = "?x,?y <- ?x knows+ ?y"


def _chain_graph(name: str = "prop-kg", length: int = 10) -> LabeledGraph:
    graph = LabeledGraph(name=name)
    graph.add_edges([(f"n{i}", "knows", f"n{i + 1}") for i in range(length)])
    return graph


def _assert_one_connected_trace(records) -> None:
    """Every record shares one trace id and parents resolve internally."""
    assert records
    trace_ids = {record.trace_id for record in records}
    assert len(trace_ids) == 1, f"records from {len(trace_ids)} traces"
    span_ids = {record.span_id for record in records}
    roots = [record for record in records if record.parent_id is None]
    assert len(roots) == 1, f"{len(roots)} roots in one trace"
    for record in records:
        if record.parent_id is not None:
            assert record.parent_id in span_ids, (
                f"{record.name} parented under a span outside the trace")


class TestClusterTasks:
    # row_mode() is context-local: the tasks run in the submitting
    # context, so they iterate on the engine it chose — in the Pgld
    # partition tasks and the Pplw local loops alike.
    @pytest.mark.parametrize("strategy", (PGLD, PPLW_SPARK, AUTO))
    @pytest.mark.parametrize("engine", ("columnar", "row"))
    def test_fixpoint_spans_join_the_query_trace(self, engine, strategy):
        tracer = Tracer(enabled=True)
        with Session(_chain_graph(), num_workers=2) as session:
            with tracing.activate(tracer):
                with tracing.span("test.root"):
                    with row_mode() if engine == "row" else nullcontext():
                        session.ucrpq(TC_QUERY).run_once(
                            strategy=strategy, use_result_cache=False)
        records = tracer.records()
        _assert_one_connected_trace(records)
        iterations = [dict(record.attributes) for record in records
                      if record.name == "fixpoint.iteration"]
        assert iterations, (
            "worker-side iteration spans did not reach the submitting "
            "tracer")
        assert {attributes["engine"] for attributes in iterations} == {engine}

    @pytest.mark.parametrize("engine", ("columnar", "row"))
    def test_round_robin_local_loops_join_the_plan_trace(self, engine):
        """``Pplw^s`` split round robin: every local loop's spans join
        the caller's trace, on the engine the caller chose."""
        database = _chain_graph().relations()
        plan = ParallelLocalLoops(
            SparkCluster(num_workers=2), database,
            partitioning_override=PartitioningDecision.round_robin())
        tracer = Tracer(enabled=True)
        with tracing.activate(tracer):
            with tracing.span("test.root"):
                with row_mode() if engine == "row" else nullcontext():
                    plan.execute(closure(RelVar("knows"), var="X"))
        records = tracer.records()
        _assert_one_connected_trace(records)
        assert len([record for record in records
                    if record.name == "fixpoint.local_loop"]) == 2
        assert {dict(record.attributes)["engine"] for record in records
                if record.name == "fixpoint.iteration"} == {engine}
        assert not plan.cluster.metrics.final_union_skipped

    def test_tasks_see_the_submitting_span_as_parent(self):
        """A task of a wave run under a span nests beneath it."""
        def task(index: int) -> str | None:
            with tracing.span("worker.task", index=index):
                return tracing.current_span_id()

        tracer = Tracer(enabled=True)
        with tracing.activate(tracer):
            with tracing.span("driver") as driver:
                values = SparkCluster(num_workers=2).run_tasks(
                    task, [(0,), (1,)])
        assert all(value is not None for value in values)
        task_records = [record for record in tracer.records()
                        if record.name == "worker.task"]
        assert len(task_records) == 2
        for record in task_records:
            assert record.parent_id == driver.span_id
            assert record.trace_id == driver.trace_id


class TestServiceIsolation:
    def test_concurrent_submits_do_not_leak_spans(self):
        """Each client's tracer sees exactly its own query's spans, from
        the worker that served the miss and from the submitting thread
        that answered the hit."""
        queries = [
            "?x,?y <- ?x knows+ ?y",
            "?x,?y <- ?x knows/knows ?y",
            "?x,?y <- ?x knows ?y",
        ]
        tracers = [Tracer(enabled=True) for _ in queries]
        errors: list[Exception] = []
        barrier = threading.Barrier(len(queries))

        def client(index: int) -> None:
            try:
                with tracing.activate(tracers[index]):
                    with tracing.span("client", index=index):
                        barrier.wait(timeout=10)
                        for _ in range(2):
                            service.submit(queries[index], block=True) \
                                   .result(timeout=30)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        session = Session(_chain_graph(), num_workers=2)
        with QueryService(session, max_in_flight=len(queries),
                          own_engine=True) as service:
            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(len(queries))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors, errors
        for index, tracer in enumerate(tracers):
            records = tracer.records()
            _assert_one_connected_trace(records)
            (client_root,) = [r for r in records if r.name == "client"]
            assert client_root.attribute("index") == index
            served = [r for r in records if r.name == "service.request"]
            assert len(served) == 2
            assert all(request.parent_id == client_root.span_id
                       for request in served)

    def test_untraced_clients_stay_untraced(self):
        """A traced client next to an untraced one leaves no residue."""
        tracer = Tracer(enabled=True)
        session = Session(_chain_graph(), num_workers=2)
        with QueryService(session, own_engine=True) as service:
            with tracing.activate(tracer):
                service.submit(TC_QUERY, block=True).result(timeout=30)
            before = len(tracer.records())
            service.submit(TC_QUERY, block=True).result(timeout=30)
            assert len(tracer.records()) == before
