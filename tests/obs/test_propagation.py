"""Trace-context propagation across every concurrency boundary.

The tracer and current span live in ContextVars; every internal thread
hand-off (the ``threads`` executor backend, the session's background
worker, the service's request workers) copies the submitting context, and
the ``processes`` backend ships a :class:`TraceHandoff` and adopts the
child's records.  These tests pin the two properties that make traces
trustworthy:

* **continuity** — spans produced on worker threads / processes attach
  under the submitting query's root (one connected tree per query),
* **isolation** — concurrent queries never adopt each other's spans.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext

import pytest

from repro import QueryService, Session
from repro.data import LabeledGraph, row_mode
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


class TestExecutorBackends:
    @pytest.mark.parametrize("executor,engine", [
        pytest.param("serial", "columnar", id="serial"),
        pytest.param("threads", "columnar", id="threads"),
        pytest.param("processes", "columnar", id="processes"),
        # row_mode() is context-local: it reaches task threads in a copy
        # of the submitting context, pool processes as task data.
        pytest.param("serial", "row", id="serial-row"),
        pytest.param("threads", "row", id="threads-row"),
        pytest.param("processes", "row", id="processes-row")])
    def test_fixpoint_spans_join_the_query_trace(self, executor, engine):
        tracer = Tracer(enabled=True)
        with Session(_chain_graph(), num_workers=2,
                     executor=executor) as session:
            with tracing.activate(tracer):
                with tracing.span("test.root"):
                    with row_mode() if engine == "row" else nullcontext():
                        session.ucrpq(TC_QUERY).run_once(
                            use_result_cache=False)
        records = tracer.records()
        _assert_one_connected_trace(records)
        iterations = [dict(record.attributes) for record in records
                      if record.name == "fixpoint.iteration"]
        assert iterations, (
            f"{executor}: worker-side iteration spans did not reach "
            f"the submitting tracer")
        assert {attributes["engine"] for attributes in iterations} == {engine}

    def test_thread_workers_see_the_submitting_span_as_parent(self):
        """A worker-thread task opened under a span nests beneath it."""
        from repro.distributed.executor import ThreadExecutor

        def task(index: int) -> str | None:
            with tracing.span("worker.task", index=index):
                return tracing.current_span_id()

        tracer = Tracer(enabled=True)
        backend = ThreadExecutor(max_workers=2)
        try:
            with tracing.activate(tracer):
                with tracing.span("driver") as driver:
                    outcomes = backend.map_tasks(task, [(0,), (1,)])
        finally:
            backend.close()
        assert all(outcome.value is not None for outcome in outcomes)
        task_records = [record for record in tracer.records()
                        if record.name == "worker.task"]
        assert len(task_records) == 2
        for record in task_records:
            assert record.parent_id == driver.span_id
            assert record.trace_id == driver.trace_id

    def test_process_workers_hand_spans_back_for_adoption(self):
        """The pickled handoff re-joins child-process spans to the trace."""
        tracer = Tracer(enabled=True)
        with Session(_chain_graph(), num_workers=2,
                     executor="processes") as session:
            with tracing.activate(tracer):
                with tracing.span("test.root"):
                    session.ucrpq(TC_QUERY).run_once(use_result_cache=False)
        _assert_one_connected_trace(tracer.records())


class TestBackgroundWorker:
    def test_submitted_actions_inherit_the_submitting_context(self):
        tracer = Tracer(enabled=True)

        def action() -> str | None:
            with tracing.span("background.action"):
                pass
            return tracing.current_trace_id()

        with Session(_chain_graph(), num_workers=2) as session:
            with tracing.activate(tracer):
                with tracing.span("test.submit") as root:
                    future = session.submit_action(action)
                    future.result(timeout=5)
        (record,) = [r for r in tracer.records()
                     if r.name == "background.action"]
        assert record.parent_id == root.span_id


class TestServiceIsolation:
    def test_concurrent_submits_do_not_leak_spans(self):
        """Each client's tracer sees exactly its own query's spans."""
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
                        service.submit(queries[index], block=True) \
                               .result(timeout=30)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        session = Session(_chain_graph(), num_workers=2, executor="threads")
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
            (request,) = [r for r in records if r.name == "service.request"]
            assert request.parent_id == client_root.span_id

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
