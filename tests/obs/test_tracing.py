"""Tracer mechanics: spans, nesting, scoping, the off switch."""

from __future__ import annotations

import os

import pytest

from repro import Session
from repro.obs import tracing
from repro.obs.tracing import NOOP_SPAN, Span, SpanRecord, Tracer


class TestDisabledPath:
    def test_disabled_tracer_hands_out_the_shared_noop_span(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything") is NOOP_SPAN
        assert tracer.span("other", key="value") is NOOP_SPAN

    def test_noop_span_is_inert(self):
        with NOOP_SPAN as span:
            assert span.enabled is False
            assert span.span_id is None
            assert span.set_attribute("k", "v") is span
        assert tracing.current_span_id() is None

    def test_ambient_default_is_disabled(self):
        assert tracing.tracing_enabled() is False
        assert tracing.span("anything") is NOOP_SPAN

    @pytest.mark.parametrize("action", ("execute", "hit", "commit"))
    def test_a_disabled_pipeline_opens_no_span(self, small_labeled_graph,
                                               monkeypatch, action):
        """Off means every call site gets ``NOOP_SPAN``: an execution,
        a cache hit and a commit construct no :class:`Span` at all."""
        opened = []
        init = Span.__init__

        def counting(span, *args, **kwargs):
            opened.append(span)
            init(span, *args, **kwargs)

        query = "?x,?y <- ?x knows+ ?y"
        with Session(small_labeled_graph, num_workers=2) as session:
            session.ucrpq(query).collect()
            monkeypatch.setattr(Span, "__init__", counting)
            if action == "execute":
                session.ucrpq(query).run_once(use_result_cache=False)
            elif action == "hit":
                session.ucrpq(query).collect()
            else:
                session.add_edges("knows", [("dave", "erin")])
        assert opened == []


class TestEnabledPath:
    def test_spans_nest_and_finish_children_first(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer", stage="a") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        records = tracer.records()
        assert [record.name for record in records] == ["inner", "outer"]

    def test_root_span_id_doubles_as_trace_id(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            assert root.trace_id == root.span_id
            assert root.parent_id is None

    def test_attributes_are_recorded(self):
        tracer = Tracer(enabled=True)
        with tracer.span("stage", rows=3) as span:
            span.set_attribute("extra", "yes")
        (record,) = tracer.records()
        assert record.attribute("rows") == 3
        assert record.attribute("extra") == "yes"
        assert record.attribute("missing", "default") == "default"

    def test_sibling_traces_are_distinct(self):
        tracer = Tracer(enabled=True)
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        first, second = tracer.records()
        assert first.trace_id != second.trace_id

    def test_capacity_bounds_the_buffer(self):
        tracer = Tracer(enabled=True, capacity=4)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        records = tracer.records()
        assert len(records) == 4
        assert [record.name for record in records] == ["s6", "s7", "s8", "s9"]

    def test_exporter_sees_every_finished_record(self):
        exported = []
        tracer = Tracer(enabled=True, exporter=exported.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [record.name for record in exported] == ["inner", "outer"]

    def test_clear_empties_the_buffer(self):
        tracer = Tracer(enabled=True)
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.records() == []


class TestActivation:
    def test_activate_is_scoped(self):
        tracer = Tracer(enabled=True)
        assert tracing.current_tracer() is not tracer
        with tracing.activate(tracer):
            assert tracing.current_tracer() is tracer
        assert tracing.current_tracer() is not tracer

    def test_ambient_span_records_into_the_active_tracer(self):
        tracer = Tracer(enabled=True)
        with tracing.activate(tracer):
            with tracing.span("ambient", via="helper"):
                assert tracing.current_span_id() is not None
                assert tracing.current_trace_id() is not None
        (record,) = tracer.records()
        assert record.name == "ambient"

    def test_configure_tracing_swaps_the_process_default(self):
        installed = tracing.configure_tracing(enabled=True)
        try:
            assert tracing.current_tracer() is installed
            with tracing.span("via-default"):
                pass
            assert [r.name for r in installed.records()] == ["via-default"]
        finally:
            tracing.configure_tracing(enabled=False)
        assert tracing.tracing_enabled() is False


class TestSpanIds:
    def test_span_ids_are_pid_prefixed(self):
        tracer = Tracer(enabled=True)
        with tracer.span("here") as span:
            assert span.span_id.startswith(f"{os.getpid():x}-")


class TestRecordImmutability:
    def test_records_are_frozen(self):
        record = SpanRecord(trace_id="t", span_id="s", parent_id=None,
                            name="n", started_at=0.0, duration_seconds=0.0)
        with pytest.raises(AttributeError):
            record.name = "other"
