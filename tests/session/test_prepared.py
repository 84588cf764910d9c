"""Prepared/parameterized queries: plan once, bind many, answers correct."""

from __future__ import annotations

import pytest

import repro.algebra.evaluate as evaluate_module
import repro.algebra.stability as stability_module
import repro.distributed.partitioner as partitioner_module
import repro.distributed.physical as physical_module
import repro.distributed.plans as plans_module
from repro import LabeledGraph, Session
from repro.algebra import (Filter, RelVar, closure, closure_from_seed,
                           schemas_of_database)
from repro.data import Eq, Relation, row_mode
from repro.distributed.partitioner import analyse_fixpoints
from repro.errors import TranslationError
from repro.obs.metrics import get_registry
from repro.query.classes import classify_query
from repro.service.plan_cache import CachedPlan
from repro.session.parameters import Parameter, bind_plan, parameters_of
from repro.session.prepared import PreparedQuery


@pytest.fixture
def session(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=2) as session:
        yield session


def count_explores(session):
    """Instrument the rewriter; returns the live call-count list."""
    calls = []
    original = session.rewriter.explore

    def counting_explore(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    session.rewriter.explore = counting_explore
    return calls


class TestValueParameters:
    def test_bindings_match_adhoc_queries(self, session):
        prepared = session.prepare("?y <- :start knows+ ?y")
        for start in ("alice", "bob", "nobody"):
            bound = prepared.bind(start=start).collect().relation
            adhoc = session.ucrpq(f"?y <- {start} knows+ ?y") \
                if start != "nobody" else None
            if adhoc is not None:
                assert bound == adhoc.collect().relation
            else:
                assert len(bound) == 0

    def test_one_explore_for_many_bindings(self, session, registry):
        calls = count_explores(session)
        prepared = session.prepare("?y <- :start knows+ ?y")
        for start in ("alice", "bob", "carol", "dave", "alice"):
            prepared.bind(start=start).collect()
        assert calls == [1]
        assert registry.counter("repro_plan_cache_total",
                                outcome="hit").value >= 4

    def test_the_template_is_keyed_once(self, session, monkeypatch):
        """Canonicalizing and printing the template is most of a cached
        bind; the strict gate and the plan lookup share one key."""
        from repro.service import plan_cache
        keyed = []
        original = plan_cache.cache_key
        monkeypatch.setattr(plan_cache, "cache_key",
                            lambda term: keyed.append(term) or original(term))
        prepared = session.prepare("?y <- :start knows+ ?y")
        for start in ("alice", "bob", "carol"):
            prepared.bind(start=start).run_once(check=True)
        template = prepared.bind(start="dave")._plan_term
        assert [term for term in keyed if term is template] == [template]

    def test_a_plan_hit_looks_up_the_plan_and_the_result_only(
            self, session, monkeypatch):
        """The template carries its own key and inputs, so a binding's
        plan hit looks up no per-term memo."""
        from repro.service.cache import LRUCache
        prepared = session.prepare("?y <- :start knows+ ?y")
        prepared.bind(start="alice").run_once()
        lookups = []
        original = LRUCache.get
        monkeypatch.setattr(
            LRUCache, "get",
            lambda cache, key, default=None:
            lookups.append(type(key).__name__) or original(cache, key,
                                                           default))
        _, plan_hit, _ = prepared.bind(start="bob").run_once()
        assert plan_hit is True
        assert lookups == ["PlanKey", "ResultKey"]

    def test_bindings_share_the_templates_compiled_kernels(self, session):
        """``bind_plan`` used to copy the template's *empty* kernel slot,
        so every binding executed under Pgld (which binds through the
        plan's own cache) compiled its kernels again."""
        compiles = get_registry().counter("repro_kernel_compiles_total")
        prepared = session.prepare("?y <- :start knows+ ?y")
        before = compiles.value
        plans = []
        for start in ("alice", "bob"):
            bound = prepared.bind(start=start)
            bound.run_once(strategy="pgld", use_result_cache=False)
            plans.append(bound.plan("pgld"))
        assert compiles.value - before == 1
        assert plans[0].kernel_program is plans[1].kernel_program
        assert len(plans[0].kernel_program) == 1

    def test_distinct_bindings_do_not_share_results(self, session):
        prepared = session.prepare("?y <- :start knows ?y")
        alice = prepared.bind(start="alice").collect().relation
        bob = prepared.bind(start="bob").collect().relation
        assert alice != bob

    def test_mutation_invalidates_the_template_plan(self, session):
        calls = count_explores(session)
        prepared = session.prepare("?y <- :start knows+ ?y")
        prepared.bind(start="alice").collect()
        assert calls == [1]
        session.add_edges("knows", [("zoe", "alice")])
        prepared.bind(start="zoe").collect()
        # New statistics, new fingerprint: the template is re-planned once.
        assert calls == [1, 1]


def count_analyses(monkeypatch):
    """Count the fixpoint decompositions and partitionings run through
    every module of the plan and execution path that calls them."""
    calls = {"decompose": 0, "plan_partitioning": 0}
    for module in (evaluate_module, partitioner_module, physical_module,
                   plans_module, stability_module):
        for name in calls:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
    return calls


class TestBindingsReuseTheTemplateAnalysis:
    """A fixpoint's decomposition and partitioning depend on the term's
    shape and the schemas, never on a bound constant: the template's
    plan computes them once, and each binding substitutes its constants
    into them instead of analysing its own tree."""

    @pytest.fixture
    def graph(self):
        graph = LabeledGraph(name="bind-analysis")
        graph.add_edges([
            ("alice", "hasWonPrize", "nobel"), ("bob", "hasWonPrize", "nobel"),
            ("bob", "hasWonPrize", "turing"), ("carol", "hasWonPrize", "turing"),
            ("dave", "hasWonPrize", "fields"),
            ("grenoble", "isLocatedIn", "france"),
            ("lyon", "isLocatedIn", "france"),
            ("france", "isLocatedIn", "europe"),
            ("alice", "knows", "bob"), ("bob", "knows", "carol"),
            ("carol", "knows", "dave"), ("dave", "knows", "bob"),
        ])
        return graph

    def test_five_bindings_analyse_once(self, session, monkeypatch):
        calls = count_analyses(monkeypatch)
        prepared = session.prepare("?y <- :start knows+ ?y")
        prepared.bind(start="alice").run_once(use_result_cache=False)
        # The template's plan: explored (the rewriter decomposes too)
        # and analysed once.
        planned = dict(calls)
        assert planned["plan_partitioning"] == 1
        for start in ("bob", "carol", "dave", "nobody"):
            prepared.bind(start=start).run_once(use_result_cache=False)
        assert calls == planned

    @pytest.mark.parametrize("template,constants", [
        ("?y <- :c knows+ ?y", ("alice", "dave", "absent")),
        ("?x <- ?x isLocatedIn+ :c", ("europe", "france", "absent")),
        ("?x <- :c (hasWonPrize/-hasWonPrize)+ ?x",
         ("alice", "dave", "absent")),
    ])
    def test_bound_results_equal_cold_row_evaluations(self, graph, template,
                                                      constants):
        with Session(graph, num_workers=4) as session:
            prepared = session.prepare(template)
            schemas = session.snapshot().schemas
            for constant in constants:
                bound = prepared.bind(c=constant)
                result, _, _ = bound.run_once(use_result_cache=False)
                plan = bound.plan()
                # The substituted analysis is the one the bound term has.
                assert plan.analysis == analyse_fixpoints(plan.term, schemas)
                with row_mode():
                    cold, _, _ = session.ucrpq(
                        template.replace(":c", constant)).run_once(
                            use_plan_cache=False, use_result_cache=False)
                assert result.relation == cold.relation
                if constant == "absent":
                    assert len(result.relation) == 0

    def test_a_parameter_in_the_variable_part_is_bound_there(
            self, paper_database):
        """Only the part holding a parameter is rebuilt; the other stays
        the template's object."""
        step = Filter(Eq("trg", Parameter("c")), RelVar("E"))
        template = closure_from_seed(RelVar("S"), step, var="X")
        schemas = schemas_of_database(paper_database)
        plan = CachedPlan(term=template, cost=1.0, plans_explored=1,
                          dependencies=frozenset({"E", "S"}),
                          analysis=analyse_fixpoints(template, schemas))
        bound = bind_plan(plan, {"c": 5})
        assert bound.analysis == analyse_fixpoints(bound.term, schemas)
        before, after = (p.analysis[0].decomposition for p in (plan, bound))
        assert after.constant_part is before.constant_part
        assert parameters_of(before.variable_part) == frozenset({"c"})
        assert parameters_of(after.variable_part) == frozenset()

    def test_a_schema_change_gives_a_fresh_analysis(self, session):
        term = closure(RelVar("knows"), var="X")
        plan, _, _ = session.resolve_plan(term)
        widened = Relation(("src", "trg", "w"), [("bob", "zoe", 1)])
        other = session.snapshot().mutate({"knows": widened})
        fresh, hit, _ = session.resolve_plan(term, snapshot=other)
        assert hit is False and fresh is not plan
        assert [a.partitioning.key_columns for a in plan.analysis] \
            == [("src",)]
        assert [a.partitioning.key_columns for a in fresh.analysis] \
            == [("src", "w")]
        assert session.resolve_plan(term)[0] is plan

    def test_bound_classes_are_the_templates(self, graph):
        """The classes read the path shape and which endpoints are
        constants, so one classification serves every binding.  The
        templates are the end-to-end benchmark's prepared shapes."""
        templates = ("?y <- :c hasChild+ ?y", "?y <- :c isLocatedIn+ ?y",
                     "?x <- ?x isLocatedIn+ :c", "?y <- :c isConnectedTo+ ?y",
                     "?x <- :c influences+ ?x",
                     "?x <- :c (hasWonPrize/-hasWonPrize)+ ?x",
                     "?y <- :c (enc/-enc)+ ?y", "?y <- :c int+ ?y")
        graph.add_edges([("alice", label, "bob") for label in (
            "hasChild", "isConnectedTo", "influences", "enc", "int")])
        with Session(graph, num_workers=2) as session:
            for template in templates:
                self._check_classes(PreparedQuery(session, template))

    @staticmethod
    def _check_classes(prepared):
        for constant in ("alice", "bob"):
            bound = prepared.bind(c=constant)
            assert bound.classes == classify_query(bound.ast)
        assert prepared.bind(c="x").classes is prepared.bind(c="y").classes


class TestPreparedAcrossSnapshots:
    def test_rebinding_after_commit_sees_the_new_head(self, session):
        """prepare() once, bind/collect, mutate, bind/collect again: the
        second execution reads the new head while the template's
        one-explore-per-snapshot guarantee still holds."""
        calls = count_explores(session)
        prepared = session.prepare("?y <- :start knows+ ?y")
        first = prepared.bind(start="alice")
        before = first.collect().relation
        assert calls == [1]
        session.add_edges("knows", [("dave", "zoe")])
        second = prepared.bind(start="alice")
        after = second.collect().relation
        # The new binding pinned the new head: zoe is reachable now.
        assert "zoe" in after.column_values("y")
        assert second.pinned_snapshot.version == 1
        # One re-explore for the new fingerprint, then hits again.
        assert calls == [1, 1]
        third = prepared.bind(start="bob")
        third.collect()
        assert calls == [1, 1]
        # The first binding stays a repeatable read of its snapshot.
        assert first.collect().relation == before
        assert first.pinned_snapshot.version == 0


class TestLabelParameters:
    def test_label_binding_selects_the_relation(self, session):
        prepared = session.prepare("?x,?y <- ?x :edge+ ?y", params=("edge",))
        knows = prepared.bind(edge="knows").collect().relation
        located = prepared.bind(edge="isLocatedIn").collect().relation
        assert knows == session.ucrpq("?x,?y <- ?x knows+ ?y").collect().relation
        assert located == \
            session.ucrpq("?x,?y <- ?x isLocatedIn+ ?y").collect().relation

    def test_rebinding_same_label_hits_the_plan_cache(self, session):
        calls = count_explores(session)
        prepared = session.prepare("?x,?y <- ?x :edge+ ?y")
        prepared.bind(edge="knows").collect()
        prepared.bind(edge="isLocatedIn").collect()
        prepared.bind(edge="knows").collect()
        # One explore per distinct label (their statistics differ), then hits.
        assert calls == [1, 1]

    def test_unknown_label_binding_fails_cleanly(self, session):
        prepared = session.prepare("?x,?y <- ?x :edge+ ?y")
        with pytest.raises(TranslationError):
            prepared.bind(edge="noSuchLabel")

    def test_label_binding_must_be_a_string(self, session):
        prepared = session.prepare("?x,?y <- ?x :edge+ ?y")
        with pytest.raises(TranslationError):
            prepared.bind(edge=42)


class TestTemplateValidation:
    def test_inferred_params_cover_labels_and_values(self, session):
        prepared = session.prepare("?y <- :start :edge+ ?y")
        assert prepared.params == ("edge", "start")
        assert prepared.label_params == frozenset({"edge"})
        assert prepared.value_params == frozenset({"start"})

    def test_declared_params_must_match_placeholders(self, session):
        with pytest.raises(TranslationError):
            session.prepare("?y <- :start knows+ ?y", params=("start", "end"))
        with pytest.raises(TranslationError):
            session.prepare("?y <- :start knows+ ?y", params=())

    def test_bind_rejects_missing_and_unknown_parameters(self, session):
        prepared = session.prepare("?y <- :start knows+ ?y")
        with pytest.raises(TranslationError):
            prepared.bind()
        with pytest.raises(TranslationError):
            prepared.bind(start="alice", end="bob")

    def test_namespaced_identifiers_are_not_placeholders(self, session):
        session.add_edges("rdfs:subClassOf", [("a", "b")])
        prepared = session.prepare("?x,?y <- ?x rdfs:subClassOf ?y ")
        assert prepared.params == ()
        assert prepared.bind().count() == 1


class TestParameterSentinels:
    def test_template_term_carries_sentinels(self, session):
        prepared = session.prepare("?y <- :start knows+ ?y")
        bound = prepared.bind(start="alice")
        template = bound._plan_term
        assert parameters_of(template) == frozenset({"start"})
        # The executed plan has the concrete value substituted in.
        assert parameters_of(bound.plan().term) == frozenset()

    def test_sentinel_repr_cannot_collide_with_parser_output(self):
        assert " " in repr(Parameter("start"))
