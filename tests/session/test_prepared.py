"""Prepared/parameterized queries: plan once, bind many, answers correct."""

from __future__ import annotations

import pytest

from repro import Session
from repro.errors import TranslationError
from repro.obs.metrics import get_registry
from repro.session.parameters import Parameter, parameters_of


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

    def test_one_explore_for_many_bindings(self, session):
        calls = count_explores(session)
        prepared = session.prepare("?y <- :start knows+ ?y")
        for start in ("alice", "bob", "carol", "dave", "alice"):
            prepared.bind(start=start).collect()
        assert calls == [1]
        stats = session.plan_cache.stats
        assert stats.hits >= 4

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
