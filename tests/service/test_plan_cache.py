"""Plan cache: LRU bounds, registry counts, key construction and stability."""

from __future__ import annotations

import pytest

from repro import Session
from repro.algebra.terms import RelVar
from repro.data.relation import Relation
from repro.query.parser import parse_query
from repro.rewriter.normalize import cache_key
from repro.service import CachedPlan, LRUCache, PlanCache, PlanKey
from repro.session import session as session_module
from repro.algebra.variables import free_variables

QUERY = "?x,?y <- ?x knows+ ?y"


#: Both session caches off: every call plans and executes from scratch.
UNCACHED = {"enable_plan_cache": False, "enable_result_cache": False}


def make_key(engine, text, strategy=None):
    term = engine.translate(parse_query(text))
    return PlanKey.of(engine, term, strategy), term


def make_plan(term):
    return CachedPlan(term=term, cost=1.0, plans_explored=3,
                      dependencies=free_variables(term))


def plan_outcomes(registry):
    """``repro_plan_cache_total`` per outcome."""
    return {outcome: registry.counter("repro_plan_cache_total",
                                      outcome=outcome).value
            for outcome in ("hit", "miss", "evicted")}


class TestLRUCache:
    def test_eviction_order_and_put_result(self):
        cache = LRUCache(capacity=2)
        assert cache.put("a", 1) is False
        assert cache.put("b", 2) is False
        assert cache.get("a") == 1  # refreshes 'a': 'b' becomes LRU
        assert cache.put("c", 3) is True  # evicted one entry: 'b'
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.keys() == ["a", "c"]

    def test_put_refreshes_existing_key_without_evicting(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) is False
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert "b" in cache


class TestPlanCache:
    def test_roundtrip_and_hit_miss_counters(self, small_labeled_graph,
                                             registry):
        """The registry is the one count of plan lookups: the session
        counts each outcome there, and the cache keeps no second copy."""
        engine = Session(small_labeled_graph, **UNCACHED)
        cache = PlanCache(capacity=8)
        key, term = make_key(engine, QUERY)
        assert cache.get(key) is None
        cache.put(key, make_plan(term))
        cached = cache.get(key)
        assert cached is not None and cached.term == term
        assert plan_outcomes(registry) == {"hit": 0, "miss": 0, "evicted": 0}
        with Session(small_labeled_graph, num_workers=2) as engine:
            term = engine.translate(parse_query(QUERY))
            _, first_hit, _ = engine.resolve_plan(term)
            _, second_hit, _ = engine.resolve_plan(term)
        assert (first_hit, second_hit) == (False, True)
        assert plan_outcomes(registry) == {"hit": 1, "miss": 1, "evicted": 0}
        assert 'repro_plan_cache_total{outcome="hit"} 1' in \
            registry.render_prometheus()

    def test_key_depends_on_strategy_and_versions(self, small_labeled_graph):
        engine = Session(small_labeled_graph, **UNCACHED)
        key_auto, _ = make_key(engine, QUERY)
        key_pgld, _ = make_key(engine, QUERY, strategy="pgld")
        assert key_auto != key_pgld
        engine.add_edges("knows", [("zoe", "alice")])
        key_after, _ = make_key(engine, QUERY)
        assert key_after != key_auto
        # A query over untouched relations keeps its key.
        other_before, _ = make_key(engine, "?x <- ?x livesIn ?y")
        engine.add_edges("knows", [("yan", "zoe")])
        other_after, _ = make_key(engine, "?x <- ?x livesIn ?y")
        assert other_before == other_after

    def test_same_query_twice_shares_one_key(self, small_labeled_graph):
        """Fresh generated names must not fragment the cache."""
        engine = Session(small_labeled_graph, **UNCACHED)
        first, _ = make_key(engine, QUERY)
        second, _ = make_key(engine, QUERY)
        assert first == second

    def test_old_and_new_snapshot_entries_coexist(self, small_labeled_graph):
        """No purge-on-mutation: version-qualified keys simply diverge."""
        engine = Session(small_labeled_graph, **UNCACHED)
        cache = PlanCache(capacity=8)
        old_key, old_term = make_key(engine, QUERY)
        cache.put(old_key, make_plan(old_term))
        engine.add_edges("knows", [("zoe", "alice")])
        new_key, new_term = make_key(engine, QUERY)
        assert new_key != old_key
        cache.put(new_key, make_plan(new_term))
        # Both versions are live: a handle pinned to the old snapshot
        # keeps hitting its entry while head queries hit the new one.
        assert len(cache) == 2
        assert cache.get(old_key) is not None
        assert cache.get(new_key) is not None

    def test_lru_bound_evicts_oldest_plan(self, small_labeled_graph,
                                          registry):
        engine = Session(small_labeled_graph, **UNCACHED)
        cache = PlanCache(capacity=2)
        texts = [QUERY, "?x <- ?x livesIn ?y", "?x,?y <- ?x worksAt ?y"]
        keys = []
        for text in texts:
            key, term = make_key(engine, text)
            cache.put(key, make_plan(term))
            keys.append(key)
        assert len(cache) == 2
        assert cache.get(keys[0]) is None
        assert plan_outcomes(registry)["evicted"] == 1
        assert 'repro_plan_cache_total{outcome="evicted"} 1' in \
            registry.render_prometheus()


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` with a call counter; returns the live list."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestSelectionsAreKeyedOnStatistics:
    """A selection is keyed on the schemas and statistics it read, not on
    relation versions: commits that leave them alone keep hitting it."""

    @pytest.fixture
    def session(self, small_labeled_graph):
        with Session(small_labeled_graph, num_workers=2) as session:
            yield session

    @pytest.fixture
    def explores(self, session, monkeypatch):
        return count_calls(monkeypatch, session.rewriter, "explore")

    @pytest.fixture
    def ranks(self, monkeypatch):
        return count_calls(monkeypatch, session_module, "rank_plans")

    def test_commit_that_moves_statistics_replans(self, session, explores,
                                                  ranks, registry):
        session.ucrpq(QUERY).plan()
        session.add_edges("knows", [("dave", "erin")])
        plan = session.ucrpq(QUERY).plan()
        assert len(explores) == 2 and len(ranks) == 2
        assert plan.term == session.optimize(session.translate(QUERY))[0].term
        assert plan_outcomes(registry) == {"hit": 0, "miss": 2, "evicted": 0}

    def test_new_relation_or_schema_misses(self, session, explores):
        term = RelVar("knows").join(RelVar("cites"))
        session.resolve_plan(term)
        session.add_edges("cites", [("bob", "zoe")])  # the relation appears
        session.resolve_plan(term)
        assert len(explores) == 2
        # Other columns for the same name: the rewriter sees a new schema.
        widened = Relation(("src", "trg", "w"), [("bob", "zoe", 1)])
        other = session.snapshot().mutate({"cites": widened})
        session.resolve_plan(term, snapshot=other)
        assert len(explores) == 3

    def test_equal_statistics_hit_and_add_then_remove_returns(
            self, session, explores, ranks):
        base, hit, _ = session.resolve_plan(session.translate(QUERY))
        session.add_edges("knows", [("dave", "erin")])
        session.ucrpq(QUERY).plan()
        # Another edge of the same shape: every count the ranking reads
        # is unchanged, so the selection is reused.
        with session.transaction() as txn:
            txn.remove_edges("knows", [("dave", "erin")])
            txn.add_edges("knows", [("dave", "fred")])
        query = session.ucrpq(QUERY)
        query.plan()
        assert query.last_plan_cache_hit is True
        session.remove_edges("knows", [("dave", "fred")])
        again, hit, _ = session.resolve_plan(session.translate(QUERY))
        assert hit is True and again is base
        assert len(explores) == 2 and len(ranks) == 2

    def test_commit_that_flips_the_cheapest_plan_selects_the_new_one(
            self, session):
        text = "?x,?y <- ?x livesIn/knows+ ?y"
        before = session.ucrpq(text).plan()
        session.add_edges("livesIn", [(f"n{i}", f"city{i % 3}")
                                      for i in range(300)])
        after = session.ucrpq(text).plan()
        expected, _ = session.optimize(session.translate(text))
        assert after.term == expected.term
        assert after.term != before.term

    def test_emptying_a_relation_misses_and_the_gate_re_analyzes(
            self, session, registry):
        text = "?x,?y <- ?x worksAt ?y"
        analyzed = registry.counter("repro_analyze_total", frontend="ucrpq")
        session.ucrpq(text).run_once(check=True)
        session.ucrpq(text).run_once(check=True)
        assert analyzed.value == 1
        session.remove_edges("worksAt", [("alice", "inria")])
        result, plan_hit, _ = session.ucrpq(text).run_once(check=True)
        assert plan_hit is False and len(result.relation) == 0
        assert analyzed.value == 2

    def test_strict_hit_builds_its_plan_key_once(self, session, registry,
                                                 monkeypatch):
        session.ucrpq(QUERY).run_once(check=True)  # fills the plan cache
        analyzed = registry.counter("repro_analyze_total", frontend="ucrpq")
        before = analyzed.value
        keys = []
        original = PlanKey.of.__func__

        def counting(cls, *args, **kwargs):
            keys.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(PlanKey, "of", classmethod(counting))
        _, plan_hit, _ = session.ucrpq(QUERY).run_once(check=True)
        assert plan_hit is True
        assert keys == [1]
        assert analyzed.value == before

    def test_pinned_handles_plan_on_their_own_statistics(self, session,
                                                         explores):
        session.ucrpq(QUERY).plan()  # the selection for the first version
        pinned = session.ucrpq(QUERY)
        term = pinned.term  # pins the head
        old = pinned.pinned_snapshot
        session.add_edges("knows", [("dave", "erin")])
        head = session.ucrpq(QUERY)
        head.plan()
        # The pinned handle plans after the commit, on the statistics of
        # the snapshot it reads: the first version's selection.
        plan = pinned.plan()
        assert len(explores) == 2 and pinned.last_plan_cache_hit is True
        assert plan.term == session.optimize(term, snapshot=old)[0].term
        assert pinned.collect().relation == session.evaluate_centralized(
            term, snapshot=old)
        assert pinned.collect().relation != head.collect().relation

    def test_uncached_planning_explores_every_time(self, session, explores):
        for _ in range(2):
            session.ucrpq(QUERY).run_once(use_plan_cache=False)
        assert len(explores) == 2
        assert len(session.plan_cache) == 0

    def test_clear_forgets_every_selection(self, session, explores, ranks):
        session.ucrpq(QUERY).plan()
        session.plan_cache.clear()
        assert len(session.plan_cache) == 0
        session.ucrpq(QUERY).plan()
        assert len(explores) == 2 and len(ranks) == 2


def test_cached_plan_with_strategies_is_nondestructive(small_labeled_graph):
    engine = Session(small_labeled_graph, **UNCACHED)
    _, term = make_key(engine, QUERY)
    plan = make_plan(term)
    updated = plan.with_strategies(("pplw^s",))
    assert plan.physical_strategies == ()
    assert updated.physical_strategies == ("pplw^s",)
    assert updated.term == plan.term


def test_cache_key_is_a_plain_stable_string(small_labeled_graph):
    engine = Session(small_labeled_graph, **UNCACHED)
    term = engine.translate(parse_query(QUERY))
    key = cache_key(term)
    assert isinstance(key, str) and key
    assert cache_key(term) == key
