"""Plan cache: LRU bounds, counters, key construction and stability."""

from __future__ import annotations

from repro import Session
from repro.query.parser import parse_query
from repro.rewriter.normalize import cache_key
from repro.service import CachedPlan, LRUCache, PlanCache, PlanKey
from repro.algebra.variables import free_variables

QUERY = "?x,?y <- ?x knows+ ?y"


#: Both session caches off: every call plans and executes from scratch.
UNCACHED = {"enable_plan_cache": False, "enable_result_cache": False}


def make_key(engine, text, strategy=None):
    term = engine.translate(parse_query(text))
    return PlanKey.of(engine, term, free_variables(term), strategy), term


def make_plan(term):
    return CachedPlan(term=term, cost=1.0, plans_explored=3,
                      dependencies=free_variables(term))


class TestLRUCache:
    def test_eviction_order_and_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes 'a': 'b' becomes LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats
        assert stats.evictions == 1
        assert stats.hits == 3 and stats.misses == 1
        assert 0.0 < stats.hit_rate < 1.0

    def test_put_refreshes_existing_key_without_evicting(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        assert len(cache) == 2
        assert cache.get("a") == 10
        assert cache.stats.evictions == 0


class TestPlanCache:
    def test_roundtrip_and_hit_miss_counters(self, small_labeled_graph):
        engine = Session(small_labeled_graph, **UNCACHED)
        cache = PlanCache(capacity=8)
        key, term = make_key(engine, QUERY)
        assert cache.get(key) is None
        cache.put(key, make_plan(term))
        cached = cache.get(key)
        assert cached is not None and cached.term == term
        stats = cache.stats
        assert stats.misses == 1 and stats.hits == 1

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

    def test_lru_bound_evicts_oldest_plan(self, small_labeled_graph):
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
        assert cache.stats.evictions == 1


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
