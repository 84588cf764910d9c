"""Result cache: memoization under snapshot-fingerprint-qualified keys."""

from __future__ import annotations

from repro import Session
from repro.algebra.variables import free_variables
from repro.query.parser import parse_query
from repro.rewriter.normalize import cache_key
from repro.service import ResultCache, ResultKey


def make_engine(graph):
    return Session(graph, num_workers=2, enable_plan_cache=False,
                   enable_result_cache=False)


def key_of(engine, result, snapshot=None):
    snapshot = snapshot if snapshot is not None else engine.snapshot()
    deps = free_variables(result.selected_plan)
    return ResultKey(plan_key=cache_key(result.selected_plan),
                     strategy=engine.strategy,
                     num_workers=engine.cluster.num_workers,
                     memory_per_task=engine.memory_per_task,
                     fingerprint=snapshot.fingerprint(deps),
                     graph=snapshot.graph_name)


def run_and_store(engine, cache, text, snapshot=None):
    term = engine.translate(parse_query(text))
    result = engine.execute_term(term)
    key = key_of(engine, result, snapshot)
    cache.store(key, result)
    return key, result


def test_lookup_returns_memoized_result(small_labeled_graph):
    engine = make_engine(small_labeled_graph)
    cache = ResultCache(capacity=8)
    key, result = run_and_store(engine, cache, "?x,?y <- ?x knows+ ?y")
    assert cache.lookup(key) is result
    stats = cache.stats
    assert stats.hits == 1 and stats.misses == 0


def test_mutation_of_dependency_changes_the_key(small_labeled_graph):
    """A head query after a commit misses (new fingerprint, new key)."""
    engine = make_engine(small_labeled_graph)
    cache = ResultCache(capacity=8)
    old_snapshot = engine.snapshot()
    key, result = run_and_store(engine, cache, "?x,?y <- ?x knows+ ?y")
    engine.add_edges("knows", [("dave", "erin")])
    new_key = key_of(engine, result)
    assert new_key != key
    assert cache.lookup(new_key) is None
    # The old entry is NOT purged: a reader pinned to the old snapshot
    # rebuilds the same key from its fingerprint and still hits.
    assert key_of(engine, result, old_snapshot) == key
    assert cache.lookup(key) is result


def test_mutation_of_unrelated_relation_keeps_the_key(small_labeled_graph):
    engine = make_engine(small_labeled_graph)
    cache = ResultCache(capacity=8)
    key, result = run_and_store(engine, cache, "?x,?y <- ?x knows+ ?y")
    engine.add_edges("worksAt", [("erin", "cnrs")])
    # The fingerprint only covers the plan's inputs: same key, still hits.
    assert key_of(engine, result) == key
    assert cache.lookup(key) is result


def test_entries_for_both_versions_coexist(small_labeled_graph):
    engine = make_engine(small_labeled_graph)
    cache = ResultCache(capacity=8)
    old_key, old_result = run_and_store(engine, cache, "?x,?y <- ?x knows+ ?y")
    engine.add_edges("knows", [("dave", "erin")])
    new_key, new_result = run_and_store(engine, cache, "?x,?y <- ?x knows+ ?y")
    assert new_key != old_key
    assert cache.lookup(old_key) is old_result
    assert cache.lookup(new_key) is new_result
    assert len(new_result.relation) > len(old_result.relation)


def test_keys_are_graph_qualified(small_labeled_graph):
    """Same plan, same fingerprint, different graph => different keys.

    Two freshly attached graphs with the same relation names sit at the
    same versions, so the fingerprint alone cannot tell them apart; the
    ``graph`` field must."""
    engine = make_engine(small_labeled_graph)
    key, result = run_and_store(engine, ResultCache(8),
                                "?x,?y <- ?x knows+ ?y")
    twin = engine.snapshot().relabeled("twin")
    twin_key = key_of(engine, result, twin)
    assert twin.fingerprint(("knows",)) == engine.snapshot().fingerprint(
        ("knows",))
    assert twin_key != key
    assert twin_key.graph == "twin" and key.graph == engine.snapshot().graph_name


def test_shared_cache_never_serves_rows_across_graphs(small_labeled_graph):
    """Regression: ``ResultKey`` omitted the graph identity.

    Two graphs with identical relation names at identical versions
    produced identical keys, so a deployment sharing one result cache
    across graphs (one memory budget for all tenants) served graph A's
    memoized rows to the same query on graph B.  With graph-qualified
    keys each graph hits only its own entries."""
    from repro import Session
    from repro.data.graph import LabeledGraph

    other = LabeledGraph(name="other")
    other.add_edges([("x1", "knows", "x2"),
                     ("alice", "livesIn", "grenoble"),
                     ("grenoble", "isLocatedIn", "france"),
                     ("alice", "worksAt", "inria")])
    text = "?x,?y <- ?x knows+ ?y"
    with Session(small_labeled_graph, num_workers=2) as session:
        session.attach("other", other)
        shared = ResultCache(capacity=8)
        session.result_cache = shared
        session.graph("other").result_cache = shared
        rows_a = session.ucrpq(text).collect().relation
        query_b = session.graph("other").ucrpq(text)
        rows_b = query_b.collect().relation
        # Before the fix the second query *hit* graph A's entry and
        # returned A's transitive closure; B has exactly one knows-pair.
        assert query_b.last_result_cache_hit is False
        assert rows_b != rows_a
        assert set(rows_b.to_pairs("x", "y")) == {("x1", "x2")}
        # Both entries coexist in the one shared cache, keyed apart.
        assert len(shared) == 2


def test_superseded_entries_age_out_of_the_lru(small_labeled_graph):
    """Stale versions are reclaimed by LRU pressure, not by purges."""
    engine = make_engine(small_labeled_graph)
    cache = ResultCache(capacity=2)
    first_key, _ = run_and_store(engine, cache, "?x,?y <- ?x knows+ ?y")
    for edge in (("d1", "e1"), ("d2", "e2")):
        engine.add_edges("knows", [edge])
        run_and_store(engine, cache, "?x,?y <- ?x knows+ ?y")
    assert len(cache) == 2
    assert cache.lookup(first_key) is None
    assert cache.stats.evictions == 1
