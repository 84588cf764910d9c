"""Result cache: memoization under snapshot-fingerprint-qualified keys."""

from __future__ import annotations

import random

import pytest

from repro import Session
from repro.algebra.terms import (AntiProject, Antijoin, Fixpoint, Join,
                                 Rename, RelVar, Union)
from repro.algebra.variables import free_variables
from repro.data import Relation, row_mode
from repro.data.graph import LabeledGraph
from repro.data.snapshot import DatabaseSnapshot
from repro.query.parser import parse_query
from repro.rewriter.normalize import cache_key
from repro.service import ResultCache, ResultKey


def make_engine(graph):
    return Session(graph, num_workers=2)


def result_outcomes(registry):
    """``repro_result_cache_total`` per outcome."""
    return {outcome: registry.counter("repro_result_cache_total",
                                      outcome=outcome).value
            for outcome in ("hit", "miss", "evicted", "invalidated")}


def key_of(engine, result, snapshot=None):
    snapshot = snapshot if snapshot is not None else engine.snapshot()
    deps = free_variables(result.selected_plan)
    return ResultKey(plan_key=cache_key(result.selected_plan),
                     strategy=engine.strategy,
                     num_workers=engine.cluster.num_workers,
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
    assert len(cache) == 1


def test_session_counts_each_lookup_once(small_labeled_graph, registry):
    """The registry is the one count of result lookups: the session
    counts each outcome there, and the cache keeps no second copy."""
    with Session(small_labeled_graph, num_workers=2) as engine:
        first = engine.ucrpq("?x,?y <- ?x knows+ ?y").run_once()
        second = engine.ucrpq("?x,?y <- ?x knows+ ?y").run_once()
    assert (first[2], second[2]) == (False, True)
    assert second[0] is first[0]
    assert result_outcomes(registry) == {
        "hit": 1, "miss": 1, "evicted": 0, "invalidated": 0}


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
        session._state.result_cache = shared
        session.graph("other")._state.result_cache = shared
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


def test_superseded_entries_age_out_of_the_lru(small_labeled_graph,
                                               registry):
    """Stale versions are reclaimed by LRU pressure, not by purges."""
    engine = make_engine(small_labeled_graph)
    cache = ResultCache(capacity=2)
    first_key, _ = run_and_store(engine, cache, "?x,?y <- ?x knows+ ?y")
    for edge in (("d1", "e1"), ("d2", "e2")):
        engine.add_edges("knows", [edge])
        run_and_store(engine, cache, "?x,?y <- ?x knows+ ?y")
    assert len(cache) == 2
    assert cache.lookup(first_key) is None
    assert result_outcomes(registry)["evicted"] == 1
    assert 'repro_result_cache_total{outcome="evicted"} 1' in \
        registry.render_prometheus()


# -- The retention rule a commit applies ------------------------------------

KNOWS = "?x,?y <- ?x knows+ ?y"


def test_reader_pinned_one_commit_back_is_a_pure_hit(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=2) as session:
        before = session.ucrpq(KNOWS).collect()
        old_view = session.read_view()
        session.add_edges("knows", [("dave", "erin")])
        reader = old_view.ucrpq(KNOWS)
        assert reader.collect().relation == before.relation
        assert reader.last_plan_cache_hit is True
        assert reader.last_result_cache_hit is True
        # Two commits back the entry is gone: the reader recomputes the
        # same rows through the normal miss path.
        session.add_edges("knows", [("erin", "frank")])
        older = old_view.ucrpq(KNOWS)
        assert older.collect().relation == before.relation
        assert older.last_result_cache_hit is False


def test_commit_drops_count_as_invalidated(small_labeled_graph, registry):
    """What the retention rule drops is counted once, in the registry
    that ``/metrics`` renders, apart from LRU evictions."""
    with Session(small_labeled_graph, num_workers=2) as session:
        session.ucrpq(KNOWS).collect()
        session.add_edges("knows", [("dave", "erin")])
        assert result_outcomes(registry)["invalidated"] == 0  # old head
        session.add_edges("knows", [("erin", "frank")])
        assert len(session.result_cache) == 0
    assert result_outcomes(registry) == {
        "hit": 0, "miss": 1, "evicted": 0, "invalidated": 1}
    assert 'repro_result_cache_total{outcome="invalidated"} 1' in \
        registry.render_prometheus()


def test_commits_keep_at_most_two_versions_of_a_query(small_labeled_graph):
    """Every commit to a cached query's input, each followed by a read,
    leaves that query's entries at the old and the new head only."""
    touched = [KNOWS, "?x,?y <- ?x knows+/worksAt ?y"]
    untouched = "?x,?y <- ?x isLocatedIn+ ?y"
    with Session(small_labeled_graph, num_workers=2) as session:
        for query in touched + [untouched]:
            session.ucrpq(query).collect()
        for k in range(1, 21):
            session.add_edges("knows", [(f"c{k}", f"d{k}")])
            for query in touched:
                session.ucrpq(query).collect()
            assert len(session.result_cache) == 2 * len(touched) + 1, k


def test_commit_to_an_unrelated_relation_drops_nothing(small_labeled_graph):
    """A commit that does not touch an entry's inputs leaves it hitting."""
    with Session(small_labeled_graph, num_workers=2) as session:
        session.ucrpq(KNOWS).collect()
        for k in range(3):
            session.add_edges("worksAt", [(f"w{k}", "inria")])
        fresh = session.ucrpq(KNOWS)
        fresh.collect()
        assert fresh.last_result_cache_hit is True


def test_commit_to_another_graph_drops_nothing(small_labeled_graph):
    """Commits on one graph leave another graph's entries hitting, even
    when both graphs share one result cache and the same relation names."""
    other = LabeledGraph(name="other")
    other.add_edges([("x1", "knows", "x2"), ("x2", "knows", "x3")])
    with Session(small_labeled_graph, num_workers=2) as session:
        session.attach("other", other)
        view = session.graph("other")
        view._state.result_cache = session.result_cache
        session.ucrpq(KNOWS).collect()
        for k in range(3):
            view.add_edges("knows", [(f"x{k + 3}", f"x{k + 4}")])
        fresh = session.ucrpq(KNOWS)
        fresh.collect()
        assert fresh.last_result_cache_hit is True


def test_executions_that_bypass_the_cache_build_no_key(small_labeled_graph,
                                                       monkeypatch):
    from repro.session import session as session_module
    built = []
    original = session_module.ResultKey

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(session_module, "ResultKey", counting)
    with Session(small_labeled_graph, num_workers=2) as session:
        _, _, result_hit = session.ucrpq(KNOWS).run_once(
            use_result_cache=False)
        assert result_hit is None and built == []
        session.ucrpq(KNOWS).run_once()
        assert built == [1]


# -- The retention rule on hand-built snapshots ------------------------------

def edges(*pairs):
    return Relation.from_pairs(pairs, columns=("src", "trg"))


def snapshot_key(snapshot, names, plan="p"):
    return ResultKey(plan_key=plan, strategy="s", num_workers=1,
                     fingerprint=snapshot.fingerprint(names),
                     graph=snapshot.graph_name)


def commit_chain(graph_name="g"):
    """Three successive versions of one graph, each changing ``knows``."""
    v0 = DatabaseSnapshot({"knows": edges(("a", "b")),
                           "livesIn": edges(("a", "x"))},
                          graph_name=graph_name)
    v1 = v0.mutate({"knows": edges(("a", "b"), ("b", "c"))})
    v2 = v1.mutate({"knows": edges(("a", "b"), ("b", "c"), ("c", "d"))})
    return v0, v1, v2


def test_retention_keeps_entries_current_at_either_head(registry):
    _, v1, v2 = commit_chain()
    cache = ResultCache(capacity=8)
    old, new = snapshot_key(v1, ["knows"]), snapshot_key(v2, ["knows"])
    cache.store(old, "rows@v1")
    cache.store(new, "rows@v2")
    cache.retain_after_commit(v1, v2)
    assert cache.lookup(old) == "rows@v1"
    assert cache.lookup(new) == "rows@v2"
    assert result_outcomes(registry)["invalidated"] == 0


def test_retention_drops_entries_older_than_the_old_head(registry):
    v0, v1, v2 = commit_chain()
    cache = ResultCache(capacity=8)
    stale = snapshot_key(v0, ["knows"])
    cache.store(stale, "rows@v0")
    cache.retain_after_commit(v0, v1)
    assert len(cache) == 1  # current at the old head: kept
    cache.retain_after_commit(v1, v2)
    assert len(cache) == 0
    assert cache.lookup(stale) is None
    # Dropped by the rule, not pushed out by LRU pressure.
    outcomes = result_outcomes(registry)
    assert outcomes["invalidated"] == 1 and outcomes["evicted"] == 0


def test_retention_keeps_entries_that_do_not_read_the_commit():
    v0, v1, v2 = commit_chain()
    cache = ResultCache(capacity=8)
    lives = snapshot_key(v0, ["livesIn"])
    cache.store(lives, "lives@v0")
    cache.retain_after_commit(v0, v1)
    cache.retain_after_commit(v1, v2)
    assert cache.lookup(lives) == "lives@v0"
    assert snapshot_key(v2, ["livesIn"]) == lives


def test_retention_leaves_other_graphs_alone():
    v0, _, _ = commit_chain("g")
    w0, w1, w2 = commit_chain("h")
    cache = ResultCache(capacity=8)
    mine = snapshot_key(v0, ["knows"])
    cache.store(mine, "g@v0")
    # Two commits on graph "h" at the same relation names and versions
    # graph "g" has been through: "g"'s entry is not even compared.
    cache.retain_after_commit(w0, w1)
    cache.retain_after_commit(w1, w2)
    assert cache.lookup(mine) == "g@v0"


def test_retention_of_an_entry_read_before_its_relation_existed():
    """Unknown names fingerprint at version 0: the commit that creates
    the relation leaves the entry to old-head readers, and the head's key
    no longer matches it."""
    v0, _, _ = commit_chain()
    v1 = v0.mutate({"mentors": edges(("a", "b"))})
    cache = ResultCache(capacity=8)
    before = snapshot_key(v0, ["mentors"])
    cache.store(before, "empty")
    cache.retain_after_commit(v0, v1)
    assert cache.lookup(before) == "empty"
    assert snapshot_key(v1, ["mentors"]) != before


# -- Reads after a commit equal a cold recomputation -------------------------

def chain_graph(length: int = 40, extra: int = 10) -> LabeledGraph:
    """A knows-chain with some shortcut edges and an unrelated label."""
    graph = LabeledGraph(name="chain")
    triples = [(f"n{i}", "knows", f"n{i + 1}") for i in range(length)]
    triples += [(f"n{i}", "knows", f"n{i + 5}")
                for i in range(0, extra * 4, 4)]
    triples += [("n0", "worksAt", "lab")]
    graph.add_edges(triples)
    return graph


@pytest.fixture
def chain():
    with Session(chain_graph(), num_workers=2) as session:
        yield session


def recompute(session, plan_term):
    """Cold evaluation of the cached plan's term on the current head."""
    return session.execute_term(plan_term, optimize=False).relation


def assert_head_read_recomputes(session, cached):
    """The head read after a commit misses and equals a cold run."""
    fresh = session.ucrpq(KNOWS)
    result = fresh.collect()
    assert fresh.last_result_cache_hit is False
    assert result.relation == recompute(session, cached.selected_plan)
    return result.relation


def test_read_after_insert_equals_recomputation(chain):
    cached = chain.ucrpq(KNOWS).collect()
    chain.add_edges("knows", [("n3", "z1"), ("z1", "z2")])
    relation = assert_head_read_recomputes(chain, cached)
    assert ("n0", "z2") in relation.to_pairs("x", "y")


def test_repeated_commits_keep_reads_correct(chain):
    cached = chain.ucrpq(KNOWS).collect()
    for i in range(3):
        chain.add_edges("knows", [(f"a{i}", f"b{i}")])
        assert_head_read_recomputes(chain, cached)
    again = chain.ucrpq(KNOWS)
    again.collect()
    assert again.last_result_cache_hit is True


def test_large_commit_is_read_through_the_miss_path(chain):
    chain.ucrpq(KNOWS).collect()
    chain.add_edges("knows", [(f"m{i}", f"m{i + 1}") for i in range(60)])
    fresh = chain.ucrpq(KNOWS)
    result = fresh.collect()
    assert fresh.last_result_cache_hit is False
    assert ("m0", "m60") in result.relation.to_pairs("x", "y")


def test_read_after_removal_recomputes(chain):
    cached = chain.ucrpq(KNOWS).collect()
    chain.remove_edges("knows", [("n10", "n11")])
    relation = assert_head_read_recomputes(chain, cached)
    assert ("n10", "n11") not in relation.to_pairs("x", "y")


def test_removed_shortcut_keeps_alternative_paths(chain):
    chain.add_edges("knows", [("n10", "n13")])  # shortcut over the chain
    cached = chain.ucrpq(KNOWS).collect()
    chain.remove_edges("knows", [("n10", "n13")])
    relation = assert_head_read_recomputes(chain, cached)
    # Still derivable via n10 -> n11 -> n12 -> n13.
    assert ("n10", "n13") in relation.to_pairs("x", "y")


def test_mixed_insert_and_delete_in_one_transaction(chain):
    cached = chain.ucrpq(KNOWS).collect()
    with chain.transaction() as txn:
        txn.add_edges("knows", [("n40", "w1"), ("w1", "w2")])
        txn.remove_edges("knows", [("n0", "n1")])
    relation = assert_head_read_recomputes(chain, cached)
    pairs = relation.to_pairs("x", "y")
    assert ("n39", "w2") in pairs and ("n0", "n1") not in pairs


def test_entry_two_commits_behind_is_not_served(chain):
    """The rule keeps one superseded version: after a second commit the
    first entry is gone, and the head read sees both commits."""
    chain.ucrpq(KNOWS).collect()
    chain.add_edges("knows", [("s1", "s2")])
    assert len(chain.result_cache) == 1  # current at the old head
    chain.add_edges("knows", [("s2", "s3")])
    assert len(chain.result_cache) == 0
    fresh = chain.ucrpq(KNOWS)
    result = fresh.collect()
    assert fresh.last_result_cache_hit is False
    assert ("s1", "s3") in result.relation.to_pairs("x", "y")


def test_non_recursive_plans_follow_the_same_rule(chain):
    text = "?x,?y <- ?x knows ?y"
    before = chain.ucrpq(text).collect()
    old_view = chain.read_view()
    chain.add_edges("knows", [("q1", "q2")])
    fresh = chain.ucrpq(text)
    assert ("q1", "q2") in fresh.collect().relation.to_pairs("x", "y")
    assert fresh.last_result_cache_hit is False
    pinned = old_view.ucrpq(text)
    assert pinned.collect().relation == before.relation
    assert pinned.last_result_cache_hit is True


def test_commit_to_an_antijoin_right_side_shrinks_the_next_read():
    """Insertions into an antijoin's right side can shrink a fixpoint;
    the head read recomputes and loses the newly blocked rows."""
    graph = LabeledGraph(name="blocked")
    graph.add_edges([(f"n{i}", "knows", f"n{i + 1}") for i in range(30)]
                    + [("x", "blocked", "y")])
    # mu(X = knows U (antiproj_mid(rho(X) join rho(knows)) |> blocked)):
    # reachable pairs whose endpoints are not directly "blocked".
    step = Rename("trg", "mid", RelVar("X"))
    via = Rename("src", "mid", RelVar("knows"))
    recurse = AntiProject(("mid",), Join(step, via))
    term = Fixpoint("X", Union(RelVar("knows"),
                               Antijoin(recurse, RelVar("blocked"))))
    with Session(graph, num_workers=2, optimize=False) as session:
        before = session.term(term).collect().relation
        assert ("n0", "n2") in before.to_pairs("src", "trg")
        session.add_edges("blocked", [("n0", "n2")])
        fresh = session.term(term)
        after = fresh.collect().relation
        assert fresh.last_result_cache_hit is False
        assert ("n0", "n2") not in after.to_pairs("src", "trg")
        assert after == session.execute_term(term, optimize=False).relation


@pytest.mark.parametrize("query", ["?x,?y <- ?x a+/b+ ?y",
                                   "?x,?y <- ?x b+ ?y",
                                   "?x,?y <- ?x (a|b)+ ?y"])
def test_no_stale_rows_after_removing_a_random_edge(query):
    """A row with one derivation through the removed edge and another
    through rows only that edge kept alive must not survive the removal."""
    rng = random.Random(20)
    nodes = [f"v{i}" for i in range(6)]
    stale = []
    for trial in range(60):
        triples = set()
        while len(triples) < 12:
            triples.add((rng.choice(nodes), rng.choice("ab"),
                         rng.choice(nodes)))
        triples = sorted(triples)
        removed = rng.choice(triples)
        graph = LabeledGraph(name="random")
        graph.add_edges(triples)
        remaining = LabeledGraph(name="remaining")
        remaining.add_edges([t for t in triples if t != removed])
        with Session(graph, num_workers=2) as session:
            session.ucrpq(query).collect()
            src, label, trg = removed
            session.remove_edges(label, [(src, trg)])
            served = session.ucrpq(query).collect().relation
        with Session(remaining, num_workers=2,
                     optimize=False) as oracle, row_mode():
            expected = oracle.ucrpq(query).collect().relation
        if served != expected:
            stale.append((trial, removed))
    assert stale == []
