"""Incremental view maintenance of cached recursive results.

Every maintained result is checked *differentially* against a cold
recomputation of the same plan on the new head — the maintenance layer
is only allowed to be faster, never different.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro import Session
from repro.algebra.evaluate import Evaluator
from repro.algebra.terms import Antijoin, Fixpoint, Join, Rename, RelVar, Union
from repro.data import row_mode
from repro.data.graph import LabeledGraph
from repro.service import view_maintenance
from repro.service.view_maintenance import (
    FALLBACK, RESUMED, SKIPPED_NONMONOTONE, SKIPPED_SHAPE,
    SKIPPED_UNCONVERGED, ViewMaintainer)

TC = "?x,?y <- ?x knows+ ?y"


def chain_graph(length: int = 40, extra: int = 10, *,
                prefix: str = "n", name: str = "chain") -> LabeledGraph:
    """A knows-chain with some shortcut edges: big enough that the
    default cost threshold accepts single-edge deltas."""
    graph = LabeledGraph(name=name)
    triples = [(f"{prefix}{i}", "knows", f"{prefix}{i + 1}")
               for i in range(length)]
    triples += [(f"{prefix}{i}", "knows", f"{prefix}{i + 5}")
                for i in range(0, extra * 4, 4)]
    triples += [(f"{prefix}0", "worksAt", "lab")]
    graph.add_edges(triples)
    return graph


@pytest.fixture
def session():
    with Session(chain_graph(), num_workers=2) as session:
        yield session


def recompute(session, plan_term):
    """Cold evaluation of the cached plan's term on the current head."""
    return session.execute_term(plan_term, optimize=False).relation


class TestInsertResume:
    def test_resumed_result_equals_recomputation(self, session):
        cached = session.ucrpq(TC).collect()
        session.add_edges("knows", [("n3", "z1"), ("z1", "z2")])
        stats = session.last_maintenance
        assert stats.resumed == 1
        fresh = session.ucrpq(TC)
        maintained = fresh.collect().relation
        assert fresh.last_result_cache_hit is True
        assert maintained == recompute(session, cached.selected_plan)

    def test_repeated_commits_keep_maintaining(self, session):
        cached = session.ucrpq(TC).collect()
        for i in range(3):
            session.add_edges("knows", [(f"a{i}", f"b{i}")])
            assert session.last_maintenance.resumed == 1
        fresh = session.ucrpq(TC)
        assert fresh.collect().relation == recompute(
            session, cached.selected_plan)
        assert fresh.last_result_cache_hit is True

    def test_commit_to_unrelated_relation_is_ignored(self, session):
        session.ucrpq(TC).collect()
        session.add_edges("worksAt", [("n9", "lab")])
        stats = session.last_maintenance
        # "worksAt" (and its inverse/facts) are not among the entry's
        # dependencies: nothing is examined, the entry keeps hitting.
        assert stats.examined == 0
        fresh = session.ucrpq(TC)
        fresh.collect()
        assert fresh.last_result_cache_hit is True


class TestRemovalsInvalidate:
    @staticmethod
    def assert_fell_back_to_a_correct_recompute(session, cached):
        stats = session.last_maintenance
        assert stats.summary() == {"examined": 1, "resumed": 0,
                                   "fallbacks": 1, "skipped": 0}
        assert stats.decisions[0].action == FALLBACK
        fresh = session.ucrpq(TC)
        result = fresh.collect()
        assert fresh.last_result_cache_hit is False  # normal miss path
        assert result.relation == recompute(session, cached.selected_plan)
        return result.relation

    def test_removal_falls_back_and_the_next_read_recomputes(self, session):
        cached = session.ucrpq(TC).collect()
        session.remove_edges("knows", [("n10", "n11")])
        self.assert_fell_back_to_a_correct_recompute(session, cached)

    def test_removed_shortcut_keeps_alternative_paths(self, session):
        session.add_edges("knows", [("n10", "n13")])  # shortcut over chain
        cached = session.ucrpq(TC).collect()
        session.remove_edges("knows", [("n10", "n13")])
        relation = self.assert_fell_back_to_a_correct_recompute(
            session, cached)
        # Still derivable via n10 -> n11 -> n12 -> n13.
        assert ("n10", "n13") in relation.to_pairs("x", "y")

    def test_mixed_insert_and_delete_in_one_transaction(self, session):
        cached = session.ucrpq(TC).collect()
        with session.transaction() as txn:
            txn.add_edges("knows", [("n40", "w1"), ("w1", "w2")])
            txn.remove_edges("knows", [("n0", "n1")])
        self.assert_fell_back_to_a_correct_recompute(session, cached)

    def test_no_stale_rows_after_removing_a_random_edge(self):
        """The wrong answer the deleted removal arm served: a row with
        one derivation through the removed edge and another through rows
        only it kept alive survived."""
        rng = random.Random(20)
        nodes = [f"v{i}" for i in range(6)]
        queries = ["?x,?y <- ?x a+/b+ ?y", "?x,?y <- ?x b+ ?y",
                   "?x,?y <- ?x (a|b)+ ?y"]
        stale = []
        for trial in range(60):
            edges = set()
            while len(edges) < 12:
                edges.add((rng.choice(nodes), rng.choice("ab"),
                           rng.choice(nodes)))
            edges = sorted(edges)
            removed = rng.choice(edges)
            graph = LabeledGraph(name="random")
            graph.add_edges(edges)
            remaining = LabeledGraph(name="remaining")
            remaining.add_edges([e for e in edges if e != removed])
            for query in queries:
                with Session(graph, num_workers=2) as session:
                    session.ucrpq(query).collect()
                    src, label, trg = removed
                    session.remove_edges(label, [(src, trg)])
                    served = session.ucrpq(query).collect().relation
                with Session(remaining, num_workers=2,
                             optimize=False) as oracle, row_mode():
                    expected = oracle.ucrpq(query).collect().relation
                if served != expected:
                    stale.append((trial, query, removed))
        assert stale == []


class TestFallbackAndSkips:
    def test_large_delta_falls_back_to_recompute(self, session):
        session.ucrpq(TC).collect()
        # Rewrite most of the graph in one commit: far past the delta
        # threshold, incremental maintenance would do full-recompute work.
        session.add_edges("knows", [(f"m{i}", f"m{i + 1}")
                                    for i in range(60)])
        stats = session.last_maintenance
        assert stats.fallbacks == 1 and stats.resumed == 0
        assert stats.decisions[0].action == FALLBACK
        fresh = session.ucrpq(TC)
        result = fresh.collect()
        assert fresh.last_result_cache_hit is False  # normal miss path
        assert ("m0", "m60") in result.relation.to_pairs("x", "y")

    def test_stale_entry_is_passed_over_not_mismaintained(self, session):
        """An entry two commits behind must not be resumed across only
        the latest delta (it would silently skip the middle commit) —
        and is not worth a decision: no reader of the head can reach it."""
        session.ucrpq(TC).collect()
        session.view_maintenance = "off"
        session.add_edges("knows", [("s1", "s2")])  # entry now 1 behind
        session.view_maintenance = "sync"
        session.add_edges("knows", [("s2", "s3")])
        stats = session.last_maintenance
        assert stats.examined == 0 and not stats.decisions
        fresh = session.ucrpq(TC)
        result = fresh.collect()
        assert fresh.last_result_cache_hit is False
        assert ("s1", "s3") in result.relation.to_pairs("x", "y")

    def test_examined_counts_only_live_touched_entries(self, session):
        """Versions an earlier commit superseded stay in the LRU for
        pinned readers; later commits must not re-examine them (they
        used to be re-logged forever and eat the per-commit bound)."""
        touched = [TC, "?x,?y <- ?x knows+/worksAt ?y"]
        for query in touched + ["?x,?y <- ?x worksAt+ ?y"]:
            session.ucrpq(query).collect()
        for k in range(1, 21):
            session.add_edges("knows", [(f"c{k}", f"d{k}")])
            stats = session.last_maintenance
            assert stats.examined == len(stats.decisions) == len(touched), k
            for query in touched:
                session.ucrpq(query).collect()

    def test_unconverged_maintenance_leaves_the_entry_stale(
            self, session, monkeypatch):
        """Hitting the iteration bound in the resume loop must not fail
        the commit, and is not an Fcond violation: the entry goes stale,
        the next read recomputes."""
        cached = session.ucrpq(TC).collect()
        monkeypatch.setattr(view_maintenance, "Evaluator",
                            partial(Evaluator, max_iterations=2))
        # One edge at each end: whichever way the plan recurses, one
        # of them takes ~40 rounds to propagate along the chain.
        session.add_edges("knows", [("z0", "n0"), ("n40", "z1")])
        stats = session.last_maintenance
        assert stats.summary() == {"examined": 1, "resumed": 0,
                                   "fallbacks": 0, "skipped": 1}
        assert stats.decisions[0].action == SKIPPED_UNCONVERGED
        fresh = session.ucrpq(TC)
        result = fresh.collect()
        assert fresh.last_result_cache_hit is False
        assert result.relation == recompute(session, cached.selected_plan)

    def test_non_fixpoint_plans_are_left_to_the_miss_path(self, session):
        session.ucrpq("?x,?y <- ?x knows ?y").collect()  # no recursion
        session.add_edges("knows", [("q1", "q2")])
        stats = session.last_maintenance
        assert stats.resumed == 0
        assert all(d.action == SKIPPED_SHAPE for d in stats.decisions)
        fresh = session.ucrpq("?x,?y <- ?x knows ?y")
        result = fresh.collect()
        assert ("q1", "q2") in result.relation.to_pairs("x", "y")

    def test_touched_antijoin_right_is_nonmonotone_and_skipped(self):
        """Insertions into an antijoin's right side can *shrink* the
        fixpoint, so the resume rule does not apply: the maintainer
        must refuse and let the next query recompute."""
        graph = LabeledGraph(name="blocked")
        graph.add_edges([(f"n{i}", "knows", f"n{i + 1}") for i in range(30)]
                        + [("x", "blocked", "y")])
        # mu(X = knows U antiproj(rho(X) |> blocked ... )) hand-built:
        # reachable pairs whose endpoints are not directly "blocked".
        step = Rename("trg", "mid", RelVar("X"))
        via = Rename("src", "mid", RelVar("knows"))
        from repro.algebra.terms import AntiProject
        recurse = AntiProject(("mid",), Join(step, via))
        body = Union(RelVar("knows"),
                     Antijoin(recurse, RelVar("blocked")))
        term = Fixpoint("X", body)
        with Session(graph, num_workers=2, optimize=False) as session:
            session.term(term).collect()
            session.add_edges("blocked", [("n0", "n2")])
            stats = session.last_maintenance
            assert stats.resumed == 0
            assert any(d.action == SKIPPED_NONMONOTONE
                       for d in stats.decisions)
            fresh = session.term(term)
            fresh.collect()
            assert fresh.last_result_cache_hit is False


class TestModesAndScoping:
    def test_async_mode_maintains_on_the_background_worker(self):
        with Session(chain_graph(), num_workers=2,
                     view_maintenance="async") as session:
            cached = session.ucrpq(TC).collect()
            session.add_edges("knows", [("n5", "y1")])
            # Drain the single-threaded background worker: once this
            # no-op action runs, the maintenance task before it is done.
            session.submit_action(lambda: None).result(timeout=10)
            assert session.last_maintenance.resumed == 1
            fresh = session.ucrpq(TC)
            maintained = fresh.collect().relation
            assert fresh.last_result_cache_hit is True
            assert maintained == recompute(session, cached.selected_plan)

    def test_invalid_mode_is_rejected(self):
        with pytest.raises(Exception):
            Session(chain_graph(), view_maintenance="eager")

    def test_commits_maintain_only_their_own_graph(self, session):
        # Same shape as the "chain" fixture (plan selection is stable
        # under one-edge deltas at this size), different node names.
        other = chain_graph(prefix="p", name="other")
        session.attach("other", other)
        session.ucrpq(TC).collect()
        view = session.graph("other")
        cached_b = view.ucrpq(TC).collect()
        view.add_edges("knows", [("p3", "pz")])
        stats = session.last_maintenance
        assert stats.resumed == 1
        assert all(d.graph == "other" for d in stats.decisions)
        fresh_b = view.ucrpq(TC)
        assert fresh_b.collect().relation == recompute(
            view, cached_b.selected_plan)
        assert fresh_b.last_result_cache_hit is True
        # Graph A's entry was untouched and still hits at its version.
        fresh_a = session.ucrpq(TC)
        fresh_a.collect()
        assert fresh_a.last_result_cache_hit is True

    @pytest.mark.parametrize("threshold,action", [(None, FALLBACK),
                                                  (1.0, RESUMED)])
    def test_custom_maintainer_threshold_is_honoured(self, threshold,
                                                     action):
        """One edge added to two is past the default threshold (0.25)
        and within a threshold of 1.0."""
        graph = LabeledGraph(name="tiny")
        graph.add_edges([("a", "knows", "b"), ("b", "knows", "c")])
        with Session(graph, num_workers=2) as session:
            if threshold is not None:
                session.view_maintainer = ViewMaintainer(
                    delta_threshold=threshold)
            cached = session.ucrpq(TC).collect()
            session.add_edges("knows", [("c", "d")])
            assert [d.action for d in session.last_maintenance.decisions] \
                == [action]
            fresh = session.ucrpq(TC)
            assert fresh.collect().relation == recompute(
                session, cached.selected_plan)
            assert fresh.last_result_cache_hit is (action == RESUMED)


class TestPromote:
    def test_promote_rejects_plan_identity_changes(self, session):
        from dataclasses import replace

        from repro.service import ResultCache
        cached = session.ucrpq(TC).collect()
        cache = session.result_cache
        (key, result), = [(k, v) for k, v in cache.entries()]
        with pytest.raises(ValueError):
            cache.promote(key, replace(key, plan_key="other"), result)
        assert cached is result

    def test_promote_keeps_the_superseded_entry(self, session):
        old_view = session.read_view()
        before = session.ucrpq(TC).collect()
        session.add_edges("knows", [("n7", "v1")])
        assert session.last_maintenance.resumed == 1
        # Pinned reader still hits the pre-commit entry verbatim.
        old_reader = old_view.ucrpq(TC)
        assert old_reader.collect().relation == before.relation
        assert old_reader.last_result_cache_hit is True
        # The next commit on its inputs drops it: a reader pinned two
        # commits back recomputes the same rows instead.
        session.add_edges("knows", [("n8", "v2")])
        assert len(session.result_cache) == 2
        assert session.result_cache.stats.invalidations == 1
        older_reader = old_view.ucrpq(TC)
        assert older_reader.collect().relation == before.relation
        assert older_reader.last_result_cache_hit is False
