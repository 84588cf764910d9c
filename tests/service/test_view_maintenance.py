"""Incremental view maintenance of cached recursive results.

Every maintained result is checked *differentially* against a cold
recomputation of the same plan on the new head — the maintenance layer
is only allowed to be faster, never different.
"""

from __future__ import annotations

from functools import partial

import pytest

from repro import Session
from repro.algebra.evaluate import Evaluator
from repro.algebra.terms import Antijoin, Fixpoint, Join, Rename, RelVar, Union
from repro.data.graph import LabeledGraph
from repro.service import view_maintenance
from repro.service.view_maintenance import (
    FALLBACK, REDERIVED, RESUMED, SKIPPED_NONMONOTONE, SKIPPED_SHAPE,
    SKIPPED_STALE, SKIPPED_UNCONVERGED, ViewMaintainer)

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
        assert stats.resumed == 1 and stats.maintained == 1
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


class TestDeleteAndRederive:
    def test_dred_result_equals_recomputation(self, session):
        cached = session.ucrpq(TC).collect()
        session.remove_edges("knows", [("n10", "n11")])
        stats = session.last_maintenance
        assert stats.rederived == 1
        fresh = session.ucrpq(TC)
        maintained = fresh.collect().relation
        assert fresh.last_result_cache_hit is True
        assert maintained == recompute(session, cached.selected_plan)

    def test_dred_rederives_alternative_paths(self, session):
        """Removing a shortcut edge must keep every pair the chain still
        derives (the re-derivation half of DRed, where overdeletion
        alone would over-remove)."""
        session.add_edges("knows", [("n10", "n13")])  # shortcut over chain
        cached = session.ucrpq(TC).collect()
        session.remove_edges("knows", [("n10", "n13")])
        assert session.last_maintenance.rederived == 1
        fresh = session.ucrpq(TC)
        maintained = fresh.collect().relation
        # Still derivable via n10 -> n11 -> n12 -> n13.
        assert ("n10", "n13") in maintained.to_pairs("x", "y")
        assert maintained == recompute(session, cached.selected_plan)

    def test_mixed_insert_and_delete_in_one_transaction(self, session):
        cached = session.ucrpq(TC).collect()
        with session.transaction() as txn:
            txn.add_edges("knows", [("n40", "w1"), ("w1", "w2")])
            txn.remove_edges("knows", [("n0", "n1")])
        assert session.last_maintenance.rederived == 1
        fresh = session.ucrpq(TC)
        maintained = fresh.collect().relation
        assert fresh.last_result_cache_hit is True
        assert maintained == recompute(session, cached.selected_plan)


class TestFallbackAndSkips:
    def test_large_delta_falls_back_to_recompute(self, session):
        session.ucrpq(TC).collect()
        # Rewrite most of the graph in one commit: far past the delta
        # threshold, incremental maintenance would do full-recompute work.
        session.add_edges("knows", [(f"m{i}", f"m{i + 1}")
                                    for i in range(60)])
        stats = session.last_maintenance
        assert stats.fallbacks == 1 and stats.maintained == 0
        assert stats.decisions[0].action == FALLBACK
        fresh = session.ucrpq(TC)
        result = fresh.collect()
        assert fresh.last_result_cache_hit is False  # normal miss path
        assert ("m0", "m60") in result.relation.to_pairs("x", "y")

    def test_stale_entry_is_skipped_not_mismaintained(self, session):
        """An entry two commits behind must not be resumed across only
        the latest delta (it would silently skip the middle commit)."""
        session.ucrpq(TC).collect()
        session.view_maintenance = "off"
        session.add_edges("knows", [("s1", "s2")])  # entry now 1 behind
        session.view_maintenance = "sync"
        session.add_edges("knows", [("s2", "s3")])
        stats = session.last_maintenance
        assert stats.skipped == 1
        assert stats.decisions[0].action == SKIPPED_STALE
        fresh = session.ucrpq(TC)
        result = fresh.collect()
        assert fresh.last_result_cache_hit is False
        assert ("s1", "s3") in result.relation.to_pairs("x", "y")

    @pytest.mark.parametrize("commit", ("insert", "remove"))
    def test_unconverged_maintenance_leaves_the_entry_stale(
            self, session, monkeypatch, commit):
        """Hitting the iteration bound in the resume loop (insert) or the
        DRed overdeletion loop (remove) must not fail the commit, and is
        not an Fcond violation: the entry goes stale, the next read
        recomputes."""
        cached = session.ucrpq(TC).collect()
        monkeypatch.setattr(view_maintenance, "Evaluator",
                            partial(Evaluator, max_iterations=2))
        if commit == "insert":
            # One edge at each end: whichever way the plan recurses, one
            # of them takes ~40 rounds to propagate along the chain.
            session.add_edges("knows", [("z0", "n0"), ("n40", "z1")])
        else:
            session.remove_edges("knows", [("n10", "n11")])
        stats = session.last_maintenance
        assert stats.summary() == {"examined": 1, "resumed": 0,
                                   "rederived": 0, "fallbacks": 0,
                                   "skipped": 1}
        assert stats.decisions[0].action == SKIPPED_UNCONVERGED
        fresh = session.ucrpq(TC)
        result = fresh.collect()
        assert fresh.last_result_cache_hit is False
        assert result.relation == recompute(session, cached.selected_plan)

    def test_non_fixpoint_plans_are_left_to_the_miss_path(self, session):
        session.ucrpq("?x,?y <- ?x knows ?y").collect()  # no recursion
        session.add_edges("knows", [("q1", "q2")])
        stats = session.last_maintenance
        assert stats.maintained == 0
        assert all(d.action == SKIPPED_SHAPE for d in stats.decisions)
        fresh = session.ucrpq("?x,?y <- ?x knows ?y")
        result = fresh.collect()
        assert ("q1", "q2") in result.relation.to_pairs("x", "y")

    def test_touched_antijoin_right_is_nonmonotone_and_skipped(self):
        """Insertions into an antijoin's right side can *shrink* the
        fixpoint, so neither resume nor DRed applies: the maintainer
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
            assert stats.maintained == 0
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

    def test_custom_maintainer_threshold_is_honoured(self):
        graph = LabeledGraph(name="tiny")
        graph.add_edges([("a", "knows", "b"), ("b", "knows", "c")])
        with Session(graph, num_workers=2) as session:
            session.view_maintainer = ViewMaintainer(delta_threshold=1.0)
            cached = session.ucrpq(TC).collect()
            session.remove_edges("knows", [("a", "b")])
            assert session.last_maintenance.rederived == 1
            fresh = session.ucrpq(TC)
            assert fresh.collect().relation == recompute(
                session, cached.selected_plan)


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
