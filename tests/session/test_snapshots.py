"""Snapshot isolation: immutable heads, COW commits, transactions, graphs.

The acceptance contract of the snapshot redesign:

* mutations build a *new* :class:`DatabaseSnapshot` with structural
  sharing (untouched ``Relation`` objects — and their memoized hash
  indexes — are the same objects across versions) and atomically swap
  the head; no cache is ever purged,
* no-op mutations (adding present pairs, removing absent ones, empty
  iterables) create no snapshot and bump no version,
* query handles pin the head at their first stage and are repeatable
  reads; ``read_view()`` pins a whole session view,
* ``transaction()`` batches mutations into one commit (or rolls back),
* ``attach()`` / ``graph()`` scope heads, versions and caches per named
  graph,
* the plan phase, result-cache hits and commits all run without the
  execution lock.
"""

from __future__ import annotations

import gc
import threading
import types

import pytest

from repro import DatabaseSnapshot, LabeledGraph, Relation, Session
from repro.data import row_mode
from repro.data.snapshot import operand_memo
from repro.errors import DatasetError, SchemaError, TransactionError

KNOWS = "?x,?y <- ?x knows+ ?y"


@pytest.fixture
def session(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=2) as session:
        yield session


class TestSnapshotType:
    def test_snapshot_is_a_readonly_versioned_mapping(self, session):
        snapshot = session.snapshot()
        assert isinstance(snapshot, DatabaseSnapshot)
        assert snapshot.version == 0
        assert "knows" in snapshot and "facts" in snapshot
        assert set(snapshot.keys()) == set(dict(snapshot).keys())
        with pytest.raises(TypeError):
            snapshot["knows"] = snapshot["facts"]  # Mapping, not MutableMapping

    def test_commit_swaps_the_head_and_keeps_the_old_snapshot(self, session):
        old = session.snapshot()
        old_pairs = old["knows"].to_pairs("src", "trg")
        session.add_edges("knows", [("dave", "erin")])
        new = session.snapshot()
        assert new is not old
        assert new.version == old.version + 1
        # The old snapshot is untouched — repeatable reads forever.
        assert old["knows"].to_pairs("src", "trg") == old_pairs
        assert ("dave", "erin") in new["knows"].to_pairs("src", "trg")

    def test_structural_sharing_of_untouched_relations(self, session):
        old = session.snapshot()
        session.add_edges("knows", [("dave", "erin")])
        new = session.snapshot()
        touched = {"knows", "-knows", "facts"}
        for name in old:
            if name in touched:
                assert new[name] is not old[name]
            else:
                # Same object, not just equal: hash indexes are shared.
                assert new[name] is old[name]
        # Commit cost tracks the touched relations, not the database: a
        # one-label commit over 64 relations rebuilds that label alone.
        rows = [(f"n{i}", f"n{i + 1}") for i in range(50)]
        database = {f"l{index}": Relation.from_pairs(rows,
                                                     columns=("src", "trg"))
                    for index in range(64)}
        with Session(database, num_workers=2) as wide:
            old = wide.snapshot()
            assert wide.add_edges("l0", [("c0", "c1")]) == ("l0",)
            new = wide.snapshot()
        assert new["l0"] is not old["l0"]
        assert all(new[name] is old[name] for name in old if name != "l0")

    def test_shared_relations_keep_their_memoized_indexes(self, session):
        old = session.snapshot()
        old["livesIn"].index_on(("src",))
        assert old["livesIn"].has_index(("src",))
        session.add_edges("knows", [("dave", "erin")])
        assert session.snapshot()["livesIn"].has_index(("src",))

    def test_fingerprint_tracks_touched_relations_only(self, session):
        session.add_edges("knows", [("dave", "erin")])
        snapshot = session.snapshot()
        assert snapshot.fingerprint(("knows",)) == (("knows", 1),)
        assert snapshot.fingerprint(("livesIn",)) == (("livesIn", 0),)
        # Unknown names are fingerprinted at 0 so their later appearance
        # changes the key.
        assert snapshot.fingerprint(("nosuch",)) == (("nosuch", 0),)

    def test_statistics_travel_with_the_snapshot(self, session):
        old = session.snapshot()
        before = old.catalog.get("knows").cardinality
        session.add_edges("knows", [("dave", "erin")])
        new = session.snapshot()
        assert new.catalog.get("knows").cardinality == before + 1
        assert old.catalog.get("knows").cardinality == before
        # Untouched relations are shared, and so are their statistics.
        assert new.catalog.get("livesIn") is old.catalog.get("livesIn")

    def test_a_commit_summarizes_nothing(self, session, monkeypatch):
        """Statistics are computed when the plan phase first reads them,
        for the relations the plan reads: a commit summarizes neither
        the relations it touched nor ``facts``."""
        summarized = []
        column_values = Relation.column_values

        def counting(relation, column):
            summarized.append(relation)
            return column_values(relation, column)

        monkeypatch.setattr(Relation, "column_values", counting)
        session.add_edges("knows", [("dave", "erin")])
        assert summarized == []
        snapshot = session.snapshot()
        assert "facts" in snapshot
        session.ucrpq(KNOWS).plan()
        assert summarized
        assert {name for name, relation in snapshot.items()
                if any(relation is seen for seen in summarized)} == {"knows"}

    def test_the_cache_probe_leaves_a_new_relation_to_the_plan_phase(
            self, session, monkeypatch):
        """The lookup-only probe runs ahead of admission: a relation a
        commit replaced is summarized by the next plan, not by it."""
        session.ucrpq(KNOWS).collect()
        session.add_edges("knows", [("dave", "erin")])
        summarized = []
        column_values = Relation.column_values

        def counting(relation, column):
            summarized.append(relation)
            return column_values(relation, column)

        monkeypatch.setattr(Relation, "column_values", counting)
        assert session.ucrpq(KNOWS).cached_result() is None
        assert summarized == []
        served = session.ucrpq(KNOWS).collect()
        assert summarized
        assert session.ucrpq(KNOWS).cached_result().relation is served.relation

    def test_successor_keeps_no_relation_it_replaced(self, session):
        """A commit holds the new head only: the relations it replaced
        stay reachable through older snapshots alone, so they are freed
        once no reader pins those."""
        old = session.snapshot()
        replaced = [old["knows"], old["-knows"]]
        session.remove_edges("knows", [("alice", "bob")])
        reachable = _reachable_relations(session.snapshot())
        assert old["livesIn"] in reachable  # untouched: shared
        assert not any(relation in reachable for relation in replaced)


def _reachable_relations(root) -> list:
    """Every ``Relation`` reachable from ``root`` without passing through
    another ``Relation``, a type, a module or a function."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Relation):
            found.append(obj)
            continue
        if isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        stack.extend(gc.get_referents(obj))
    return found


class TestDerivedMemo:
    def test_none_artifacts_are_computed_once(self, session):
        """Regression: ``derived()`` used ``None`` as its miss marker,
        so a computation legitimately returning ``None`` (or any falsy
        artifact) re-ran on every call instead of being memoized."""
        snapshot = session.snapshot()
        calls = []

        def compute_none(snap):
            calls.append(snap)
            return  # a computed (and cached) None, spelled bare for RET501

        assert snapshot.derived("nothing", compute_none) is None
        assert snapshot.derived("nothing", compute_none) is None
        assert len(calls) == 1

    def test_falsy_artifacts_are_memoized_too(self, session):
        snapshot = session.snapshot()
        computed = snapshot.derived("empty", lambda snap: {})
        assert computed == {}
        assert snapshot.derived("empty", lambda snap: {"not": "this"}) is computed


class TestOperandMemoFollowsTheVersion:
    """Resolved operands hang off one snapshot version: a commit on a
    label an operand reads starts from an empty memo, and readers pinned
    to the old version keep theirs."""

    QUERY = "?x,?y <- ?x (a/-a)+ ?y"   # joins X against the operand a/-a

    def test_commit_on_an_operands_label(self):
        graph = LabeledGraph(name="operand-versions")
        graph.add_edges([(f"p{i}", "a", f"t{i // 2}") for i in range(12)])
        with Session(graph, num_workers=2) as session:
            pinned = session.read_view()
            old_answer = session.ucrpq(self.QUERY).collect().relation
            old_memo = operand_memo(session.snapshot())
            assert len(old_memo) == 1       # a/-a, evaluated and kept

            session.add_edges("a", [("p0", "t1")])
            new_answer, _, _ = session.ucrpq(self.QUERY).run_once(
                use_result_cache=False)
            with row_mode():
                oracle = session.evaluate_centralized(
                    session.ucrpq(self.QUERY).term)
            assert new_answer.relation == oracle
            assert new_answer.relation != old_answer
            new_memo = operand_memo(session.snapshot())
            assert new_memo is not old_memo and len(new_memo) == 1

            again, _, _ = pinned.ucrpq(self.QUERY).run_once(
                use_result_cache=False)
            assert again.relation == old_answer
            assert again.metrics.index_builds == 0   # old memo, still warm


class TestNoOpMutations:
    def test_adding_present_pairs_is_a_noop(self, session):
        present = next(iter(session.snapshot()["knows"].to_pairs("src", "trg")))
        head = session.snapshot()
        assert session.add_edges("knows", [present]) == ()
        assert session.snapshot() is head
        assert session.database_version == 0
        assert session.relation_version("knows") == 0

    def test_empty_iterables_are_noops(self, session):
        head = session.snapshot()
        assert session.add_edges("knows", []) == ()
        assert session.remove_edges("knows", []) == ()
        assert session.snapshot() is head

    def test_removing_absent_pairs_is_a_noop(self, session):
        head = session.snapshot()
        assert session.remove_edges("knows", [("nobody", "noone")]) == ()
        assert session.snapshot() is head
        assert session.database_version == 0

    def test_noop_mutations_leave_cache_entries_live(self, session):
        """Regression: no-ops used to bump versions, silently orphaning
        every dependent cache entry."""
        query = session.ucrpq(KNOWS)
        query.collect()
        present = next(iter(session.snapshot()["knows"].to_pairs("src", "trg")))
        session.add_edges("knows", [present])
        session.remove_edges("knows", [("nobody", "noone")])
        replay = session.ucrpq(KNOWS)
        replay.collect()
        assert replay.last_plan_cache_hit is True
        assert replay.last_result_cache_hit is True


class TestQueryPinning:
    def test_handle_pins_at_first_stage_and_is_repeatable(self, session):
        handle = session.ucrpq(KNOWS)
        assert handle.pinned_snapshot is None  # construction pins nothing
        handle.term  # first stage that needs the database
        pinned = handle.pinned_snapshot
        assert pinned is session.snapshot()
        session.add_edges("knows", [("dave", "erin")])
        assert handle.pinned_snapshot is pinned
        # The action reads the pinned version, not the new head.
        fresh = session.ucrpq(KNOWS)
        assert handle.count() < fresh.count()

    def test_run_once_reads_the_head_each_call(self, session):
        handle = session.ucrpq(KNOWS)
        before, _, _ = handle.run_once()
        session.add_edges("knows", [("dave", "erin")])
        after, _, _ = handle.run_once()
        assert len(after.relation) > len(before.relation)

    def test_a_retained_hit_reports_the_head_it_was_read_at(self, session):
        cached = session.ucrpq(KNOWS).collect()
        # With no commit a hit is the retained object itself.
        assert session.ucrpq(KNOWS).collect() is cached
        session.add_edges("worksAt", [("dave", "cnrs")])
        handle = session.ucrpq(KNOWS)
        served = handle.collect()
        assert handle.last_result_cache_hit is True
        assert served.snapshot_version == session.database_version == 1
        assert served.relation is cached.relation
        assert cached.snapshot_version == 0
        probed = session.ucrpq(KNOWS).cached_result()
        assert probed.snapshot_version == 1

    def test_datalog_handle_pins_too(self, session):
        handle = session.datalog("?x,?y <- ?x knows ?y")
        result = handle.collect()
        session.add_edges("knows", [("dave", "erin")])
        assert handle.pinned_snapshot.version == 0
        assert len(session.datalog("?x,?y <- ?x knows ?y").collect().relation) \
            == len(result.relation) + 1


class TestTransactions:
    def test_transaction_commits_once_on_exit(self, session):
        with session.transaction() as txn:
            txn.add_edges("knows", [("dave", "erin")])
            txn.add_edges("worksAt", [("erin", "cnrs")])
            txn.remove_edges("knows", [("alice", "bob")])
            # Nothing is visible before the commit.
            assert session.database_version == 0
        assert session.database_version == 1  # one bump for the batch
        head = session.snapshot()
        assert ("dave", "erin") in head["knows"].to_pairs("src", "trg")
        assert ("alice", "bob") not in head["knows"].to_pairs("src", "trg")
        assert ("erin", "cnrs") in head["worksAt"].to_pairs("src", "trg")

    def test_transaction_sees_its_own_earlier_ops(self, session):
        with session.transaction() as txn:
            txn.add_edges("mentors", [("alice", "bob"), ("bob", "carol")])
            txn.remove_edges("mentors", [("alice", "bob")])
        head = session.snapshot()
        assert head["mentors"].to_pairs("src", "trg") == {("bob", "carol")}
        assert session.database_version == 1

    def test_net_zero_batch_commits_nothing(self, session):
        """Ops that cancel out — including creating and emptying a brand
        new label — must not commit a snapshot or a phantom relation."""
        head = session.snapshot()
        with session.transaction() as txn:
            txn.add_edges("knows", [("x1", "y1")])
            txn.remove_edges("knows", [("x1", "y1")])
            txn.add_edges("mentors", [("alice", "bob")])
            txn.remove_edges("mentors", [("alice", "bob")])
        assert session.snapshot() is head
        assert session.database_version == 0
        assert "mentors" not in session.snapshot()

    def test_exception_rolls_back(self, session):
        with pytest.raises(RuntimeError):
            with session.transaction() as txn:
                txn.add_edges("knows", [("dave", "erin")])
                raise RuntimeError("abort")
        assert session.database_version == 0
        assert ("dave", "erin") not in \
            session.snapshot()["knows"].to_pairs("src", "trg")

    def test_explicit_rollback_and_finished_misuse(self, session):
        txn = session.transaction()
        txn.add_edges("knows", [("dave", "erin")])
        txn.rollback()
        assert session.database_version == 0
        with pytest.raises(TransactionError):
            txn.add_edges("knows", [("x", "y")])
        with pytest.raises(TransactionError):
            txn.commit()

    def test_failed_commit_leaves_the_transaction_open(self, session):
        """A commit that validates nothing into place must not poison the
        transaction as committed: rollback still works afterwards."""
        from repro.errors import EvaluationError
        txn = session.transaction()
        txn.remove_edges("noSuchRelation", [("a", "b")])
        with pytest.raises(EvaluationError):
            txn.commit()
        assert session.database_version == 0
        txn.rollback()  # still allowed: nothing was committed
        with pytest.raises(TransactionError):
            txn.commit()

    def test_empty_removal_from_unknown_relation_still_raises(self, session):
        """Regression: the empty-iterable fast path must not skip the
        unknown-relation check (callers use it to catch typo'd names)."""
        from repro.errors import EvaluationError
        with pytest.raises(EvaluationError):
            session.remove_edges("noSuchRelation", [])
        assert session.database_version == 0

    def test_invalid_op_leaves_everything_unapplied(self, session):
        """Atomicity: validation failure anywhere applies nothing."""
        from repro import Relation
        with Session({"knows": Relation.from_pairs([("a", "b")],
                                                   columns=("src", "trg")),
                      "-knows": Relation(("x", "y"), [("b", "a")])},
                     num_workers=2) as broken:
            with pytest.raises(SchemaError):
                with broken.transaction() as txn:
                    txn.add_edges("other", [("c", "d")])
                    txn.add_edges("knows", [("c", "d")])  # schema mismatch
            assert broken.database_version == 0
            assert "other" not in broken.snapshot()

    def test_all_noop_batch_creates_no_snapshot(self, session):
        present = next(iter(session.snapshot()["knows"].to_pairs("src", "trg")))
        with session.transaction() as txn:
            txn.add_edges("knows", [present])
            txn.remove_edges("knows", [("nobody", "noone")])
        assert session.database_version == 0


class TestReadView:
    def test_read_view_is_pinned_and_read_only(self, session):
        view = session.read_view()
        pinned = view.snapshot()
        session.add_edges("knows", [("dave", "erin")])
        assert view.snapshot() is pinned
        assert view.ucrpq(KNOWS).count() < session.ucrpq(KNOWS).count()
        with pytest.raises(TransactionError):
            view.add_edges("knows", [("x", "y")])
        with pytest.raises(TransactionError):
            view.transaction()
        view.close()  # no-op: the root session owns the cluster
        assert session.ucrpq(KNOWS).count() > 0


class TestMultiGraph:
    def test_attach_and_scope_queries_per_graph(self, session,
                                                small_labeled_graph):
        from repro import LabeledGraph
        other = LabeledGraph(name="tiny")
        other.add_edge("a", "knows", "b")
        other.add_edge("b", "knows", "c")
        session.attach("tiny", other)
        assert session.graphs() == ("default", "tiny")
        tiny = session.graph("tiny")
        assert tiny.ucrpq(KNOWS).count() == 3  # a->b, b->c, a->c
        assert session.ucrpq(KNOWS).count() != 3
        # Versions are per graph.
        tiny.add_edges("knows", [("c", "d")])
        assert tiny.database_version == 1
        assert session.database_version == 0

    def test_caches_are_scoped_per_graph(self, session):
        from repro import LabeledGraph
        other = LabeledGraph(name="tiny")
        other.add_edge("a", "knows", "b")
        session.attach("tiny", other)
        session.ucrpq(KNOWS).collect()
        tiny = session.graph("tiny")
        handle = tiny.ucrpq(KNOWS)
        handle.collect()
        # Same text, same version fingerprints — but disjoint caches, so
        # the tiny graph cannot hit the default graph's entries.
        assert handle.last_plan_cache_hit is False
        assert handle.last_result_cache_hit is False
        assert len(session.plan_cache) == 1
        assert len(tiny.plan_cache) == 1
        assert tiny.plan_cache is not session.plan_cache

    def test_graph_views_are_memoized_and_shared(self, session):
        from repro import LabeledGraph
        session.attach("tiny", LabeledGraph.from_triples([("a", "knows", "b")]))
        assert session.graph("tiny") is session.graph("tiny")
        assert session.graph("default") is session

    def test_views_observe_root_config_changes_live(self, session):
        """Views are scopes, not copies: engine config changed on the
        root after a view is created must be visible through it."""
        from repro import LabeledGraph
        session.attach("tiny", LabeledGraph.from_triples([("a", "knows", "b")]))
        view = session.graph("tiny")
        session.strategy = "pgld"
        session.enable_result_cache = False
        session.optimize_plans = False
        assert view.strategy == "pgld"
        assert view.enable_result_cache is False
        assert view.optimize_plans is False

    def test_attaching_a_snapshot_relabels_it(self, session):
        """Attaching another graph's head under a new name must not keep
        the old label on the new lineage."""
        session.attach("backup", session.snapshot())
        backup = session.graph("backup")
        assert backup.snapshot().graph_name == "backup"
        backup.add_edges("knows", [("zz1", "zz2")])
        assert backup.snapshot().graph_name == "backup"  # successors too
        # Content was shared; the original graph is untouched.
        assert session.database_version == 0
        assert backup.database_version == 1

    def test_graph_management_errors(self, session, small_labeled_graph):
        with pytest.raises(DatasetError):
            session.graph("nosuch")
        with pytest.raises(DatasetError):
            session.attach("default", small_labeled_graph)
        with pytest.raises(DatasetError):
            session.detach("default")
        with pytest.raises(DatasetError):
            session.detach("nosuch")
        session.attach("extra", small_labeled_graph)
        session.detach("extra")
        with pytest.raises(DatasetError):
            session.graph("extra")


class TestLockFreedom:
    def test_plan_phase_and_cache_hits_need_no_execution_lock(self, session):
        """A thread holding the execution lock blocks physical executions
        only: planning, result-cache hits and commits all proceed."""
        warm = session.ucrpq(KNOWS)
        warm.collect()  # warm both caches at version 0... then re-pin below
        outcomes = {}

        def reader():
            handle = session.ucrpq(KNOWS)
            handle.plan()  # plan phase: cache hit, no lock
            outcomes["plan"] = handle.last_plan_cache_hit
            outcomes["rows"] = handle.count()  # result-cache hit, no lock
            outcomes["result"] = handle.last_result_cache_hit

        def writer():
            outcomes["touched"] = session.add_edges("worksAt",
                                                    [("erin", "cnrs")])

        with session.execution_lock:
            for target in (reader, writer):
                thread = threading.Thread(target=target)
                thread.start()
                thread.join(timeout=10)
                assert not thread.is_alive(), \
                    f"{target.__name__} blocked on the execution lock"
        assert outcomes["plan"] is True
        assert outcomes["result"] is True
        assert outcomes["rows"] == warm.count()
        assert "worksAt" in outcomes["touched"]

    def test_cache_hits_need_no_commit_lock(self, session):
        """Reads never wait for a writer: while another thread holds the
        graph's commit lock, the plan phase and a result-cache hit both
        complete."""
        warm = session.ucrpq(KNOWS)
        warm.collect()
        outcomes = {}

        def reader():
            handle = session.ucrpq(KNOWS)
            outcomes["rows"] = handle.count()
            outcomes["plan"] = handle.last_plan_cache_hit
            outcomes["result"] = handle.last_result_cache_hit

        with session._state.commit_lock:
            thread = threading.Thread(target=reader)
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive(), "reader blocked on the commit lock"
        assert outcomes == {"rows": warm.count(), "plan": True,
                            "result": True}
