"""Session-level behaviour: front-end parity, caches, mutations, lifecycle."""

from __future__ import annotations

import pytest

from repro import Session
from repro.errors import TranslationError


@pytest.fixture
def session(small_labeled_graph):
    with Session(small_labeled_graph, num_workers=2) as session:
        yield session


class TestDatalogFrontEnd:
    def test_matches_ucrpq_front_end(self, session):
        text = "?x,?y <- ?x knows+ ?y"
        mu = session.ucrpq(text).collect().relation
        datalog = session.datalog(text).collect().relation
        assert mu == datalog

    def test_stages_are_lazy_and_memoized(self, session):
        handle = session.datalog("?x,?y <- ?x knows+ ?y")
        assert handle._program is not handle.program  # sentinel replaced
        assert handle.program is handle.program
        assert handle.collect() is handle.collect()

    def test_program_reports_left_linear_recursion(self, session):
        handle = session.datalog("?x,?y <- ?x knows+ ?y")
        decomposable, non_decomposable = handle.distribution()
        assert decomposable or non_decomposable

    def test_edb_follows_mutations(self, session):
        before = session.datalog("?x,?y <- ?x knows ?y").count()
        session.add_edges("knows", [("dave", "erin")])
        after = session.datalog("?x,?y <- ?x knows ?y").count()
        assert after == before + 1


class TestSessionCaches:
    def test_result_cache_serves_repeated_handles(self, session):
        text = "?x,?y <- ?x knows+ ?y"
        first = session.ucrpq(text)
        first.collect()
        assert first.last_result_cache_hit is False
        second = session.ucrpq(text)
        second.collect()
        assert second.last_result_cache_hit is True

    def test_commit_invalidates_what_it_touched(self, session):
        """A commit maintains nothing: the head read after an add misses
        and recomputes through the normal path, and a removal restores
        the earlier rows."""
        text = "?x,?y <- ?x knows+ ?y"
        before = session.ucrpq(text).collect()
        session.add_edges("knows", [("dave", "erin")])
        added = session.ucrpq(text)
        assert ("alice", "erin") in added.collect().relation.to_pairs("x", "y")
        assert added.last_result_cache_hit is False
        session.remove_edges("knows", [("dave", "erin")])
        removed = session.ucrpq(text)
        assert removed.collect().relation == before.relation
        assert removed.last_result_cache_hit is False

    def test_view_maintenance_accepts_only_off(self, small_labeled_graph):
        """The keyword is a one-value compatibility shim, and commits log
        no maintenance decisions."""
        with Session(small_labeled_graph, num_workers=2,
                     view_maintenance="off") as session:
            session.ucrpq("?x,?y <- ?x knows+ ?y").collect()
            session.add_edges("knows", [("dave", "erin")])
            assert session.last_maintenance is None

    @pytest.mark.parametrize("mode", ["sync", "async", "eager"])
    def test_view_maintenance_rejects_every_other_mode(
            self, small_labeled_graph, mode):
        with pytest.raises(ValueError):
            Session(small_labeled_graph, view_maintenance=mode)

    def test_pinned_reader_one_transaction_back_hits(self, session):
        """A transaction is one commit: the rule runs once, so a reader
        pinned just before it still hits."""
        text = "?x,?y <- ?x knows+ ?y"
        before = session.ucrpq(text).collect()
        old_view = session.read_view()
        with session.transaction() as txn:
            txn.add_edges("knows", [("dave", "erin")])
            txn.add_edges("knows", [("erin", "frank")])
            txn.remove_edges("knows", [("alice", "bob")])
        reader = old_view.ucrpq(text)
        assert reader.collect().relation == before.relation
        assert reader.last_result_cache_hit is True

    def test_rolled_back_transaction_drops_no_entry(self, session):
        text = "?x,?y <- ?x knows+ ?y"
        session.ucrpq(text).collect()
        txn = session.transaction()
        txn.add_edges("knows", [("dave", "erin")])
        txn.rollback()
        assert len(session.result_cache) == 1
        again = session.ucrpq(text)
        again.collect()
        assert again.last_result_cache_hit is True


class TestPlanMutationEdgeCases:
    """Unit coverage of ``Session._plan_mutation`` and batch netting."""

    def test_partial_overlap_removal_touches_only_present_pairs(self, session):
        """Removing a mix of present and absent pairs removes exactly
        the present ones — and keeps the inverse and facts tables in
        lockstep."""
        before = session.snapshot()
        touched = session.remove_edges(
            "knows", [("alice", "bob"), ("ghost", "spook")])
        assert "knows" in touched
        after = session.snapshot()
        assert len(after["knows"]) == len(before["knows"]) - 1
        assert ("alice", "bob") not in after["knows"].rows
        assert ("bob", "alice") not in after["-knows"].rows
        if "facts" in after:
            assert ("knows", "alice", "bob") not in after["facts"].rows

    def test_fully_absent_removal_is_a_noop(self, session):
        version = session.database_version
        touched = session.remove_edges("knows", [("ghost", "spook")])
        assert touched == ()
        assert session.database_version == version

    def test_additions_update_inverse_and_facts_consistently(self, session):
        session.add_edges("knows", [("dave", "erin")])
        after = session.snapshot()
        assert ("dave", "erin") in after["knows"].rows
        assert ("erin", "dave") in after["-knows"].rows
        if "facts" in after:
            assert ("knows", "dave", "erin") in after["facts"].rows
            # One version bump covers all three relations of the label.
            assert (after.relation_version("facts")
                    == after.relation_version("knows")
                    == after.relation_version("-knows"))

    def test_plan_mutation_returns_only_changed_relations(self, session):
        """Direct unit check: adding an already-present pair plans no
        changes at all (no phantom inverse/facts replacements)."""
        database = session.snapshot()
        changes = Session._plan_mutation(
            database, "knows", {("alice", "bob")}, removing=False)
        assert changes == {}

    def test_plan_mutation_creates_inverse_for_new_labels(self, session):
        database = session.snapshot()
        changes = Session._plan_mutation(
            database, "mentors", {("alice", "bob")}, removing=False)
        assert set(changes) >= {"mentors", "-mentors"}
        assert ("bob", "alice") in changes["-mentors"].rows

    def test_add_then_remove_nets_out_in_one_transaction(self, session):
        """A batch that adds and then removes the same pair (plus one
        real change) commits one snapshot reflecting only the net
        effect, with the inverse kept consistent."""
        version = session.database_version
        with session.transaction() as txn:
            txn.add_edges("knows", [("u1", "u2"), ("u3", "u4")])
            txn.remove_edges("knows", [("u1", "u2")])
        after = session.snapshot()
        assert session.database_version == version + 1
        assert ("u1", "u2") not in after["knows"].rows
        assert ("u3", "u4") in after["knows"].rows
        assert ("u2", "u1") not in after["-knows"].rows
        assert ("u4", "u3") in after["-knows"].rows


class TestFrontEndDispatch:
    def test_as_query_accepts_all_forms(self, session):
        text = "?x,?y <- ?x knows+ ?y"
        by_text = session.as_query(text)
        by_ast = session.as_query(session.parse(text))
        by_term = session.as_query(by_text.term)
        handle = session.ucrpq(text)
        assert session.as_query(handle) is handle
        assert by_text.collect().relation == by_ast.collect().relation
        assert by_text.collect().relation == by_term.collect().relation

    def test_foreign_handles_are_rejected(self, session, small_labeled_graph):
        with Session(small_labeled_graph) as other:
            foreign = other.ucrpq("?x,?y <- ?x knows ?y")
            with pytest.raises(TranslationError):
                session.as_query(foreign)

    def test_explain_goes_through_the_pipeline(self, session):
        text = session.explain("?x <- ?x isLocatedIn+ europe")
        assert "C2" in text
        assert "plans explored" in text
