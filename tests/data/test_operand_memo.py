"""The per-snapshot operand memo (``repro.data.snapshot.OperandMemo``).

Recursion-constant operands are resolved once per snapshot version: the
evaluator keeps the evaluated relation on the snapshot, so the object —
and the encoding and indexes memoized on it — is the same for every
execution of that version.  The memo is bounded in rows, admits nothing
that contains a fixpoint, and counts every outcome.
"""

from __future__ import annotations

from repro.algebra import Evaluator, Join, RelVar, Rename, closure
from repro.data import Relation
from repro.data.snapshot import (DatabaseSnapshot, OperandMemo,
                                 operand_memo)
from repro.obs.metrics import get_registry


def edges(count: int, start: int = 0) -> Relation:
    return Relation.from_pairs([(i, i + 1) for i in range(start, start + count)],
                               columns=("src", "trg"))


def outcomes() -> dict[str, float]:
    registry = get_registry()
    return {outcome: registry.counter("repro_operand_memo_total",
                                      outcome=outcome).value
            for outcome in ("hit", "miss", "rejected", "evicted")}


def outcomes_since(before: dict[str, float]) -> dict[str, float]:
    return {name: value - before[name] for name, value in outcomes().items()}


class TestBudget:
    def test_an_operand_above_the_budget_is_returned_but_not_retained(self):
        memo = OperandMemo(budget=5)
        before = outcomes()
        big = edges(6)
        assert memo.offer("big", big) is big
        assert "big" not in memo and memo.retained_rows == 0
        assert memo.lookup("big") is None
        assert outcomes_since(before) == {"hit": 0, "miss": 0,
                                          "rejected": 1, "evicted": 0}

    def test_least_recently_used_operands_go_first(self):
        memo = OperandMemo(budget=10)
        before = outcomes()
        first, second, third = edges(4), edges(4, 10), edges(4, 20)
        memo.offer("first", first)
        memo.offer("second", second)
        assert memo.lookup("first") is first      # now the most recent
        memo.offer("third", third)
        assert "second" not in memo
        assert memo.lookup("first") is first and memo.lookup("third") is third
        assert memo.retained_rows == 8
        assert outcomes_since(before) == {"hit": 3, "miss": 3,
                                          "rejected": 0, "evicted": 1}

    def test_retained_rows_never_exceed_the_budget(self):
        memo = OperandMemo(budget=25)
        for size in (7, 3, 11, 25, 2, 9, 26, 13, 1, 24):
            memo.offer(("operand", size), edges(size))
            assert memo.retained_rows <= memo.budget
        assert ("operand", 26) not in memo
        assert ("operand", 24) in memo and memo.retained_rows == 25

    def test_the_first_retained_object_wins(self):
        """Two threads resolving one operand end up sharing one object
        (and therefore one encoding and one set of indexes)."""
        memo = OperandMemo(budget=10)
        winner = edges(3)
        assert memo.offer("operand", winner) is winner
        assert memo.offer("operand", edges(3)) is winner
        assert memo.retained_rows == 3


class TestEvaluatorAdmission:
    TERM = Rename("src", "via", RelVar("E"))

    def snapshot(self) -> DatabaseSnapshot:
        return DatabaseSnapshot.from_relations({"E": edges(8)})

    def test_budget_is_the_snapshots_own_row_count(self):
        snapshot = DatabaseSnapshot.from_relations(
            {"E": edges(8), "S": edges(3)})
        assert operand_memo(snapshot).budget == 11
        assert operand_memo(snapshot) is operand_memo(snapshot)

    def test_one_object_per_snapshot_version(self):
        snapshot = self.snapshot()
        first = Evaluator(snapshot)
        operand = first.evaluate_constant(self.TERM)
        assert first.stats.operands_evaluated == 1
        second = Evaluator(snapshot)
        assert second.evaluate_constant(self.TERM) is operand
        assert second.stats.operands_evaluated == 0
        # The successor version has its own memo: nothing stale is served.
        successor = snapshot.mutate({"E": edges(9)})
        renamed = Evaluator(successor).evaluate_constant(self.TERM)
        assert renamed is not operand and len(renamed) == 9
        assert Evaluator(snapshot).evaluate_constant(self.TERM) is operand

    def test_an_operand_containing_a_fixpoint_is_never_retained(self):
        snapshot = self.snapshot()
        before = outcomes()
        term = Rename("src", "via", closure(RelVar("E"), var="X"))
        first = Evaluator(snapshot).evaluate_constant(term)
        second = Evaluator(snapshot).evaluate_constant(term)
        assert first == second and first is not second
        assert term not in operand_memo(snapshot)
        # What the nested closure itself joins against is a function of
        # base relations, and is kept: evaluated once, then served.
        assert outcomes_since(before) == {"hit": 1, "miss": 1,
                                          "rejected": 2, "evicted": 0}

    def test_an_oversized_operand_is_evaluated_but_not_retained(self):
        star = Relation.from_pairs([(i, "hub") for i in range(6)],
                                   columns=("src", "trg"))
        snapshot = DatabaseSnapshot.from_relations({"E": star})
        pairs = Join(Rename("src", "left", RelVar("E")),
                     Rename("src", "right", RelVar("E")))
        operand = Evaluator(snapshot).evaluate_constant(pairs)
        assert len(operand) == 36 > operand_memo(snapshot).budget
        assert len(operand_memo(snapshot)) == 0

    def test_base_relations_are_not_weighed(self):
        snapshot = self.snapshot()
        evaluator = Evaluator(snapshot)
        assert evaluator.evaluate_constant(RelVar("E")) is snapshot["E"]
        assert evaluator.stats.operands_evaluated == 0
        assert len(operand_memo(snapshot)) == 0

    def test_a_snapshot_is_adopted_and_a_mapping_copied(self):
        snapshot = self.snapshot()
        assert Evaluator(snapshot).database is snapshot
        database = {"E": edges(8)}
        copied = Evaluator(database).database
        assert copied == database and copied is not database

    def test_a_plain_mapping_keeps_operands_per_evaluator(self):
        database = {"E": edges(8)}
        evaluator = Evaluator(database)
        operand = evaluator.evaluate_constant(self.TERM)
        assert evaluator.evaluate_constant(self.TERM) is operand
        assert Evaluator(database).evaluate_constant(self.TERM) is not operand
