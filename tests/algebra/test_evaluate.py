"""Tests of the centralized evaluator, built around the paper's Example 2."""

from __future__ import annotations

import sys

import pytest

from repro.algebra import (EvaluationStats, Evaluator, Fixpoint, Literal,
                           RelVar, Union, closure, closure_from_seed, compose,
                           evaluate, naive_fixpoint)
from repro.algebra.kernels import seed_shape
from repro.data import Eq, Relation
from repro.data.columnar import row_mode
from repro.data.snapshot import DatabaseSnapshot
from repro.errors import (EvaluationError, FixpointConditionError,
                          SchemaError)


def paths_from_roots(database):
    """The fixpoint term of Example 2: mu(X = S U compose(X, E))."""
    return closure_from_seed(RelVar("S"), RelVar("E"), var="X")


class TestExample2:
    def test_reachable_pairs_from_roots(self, paper_database):
        term = paths_from_roots(paper_database)
        result = evaluate(term, paper_database)
        pairs = result.to_pairs("src", "trg")
        # Every reachable pair starts from a root (1 or 10).
        assert all(src in (1, 10) for src, _ in pairs)
        # Spot checks from the paper's step-by-step trace.
        assert (1, 2) in pairs and (1, 4) in pairs
        assert (1, 3) in pairs and (1, 5) in pairs
        assert (1, 6) in pairs
        assert (10, 12) in pairs and (10, 5) in pairs and (10, 6) in pairs

    def test_matches_naive_fixpoint(self, paper_database):
        term = paths_from_roots(paper_database)
        semi_naive = evaluate(term, paper_database)
        naive = naive_fixpoint(term, paper_database)
        assert semi_naive == naive

    def test_iteration_count_is_recorded(self, paper_database):
        term = paths_from_roots(paper_database)
        stats = EvaluationStats()
        evaluate(term, paper_database, stats=stats)
        assert stats.fixpoints_evaluated == 1
        assert stats.fixpoint_iterations >= 3


class TestOperators:
    def test_composition_of_start_and_edges(self, paper_database):
        term = compose(RelVar("S"), RelVar("E"))
        result = evaluate(term, paper_database)
        pairs = result.to_pairs("src", "trg")
        assert (1, 3) in pairs
        assert (1, 5) in pairs
        assert (10, 5) in pairs
        assert (10, 12) in pairs
        # Length-2 paths only: the original start edges are not included.
        assert (1, 2) not in pairs

    def test_union_and_filter(self, paper_database):
        term = Union(RelVar("S"), RelVar("E")).filter(Eq("src", 1))
        result = evaluate(term, paper_database)
        assert result.to_pairs("src", "trg") == {(1, 2), (1, 4)}

    def test_antijoin(self, paper_database):
        term = RelVar("E").antijoin(RelVar("S"))
        result = evaluate(term, paper_database)
        # Edges that are not start edges.
        expected = paper_database["E"].difference(paper_database["S"])
        assert result == expected

    def test_rename_and_antiproject(self, paper_database):
        term = RelVar("E").rename("trg", "destination").antiproject("destination")
        result = evaluate(term, paper_database)
        assert result.columns == ("src",)
        assert result.column_values("src") == {1, 2, 3, 4, 5, 10, 11, 12, 13}

    def test_unknown_relation_raises(self, paper_database):
        with pytest.raises(EvaluationError):
            evaluate(RelVar("missing"), paper_database)


class TestClosure:
    def test_left_and_right_closures_agree(self, paper_database):
        left = closure(RelVar("E"), direction="left-to-right")
        right = closure(RelVar("E"), direction="right-to-left")
        assert evaluate(left, paper_database) == evaluate(right, paper_database)

    def test_closure_contains_base_edges(self, paper_database):
        term = closure(RelVar("E"))
        result = evaluate(term, paper_database)
        assert paper_database["E"].rows <= result.rows

    def test_closure_is_transitive(self, paper_database):
        term = closure(RelVar("E"))
        pairs = evaluate(term, paper_database).to_pairs("src", "trg")
        for a, b in pairs:
            for c, d in pairs:
                if b == c:
                    assert (a, d) in pairs

    def test_closure_on_cycle_terminates(self):
        edges = Relation.from_pairs([(1, 2), (2, 3), (3, 1)], columns=("src", "trg"))
        term = closure(RelVar("E"))
        result = evaluate(term, {"E": edges})
        assert result.to_pairs("src", "trg") == {
            (a, b) for a in (1, 2, 3) for b in (1, 2, 3)
        }


class TestFixpointConditions:
    def test_non_linear_fixpoint_rejected(self, paper_database):
        non_linear = Fixpoint("X", Union(RelVar("E"), RelVar("X").join(RelVar("X"))))
        with pytest.raises(FixpointConditionError):
            evaluate(non_linear, paper_database)

    def test_non_positive_fixpoint_rejected(self, paper_database):
        non_positive = Fixpoint(
            "X", Union(RelVar("E"), RelVar("E").antijoin(RelVar("X"))))
        with pytest.raises(FixpointConditionError):
            evaluate(non_positive, paper_database)

    def test_fixpoint_without_constant_part_rejected(self, paper_database):
        no_constant = Fixpoint("X", compose(RelVar("X"), RelVar("E")))
        with pytest.raises(FixpointConditionError):
            evaluate(no_constant, paper_database)

    def test_schema_mismatch_in_variable_part_rejected(self, paper_database):
        bad = Fixpoint("X", Union(RelVar("S"), RelVar("X").rename("trg", "t2")))
        with pytest.raises(EvaluationError):
            evaluate(bad, paper_database)


class TestEvaluatorReuse:
    def test_evaluator_instance_is_reusable(self, paper_database):
        evaluator = Evaluator(paper_database)
        first = evaluator.evaluate(closure(RelVar("E")))
        second = evaluator.evaluate(closure(RelVar("S")))
        assert len(first) > len(second)
        assert evaluator.stats.fixpoints_evaluated == 2

    def test_seed_shapes_are_decided_once_per_snapshot(self, paper_database,
                                                       monkeypatch):
        """Every evaluator on one snapshot reuses the seed shape decided
        by the first; its result is unchanged."""
        decided = []

        def recording(*args):
            decided.append(seed_shape(*args))
            return decided[-1]

        # ``repro.algebra.evaluate`` the attribute is the function.
        monkeypatch.setattr(sys.modules["repro.algebra.evaluate"],
                            "seed_shape", recording)
        snapshot = DatabaseSnapshot.from_relations(paper_database)
        term = closure_from_seed(compose(RelVar("S"), RelVar("E")),
                                 RelVar("E"), var="X")
        with row_mode():
            expected = evaluate(term, paper_database)
        for _ in range(2):
            assert Evaluator(snapshot).evaluate(term) == expected
        assert len(decided) == 1 and decided[0] is not None

    def test_env_binding_overrides_database(self, paper_database):
        evaluator = Evaluator(paper_database)
        override = Relation.from_pairs([(7, 8)], columns=("src", "trg"))
        result = evaluator.evaluate(RelVar("E"), env={"E": override})
        assert result == override


class TestRenameChains:
    """``Evaluator`` applies a maximal chain of nested renames as one
    relabel of the child's value (``Relation.rename_chain``)."""

    def head(self, term, first, second):
        """What ``query/translate.py`` wraps an atom's answer in."""
        return (term.rename("src", "_n1").rename("trg", "_n0")
                .rename("_n1", first).rename("_n0", second))

    def test_head_renames_share_the_fixpoints_row_set(self, paper_database):
        inner = closure(RelVar("E"), var="X")
        evaluator = Evaluator(paper_database)
        fixpoint = evaluator.evaluate(inner)
        literal = Literal(fixpoint)
        relabelled = evaluator.evaluate(self.head(literal, "x", "y"))
        assert relabelled.columns == ("x", "y")
        assert relabelled.rows is fixpoint.rows

    def test_a_genuine_swap_moves_the_columns(self, paper_database):
        edges = paper_database["E"]
        swapped = evaluate(self.head(RelVar("E"), "y", "x"), paper_database)
        assert swapped.columns == ("x", "y")
        assert swapped.to_pairs("y", "x") == edges.to_pairs("src", "trg")
        assert swapped.rows == {(trg, src) for src, trg in edges.rows}

    def test_an_invalid_chain_raises_the_failing_steps_error(
            self, paper_database):
        edges = paper_database["E"]
        term = RelVar("E").rename("src", "a").rename("missing", "b") \
            .rename("a", "c")
        with pytest.raises(SchemaError) as raised:
            evaluate(term, paper_database)
        with pytest.raises(SchemaError) as expected:
            edges.rename("src", "a").rename("missing", "b")
        assert str(raised.value) == str(expected.value)
