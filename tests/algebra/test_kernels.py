"""Unit tests of the operator-at-a-time kernel planner and its cache."""

from __future__ import annotations

import pytest

from repro.algebra.builders import closure
from repro.algebra.conditions import decompose
from repro.algebra.fixpoint import run_fixpoint
from repro.algebra.kernels import (KernelProgramCache, KernelUnsupported,
                                   bind_program, compile_program,
                                   default_kernel_cache)
from repro.algebra.terms import (Antijoin, Filter, Fixpoint, Join, RelVar,
                                 Union)
from repro.data.columnar import ValueDictionary, row_mode
from repro.data.predicates import Compare, Eq, In
from repro.data.relation import Relation
from repro.errors import EvaluationError


def edges(pairs):
    return Relation.from_pairs(pairs, columns=("src", "trg"))


def closure_parts(database):
    """(var, variable_part, seed) of the canonical closure fixpoint."""
    fixpoint = closure(RelVar("E"), var="X")
    decomposition = decompose(fixpoint)
    seed = database[
        decomposition.constant_part.name] if isinstance(
            decomposition.constant_part, RelVar) else None
    return fixpoint.var, decomposition.variable_part, seed


def make_resolve(database):
    from repro.algebra.evaluate import Evaluator
    return Evaluator(database).evaluate_constant


def run_closure(database, limit, nonconvergence):
    """Run the closure of ``E`` through the driver's engine selection.

    Returns the run and the delta sizes the row step saw (empty when the
    kernels ran the loop).
    """
    from repro.algebra.evaluate import Evaluator
    fixpoint_var, variable_part, _ = closure_parts(database)
    evaluator = Evaluator(database)
    row_deltas = []

    def row_step(delta):
        row_deltas.append(len(delta))
        return evaluator.evaluate(variable_part, env={fixpoint_var: delta})

    run = run_fixpoint(
        KernelProgramCache(), fixpoint_var, variable_part, database["E"],
        ValueDictionary(), evaluator.evaluate_constant, row_step,
        limit, nonconvergence)
    return run, row_deltas


class TestCompileAndRun:
    def test_closure_matches_row_engine(self):
        database = {"E": edges([(1, 2), (2, 3), (3, 4), (2, 5)])}
        from repro.algebra.evaluate import evaluate
        term = closure(RelVar("E"), var="X")
        with row_mode():
            expected = evaluate(term, database)
        result, row_deltas = run_closure(database, 100, "did not converge")
        assert row_deltas == []
        assert result.relation == expected
        assert result.iterations >= 3
        assert result.index_builds == 1
        assert result.probes > 0

    def test_nonconvergence_raises_the_callers_message(self):
        database = {"E": edges([(1, 2), (2, 3), (3, 4)])}
        with pytest.raises(EvaluationError, match="my exact message"):
            run_closure(database, 1, "my exact message")

    def test_row_mode_returns_none(self):
        """The binder declines, so the driver runs the caller's row step."""
        database = {"E": edges([(1, 2), (2, 3)])}
        fixpoint_var, variable_part, _ = closure_parts(database)
        with row_mode():
            assert bind_program(
                KernelProgramCache(), fixpoint_var, variable_part,
                ("src", "trg"), ValueDictionary(),
                make_resolve(database)) is None
            result, row_deltas = run_closure(database, 10, "unused")
        assert row_deltas == [2, 1]
        assert result.relation == edges([(1, 2), (2, 3), (1, 3)])
        assert (result.index_builds, result.index_reuses, result.probes) \
            == (0, 0, 0)

    def test_filter_on_codes_matches_row_engine(self):
        from repro.algebra.evaluate import evaluate
        database = {"E": edges([(1, 2), (2, 3), (3, 4), (4, 2)])}
        inner = closure(RelVar("E"), var="X")
        for predicate in (Eq("src", 1), In("src", frozenset({1, 3})),
                          Compare("trg", "<=", 3), Compare("src", "!=", 2)):
            term = Filter(predicate, inner)
            with row_mode():
                expected = evaluate(term, database)
            assert evaluate(term, database) == expected


class TestPlannerRejections:
    def _compile(self, variable_part, schema=("src", "trg"),
                 database=None):
        database = database or {"E": edges([(1, 2)])}
        return compile_program("X", variable_part, schema,
                               make_resolve(database))

    def test_unknown_variable_shape_is_rejected(self):
        # A join of two recursive sides violates Fcond linearity.
        with pytest.raises(KernelUnsupported):
            self._compile(Join(RelVar("X"), RelVar("X")))

    def test_cartesian_join_is_rejected(self):
        database = {"E": edges([(1, 2)]),
                    "F": Relation.from_pairs([(7, 8)], columns=("a", "b"))}
        with pytest.raises(KernelUnsupported):
            self._compile(Join(RelVar("X"), RelVar("F")), database=database)

    def test_zero_width_schema_is_rejected(self):
        with pytest.raises(KernelUnsupported):
            compile_program("X", RelVar("X"), (),
                            make_resolve({"E": edges([(1, 2)])}))

    def test_recursion_dependent_fixpoint_is_rejected(self):
        # A nested fixpoint over X cannot be bound as a constant, and the
        # planner has no kernel for it.
        inner = Fixpoint("Y", Union(RelVar("X"), RelVar("Y")))
        with pytest.raises(KernelUnsupported):
            self._compile(Union(RelVar("X"), inner))


class TestProgramCache:
    def test_program_is_compiled_once_then_reused(self):
        database = {"E": edges([(1, 2), (2, 3)])}
        fixpoint_var, variable_part, _ = closure_parts(database)
        cache = KernelProgramCache()
        resolve = make_resolve(database)
        first = cache.program_for(fixpoint_var, variable_part,
                                  ("src", "trg"), resolve)
        second = cache.program_for(fixpoint_var, variable_part,
                                   ("src", "trg"), resolve)
        assert first is second
        assert len(cache) == 1

    def test_unsupported_shape_is_cached_as_unsupported(self):
        database = {"E": edges([(1, 2)])}
        cache = KernelProgramCache()
        term = Join(RelVar("X"), RelVar("X"))
        resolve = make_resolve(database)
        assert cache.program_for("X", term, ("src", "trg"), resolve) is None
        assert cache.program_for("X", term, ("src", "trg"), resolve) is None
        assert len(cache) == 1

    def test_default_cache_is_shared(self):
        assert default_kernel_cache() is default_kernel_cache()

    def test_schema_drift_recompiles_against_new_schema(self):
        """One shared cache, two databases with different C schemas."""
        variable_part = Union(RelVar("X"), RelVar("C"))
        first_db = {"C": edges([(1, 2), (2, 3)])}
        second_db = {"C": Relation.from_pairs([(1, 2), (2, 3)],
                                              columns=("a", "b"))}
        cache = KernelProgramCache()
        bound = bind_program(cache, "X", variable_part, ("src", "trg"),
                             ValueDictionary(), make_resolve(first_db))
        assert bound is not None
        # Same program key, but C now resolves to a different schema: the
        # bind must detect the drift and recompile rather than gather from
        # stale column positions.  The recompiled program cannot union the
        # mismatched schemas, so the kernel path declines and the row
        # engine owns the resulting schema error.
        rebound = bind_program(cache, "X", variable_part, ("src", "trg"),
                               ValueDictionary(), make_resolve(second_db))
        assert rebound is None


class TestStructuralKernels:
    def test_rename_permutations_inside_recursion(self):
        """Closure of the reversed edge relation: every kernel run agrees.

        The closure's variable part renames the recursive side's columns
        (``trg -> m`` etc.), so this exercises the permutation kernel with
        a non-trivial column order.
        """
        database = {"E": edges([(1, 2), (2, 3), (3, 1), (2, 4)])}
        from repro.algebra.builders import swap_src_trg
        from repro.algebra.evaluate import evaluate
        term = closure(swap_src_trg(RelVar("E")), var="X")
        with row_mode():
            expected = evaluate(term, database)
        assert evaluate(term, database) == expected

    def test_antijoin_against_constant_matches_row_engine(self):
        database = {"E": edges([(1, 2), (2, 3), (3, 4)]),
                    "Blocked": edges([(1, 3)])}
        from repro.algebra.evaluate import evaluate
        inner = closure(RelVar("E"), var="X")
        term = Antijoin(inner, RelVar("Blocked"))
        with row_mode():
            expected = evaluate(term, database)
        assert evaluate(term, database) == expected
