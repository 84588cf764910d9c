"""Unit tests of the fused fixpoint-step planner and its program cache."""

from __future__ import annotations

import pytest

from contextlib import nullcontext

import repro.algebra.fixpoint as fixpoint_module
from repro.algebra.builders import closure, compose
from repro.algebra.conditions import decompose
from repro.algebra.evaluate import Evaluator
from repro.algebra.fixpoint import GROUPED_MIN_ROWS_PER_KEY, run_fixpoint
from repro.algebra.kernels import (KernelProgramCache, KernelUnsupported,
                                   bind_program, compile_program,
                                   default_kernel_cache)
from repro.algebra.schema import schemas_of_database
from repro.algebra.stability import stable_columns
from repro.algebra.terms import (AntiProject, Antijoin, Filter, Fixpoint,
                                 Join, Rename, RelVar, Union)
from repro.data.columnar import (GroupedDeltaAccumulator, ValueDictionary,
                                 row_mode, snapshot_dictionary)
from repro.data.predicates import (And, ColumnEq, Compare, Eq, In, Not, Or,
                                   TruePredicate)
from repro.data.relation import Relation
from repro.data.snapshot import DatabaseSnapshot
from repro.errors import EvaluationError
from repro.workloads.nonregular import (same_generation_facts_term,
                                        same_generation_term)


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
    """Run the closure of ``E`` through the one bind and the driver.

    Returns the run and the delta sizes the row step saw (empty when the
    kernels ran the loop).
    """
    from repro.algebra.evaluate import Evaluator
    fixpoint_var, variable_part, _ = closure_parts(database)
    evaluator = Evaluator(database, kernel_cache=KernelProgramCache())
    bind = evaluator.bind_step(fixpoint_var, variable_part, ("src", "trg"),
                               evaluator.evaluate_constant)
    row_deltas = []
    if bind.row_step is not None:
        row_step = bind.row_step

        def recording(delta):
            row_deltas.append(len(delta))
            return row_step(delta)

        bind.row_step = recording
    run = run_fixpoint(bind, database["E"], evaluator.dictionary, limit,
                       nonconvergence)
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
        # The row bind built the one index; the second iteration reused
        # it.  Only the kernels count probe rows.
        assert (result.index_builds, result.index_reuses, result.probes) \
            == (1, 1, 0)

    def test_filter_on_codes_matches_row_engine(self):
        """A predicate compiled over a dictionary's codes accepts exactly
        the rows it accepts compiled over values — whether it is checked
        directly, above a fixpoint (the row engine) or inside a
        fixpoint's step (the kernels)."""
        from repro.algebra.evaluate import evaluate
        pairs = [(1, 2), (2, 3), (3, 4), (4, 2), (3, 3)]
        database = {"E": edges(pairs)}
        # Interned against value order, so a comparison of raw codes
        # would disagree with one of values.
        dictionary = ValueDictionary()
        dictionary.encode_column([4, 3, 2, 1])
        coded = {tuple(map(dictionary.encode, row)): row for row in pairs}
        absent = Eq("src", 99)
        leaves = [Eq("src", 1), absent, In("src", {1, 3, 99}),
                  ColumnEq("src", "trg"), Compare("src", "==", 99),
                  *(Compare("trg", op, 3)
                    for op in ("==", "!=", "<", "<=", ">", ">="))]
        predicates = [*leaves, And(Eq("src", 3), Compare("trg", ">", 2)),
                      Or(absent, ColumnEq("src", "trg")),
                      Not(In("src", {1, 3})), TruePredicate(),
                      And(TruePredicate(), Eq("src", 1)),
                      Or(TruePredicate(), absent), Not(TruePredicate())]
        inner = closure(RelVar("E"), var="X")
        for predicate in predicates:
            on_values = predicate.compile(("src", "trg"))
            on_codes = predicate.compile(("src", "trg"), dictionary)
            assert (on_values is None) == (on_codes is None), predicate
            expected = {row for row in pairs
                        if on_values is None or on_values(row)}
            assert {coded[code] for code in coded
                    if on_codes is None or on_codes(code)} == expected, \
                predicate
            for term in (Filter(predicate, inner), Fixpoint("X", Union(
                    RelVar("E"),
                    Filter(predicate, compose(RelVar("X"), RelVar("E")))))):
                with row_mode():
                    expected = evaluate(term, database)
                assert evaluate(term, database) == expected, predicate


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


# -- Every shape the planner accepts ------------------------------------------

SHAPES_DATABASE = {
    "E": edges([(1, 2), (2, 3), (3, 4), (2, 5), (5, 1), (4, 6), (6, 7)]),
    # Five layers of three nodes, each node linked to two of the next
    # layer: two rows per source and two per target.
    "Layers": edges([(3 * layer + j, 3 * (layer + 1) + (j + d) % 3)
                     for layer in range(4) for j in range(3)
                     for d in (0, 1)]),
    "F": edges([(1, 3), (3, 5), (5, 7), (7, 2), (2, 8)]),
    "Blocked": edges([(1, 4), (2, 7)]),
    "Allowed": Relation(("trg",), [(2,), (3,), (4,), (5,), (6,)]),
    "Hop": Relation.from_dicts(
        [{"m": m, "src": s, "trg": t} for m, s, t in [
            (2, 8, 9), (3, 8, 2), (9, 1, 5), (5, 9, 9), (7, 7, 3)]]),
    "Nobody": Relation.empty(("a", "b")),
    "Somebody": Relation(("a", "b"), [(1, 2)]),
    "edge": edges([(1, 10), (2, 10), (3, 11), (4, 11), (10, 20), (11, 20),
                   (5, 12), (12, 21), (20, 30), (21, 30)]),
    "facts": Relation.from_dicts(
        [{"src": s, "pred": p, "trg": t} for s, p, t in [
            (1, "p", 10), (2, "p", 10), (3, "p", 11), (10, "p", 20),
            (11, "p", 20), (4, "q", 10), (5, "q", 10), (10, "q", 21),
            (6, "q", 12), (12, "q", 21)]]),
}

X = RelVar("X")
E = RelVar("E")


def recursion(step, seed=E):
    return Fixpoint("X", Union(seed, step))


#: name -> (fixpoint, (iterations, rows, index_builds, index_reuses,
#: probes)).  The counters are those of the operator-at-a-time column
#: kernels this planner replaced, captured at the commit before: fusing
#: the step may not change what it is seen to do.
SHAPES = {
    # The four hand-written layouts of the fused binary join: where the
    # key sits in the frontier tuple x where the payload lands in the
    # output.
    "append: key last, payload last": (
        closure(E, var="X"), (6, 27, 1, 5, 27)),
    "prepend: key first, payload first": (
        closure(E, "right-to-left", var="X"), (6, 27, 1, 5, 27)),
    # The same two, on a seed with enough rows per stable key to group.
    "append, seed above the grouping crossover": (
        closure(RelVar("Layers"), var="X"), (4, 78, 1, 3, 78)),
    "prepend, seed above the grouping crossover": (
        closure(RelVar("Layers"), "right-to-left", var="X"),
        (4, 78, 1, 3, 78)),
    "key last, payload first": (
        recursion(Join(X, E.rename("trg", "a").rename("src", "trg"))
                  .antiproject("trg").rename("src", "trg")
                  .rename("a", "src")), (7, 16, 1, 6, 16)),
    "key first, payload last": (
        recursion(Join(X, E.rename("trg", "b")).antiproject("src")
                  .rename("trg", "src").rename("b", "trg")),
        (9, 33, 1, 8, 33)),
    # Merged closures (Yago Q8): both directions in one variable part.
    "union of two joins": (
        recursion(Union(compose(E, X), compose(X, RelVar("F")))),
        (5, 36, 2, 8, 72)),
    "nested join": (same_generation_term("edge"), (3, 38, 2, 4, 59)),
    "three columns, two-column key": (
        same_generation_facts_term("facts"), (2, 26, 2, 2, 38)),
    "filter above and below a join": (
        recursion(Filter(Compare("trg", "!=", 4), compose(
            Filter(Compare("src", "<=", 3), X), E))), (3, 14, 1, 2, 11)),
    "antijoin above a join": (
        recursion(Antijoin(compose(X, E), RelVar("Blocked"))),
        (6, 23, 2, 10, 23)),
    "semijoin: nothing kept from the constant side": (
        recursion(Join(compose(X, E), RelVar("Allowed"))),
        (5, 19, 2, 8, 39)),
    # The filter needs the column the anti-project drops, so the join
    # emits it and a final projection removes it.
    "anti-project of a filtered column": (
        recursion(AntiProject(("m",), Filter(Compare("m", "!=", 5), Join(
            Rename("trg", "m", X), Rename("src", "m", E))))),
        (6, 24, 1, 5, 24)),
    "unary frontier": (
        Fixpoint("X", Union(
            Filter(Eq("src", 1), E).antiproject("src"),
            Join(Rename("trg", "m", X), Rename("src", "m", E))
            .antiproject("m"))), (5, 7, 1, 4, 7)),
    "two-column payload": (
        recursion(Join(X.antiproject("src").rename("trg", "m"),
                       RelVar("Hop")).antiproject("m")), (3, 12, 1, 2, 12)),
    "antijoin sharing no column, right side empty": (
        recursion(Antijoin(compose(X, E), RelVar("Nobody"))),
        (6, 27, 1, 5, 27)),
    "antijoin sharing no column, right side not": (
        recursion(Antijoin(compose(X, E), RelVar("Somebody"))),
        (1, 7, 1, 0, 7)),
    "filter on the always-true predicate": (
        recursion(Filter(TruePredicate(), compose(X, E))),
        (6, 27, 1, 5, 27)),
    "join keeping its key": (
        recursion(Join(X, RelVar("Allowed")).rename("trg", "m")
                  .join(E.rename("src", "m")).antiproject("m")),
        (5, 20, 2, 8, 32)),
}


def bind_shape(fixpoint, database, engine="columnar"):
    """Bind ``fixpoint``'s step with a private program cache and
    evaluator; returns the bind, its seed and the evaluator's dictionary
    (a snapshot supplies its own)."""
    evaluator = Evaluator(database, kernel_cache=KernelProgramCache())
    decomposition = decompose(fixpoint)
    seed = evaluator.evaluate(decomposition.constant_part)
    with row_mode() if engine == "row" else nullcontext():
        bind = evaluator.bind_step(fixpoint.var, decomposition.variable_part,
                                   seed.columns, evaluator.evaluate_constant)
    return bind, seed, evaluator.dictionary


def drive(fixpoint, database, engine="columnar"):
    """Bind ``fixpoint``'s step, then run it through ``run_fixpoint``."""
    bind, seed, dictionary = bind_shape(fixpoint, database, engine)
    with row_mode() if engine == "row" else nullcontext():
        return run_fixpoint(bind, seed, dictionary, 100, "did not converge")


def fresh_shapes_database():
    """A copy of :data:`SHAPES_DATABASE` with relations of its own: a
    relation shared across runs keeps the row indexes memoized on it."""
    return {name: Relation(relation.columns, relation.rows)
            for name, relation in SHAPES_DATABASE.items()}


class TestEveryAcceptedShape:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_equals_the_row_engine_and_the_column_kernels_counters(self,
                                                                   name):
        fixpoint, counters = SHAPES[name]
        columnar = drive(fixpoint, fresh_shapes_database())
        row = drive(fixpoint, fresh_shapes_database(), engine="row")
        assert columnar.relation == row.relation
        # One accounting rule on either engine.
        assert (row.iterations, len(row.relation), row.index_builds,
                row.index_reuses) == counters[:4]
        assert (columnar.iterations, len(columnar.relation),
                columnar.index_builds, columnar.index_reuses,
                columnar.probes) == (row.iterations, *counters[1:]) \
            == counters
        # A broadcast per join, and per antijoin that probes its side.
        broadcasts = [
            sorted(bind_shape(fixpoint, fresh_shapes_database(),
                              engine)[0].broadcast_sizes)
            for engine in ("columnar", "row")]
        assert broadcasts[0] == broadcasts[1]

    def test_a_constant_under_a_union_is_returned_as_it_is_bound(self):
        """``decompose`` moves such a branch to the constant part, so
        only a direct bind reaches it."""
        dictionary = ValueDictionary()
        database = {"C": edges([(1, 2), (2, 3)])}
        swapped = Rename("m", "src", Rename("src", "trg", Rename(
            "trg", "m", RelVar("C"))))
        bound = bind_program(
            KernelProgramCache(), "X", Union(RelVar("X"), swapped),
            ("src", "trg"), dictionary, make_resolve(database))
        code = dictionary.encode
        frontier = {(code(7), code(8))}
        assert bound.step(frontier) == {
            (code(7), code(8)), (code(2), code(1)), (code(3), code(2))}
        assert frontier == {(code(7), code(8))}


#: The shapes whose bound step also runs grouped, and the frontier
#: position it is grouped on.  The filter and the antijoin bind to the
#: join below them as they are (an always-true predicate, an empty right
#: side sharing no column), so their step is that join's.
STABLE_POSITIONS = {
    "append: key last, payload last": 0,
    "prepend: key first, payload first": 1,
    "append, seed above the grouping crossover": 0,
    "prepend, seed above the grouping crossover": 1,
    "filter on the always-true predicate": 0,
    "antijoin sharing no column, right side empty": 0,
}


class TestGroupedForm:
    """A closure step that carries its stable column through unchanged
    also runs on the frontier grouped by that column; which form runs
    changes nothing the loop is seen to do."""

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_the_grouped_position_is_a_stable_column(self, name):
        fixpoint, _ = SHAPES[name]
        decomposition = decompose(fixpoint)
        seed = Evaluator(SHAPES_DATABASE).evaluate(
            decomposition.constant_part)
        bound = bind_program(KernelProgramCache(), fixpoint.var,
                             decomposition.variable_part, seed.columns,
                             ValueDictionary(), make_resolve(SHAPES_DATABASE))
        assert bound.stable_position == STABLE_POSITIONS.get(name)
        assert (bound.grouped_step is None) == (bound.stable_position is None)
        if bound.stable_position is not None:
            assert seed.columns[bound.stable_position] in stable_columns(
                fixpoint, schemas_of_database(SHAPES_DATABASE))

    @pytest.mark.parametrize("name,grouped", [
        ("append: key last, payload last", False),
        ("prepend: key first, payload first", False),
        ("append, seed above the grouping crossover", True),
        ("prepend, seed above the grouping crossover", True)])
    def test_the_seed_decides_and_both_forms_are_seen_alike(
            self, name, grouped, monkeypatch):
        fixpoint, counters = SHAPES[name]
        built = []

        class Spy(GroupedDeltaAccumulator):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(fixpoint_module, "GroupedDeltaAccumulator", Spy)
        runs = {}
        # The module constant, then every seed grouped, then none.
        for threshold in (GROUPED_MIN_ROWS_PER_KEY, 0, 10 ** 9):
            built.clear()
            monkeypatch.setattr(fixpoint_module, "GROUPED_MIN_ROWS_PER_KEY",
                                threshold)
            run = drive(fixpoint, SHAPES_DATABASE)
            runs[threshold] = bool(built), run.relation, (
                run.iterations, len(run.relation), run.index_builds,
                run.index_reuses, run.probes)
        assert [form for form, _, _ in runs.values()] == [grouped, True, False]
        assert {relation for _, relation, _ in runs.values()} \
            == {drive(fixpoint, SHAPES_DATABASE, engine="row").relation}
        assert {seen for _, _, seen in runs.values()} == {counters}


class TestPayloadIndexLifetime:
    def test_second_bind_on_a_snapshot_reuses_the_payload_index(self):
        """The index lives on the operand's memoized encoding: the first
        execution on a version builds it, every later bind — another
        program cache, another evaluator — finds it."""
        snapshot = DatabaseSnapshot({"E": SHAPES_DATABASE["E"]})
        fixpoint = closure(E, var="X")
        first = drive(fixpoint, snapshot)
        second = drive(fixpoint, snapshot)
        assert first.relation == second.relation
        assert (first.index_builds, first.index_reuses) == (1, 5)
        assert (second.index_builds, second.index_reuses) == (0, 6)
        # compose(X, E) joins rho[trg->m](X) with rho[src->m](E): the
        # operand, kept (encoded and indexed) by the snapshot's memo.
        operand = decompose(fixpoint).variable_part.child.right
        encoded = Evaluator(snapshot).evaluate_constant(operand).columnar(
            snapshot_dictionary(snapshot))
        assert encoded.has_index((0,), (1,)) and not encoded.has_index((0,))
