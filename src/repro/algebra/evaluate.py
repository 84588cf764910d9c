"""Centralized (single-node) evaluation of mu-RA terms.

This is the reference evaluator: every other execution strategy (the
distributed plans, the per-worker local engine, the baselines) is tested
against it.  Fixpoints are evaluated with the semi-naive (differential)
method of Algorithm 1 of the paper::

    X = R
    new = R
    while new != empty:
        new = phi(new) \\ X
        X = X U new
    return X

which is correct for Fcond-satisfying terms thanks to Proposition 1
(``Psi(S) = Psi(empty) U union_x Psi({x})``).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from ..data.columnar import CodeRows, columnar_enabled, snapshot_dictionary
from ..data.relation import Relation
from ..data.snapshot import as_snapshot, operand_memo
from ..errors import EvaluationError
from .conditions import Decomposition, decompose
from .fixpoint import FixpointBind, run_fixpoint, run_seed
from .kernels import KernelProgramCache, SeedShape, bind_program, seed_shape
from .schema import infer_schema
from .terms import (AntiProject, Antijoin, Filter, Fixpoint, Join, Literal,
                    Rename, RelVar, Term, Union)
from .variables import free_variables, is_constant_in
from .visitors import transform_top_down, walk

#: Safety bound on fixpoint iterations; graph reachability converges in at
#: most |nodes| steps, so hitting this bound indicates a malformed term.
DEFAULT_MAX_ITERATIONS = 1_000_000

#: Snapshot ``derived()`` key of the seed shapes decided on it, and the
#: most it keeps (bound templates give one constant part per binding).
_SEED_SHAPES_KEY = "seed_shapes"
_MAX_SEED_SHAPES = 256
_UNDECIDED = object()


@dataclass
class EvaluationStats:
    """Counters filled in by the evaluator, used by tests and benchmarks."""

    fixpoint_iterations: int = 0
    fixpoints_evaluated: int = 0
    tuples_produced: int = 0
    per_fixpoint_iterations: list[int] = field(default_factory=list)
    #: Hash-index activity of a fixpoint step's joins/antijoins against
    #: its recursion-constant operands
    #: (:meth:`~repro.algebra.fixpoint.FixpointBind.index_events`): a
    #: build hashes the constant relation, a reuse probes a table built
    #: on an earlier iteration or execution.
    index_builds: int = 0
    index_reuses: int = 0
    #: Recursion-constant operands this evaluator had to compute itself
    #: (0 when the snapshot's operand memo served them all).
    operands_evaluated: int = 0

    def record_fixpoint(self, iterations: int, result_size: int) -> None:
        self.fixpoints_evaluated += 1
        self.fixpoint_iterations += iterations
        self.tuples_produced += result_size
        self.per_fixpoint_iterations.append(iterations)


class Evaluator:
    """Evaluate mu-RA terms against a database of named relations."""

    def __init__(self, database: Mapping[str, Relation],
                 stats: EvaluationStats | None = None,
                 kernel_cache: KernelProgramCache | None = None):
        # The dictionary, operand memo and seed shapes ride on the
        # snapshot, shared by every evaluator that reads it.
        self.database = as_snapshot(database)
        #: The value dictionary every bind and decode of this evaluator
        #: shares: the snapshot's.
        self.dictionary = snapshot_dictionary(self.database)
        self._operand_memo = operand_memo(self.database)
        self._kernel_cache = kernel_cache
        self._seed_shapes: dict[Term, SeedShape | None] = \
            self.database.derived(_SEED_SHAPES_KEY, lambda _: {})
        self.stats = stats if stats is not None else EvaluationStats()
        # Recursion-constant subterms evaluate to the same relation on
        # every fixpoint iteration (the database is a snapshot); caching
        # them keys the join-side hash indexes to one relation object —
        # even if the snapshot's memo evicts the operand mid-execution.
        self._constant_cache: dict[Term, Relation] = {}

    def evaluate(self, term: Term, env: Mapping[str, Relation] | None = None) -> Relation:
        """Evaluate ``term``; ``env`` binds recursive variables to relations."""
        return self._eval(term, dict(env or {}))

    # -- Dispatch -------------------------------------------------------------

    def _eval(self, term: Term, env: dict[str, Relation]) -> Relation:
        if isinstance(term, RelVar):
            return self._eval_variable(term, env)
        if isinstance(term, Literal):
            return term.relation
        if isinstance(term, Union):
            return self._eval(term.left, env).union(self._eval(term.right, env))
        if isinstance(term, Join):
            return self._eval(term.left, env).natural_join(
                self._eval(term.right, env))
        if isinstance(term, Antijoin):
            return self._eval(term.left, env).antijoin(
                self._eval(term.right, env))
        if isinstance(term, Filter):
            return self._eval(term.child, env).filter(term.predicate)
        if isinstance(term, Rename):
            # A maximal chain of renames is one relabel of its child.
            steps = []
            while isinstance(term, Rename):
                steps.append((term.old, term.new))
                term = term.child
            return self._eval(term, env).rename_chain(reversed(steps))
        if isinstance(term, AntiProject):
            return self._eval(term.child, env).antiproject(term.columns)
        if isinstance(term, Fixpoint):
            return self._eval_fixpoint(term, env)
        raise EvaluationError(f"cannot evaluate term of type {type(term).__name__}")

    def _eval_variable(self, term: RelVar, env: dict[str, Relation]) -> Relation:
        if term.name in env:
            return env[term.name]
        if term.name in self.database:
            return self.database[term.name]
        raise EvaluationError(
            f"unknown relation {term.name!r}; known relations: "
            f"{sorted(self.database)[:10]}..."
        )

    # -- Recursion-constant operands ------------------------------------------

    def evaluate_constant(self, term: Term) -> Relation:
        """Evaluate a recursion-constant term, memoized.

        Sound because the evaluator's database is a snapshot: a term with no
        free recursive variables has the same value on every call.  The
        distributed plans use this so the relation they broadcast (and
        index) on iteration *n* is the same object as on iteration 1.

        The relation is also kept in the snapshot's :class:`OperandMemo`,
        so later executions on the same version get the same object —
        with the columnar encoding and the hash indexes already memoized
        on it.
        Operands containing a fixpoint are not admitted there: the memo
        stays a function of base relations, never a second result cache.
        """
        cached = self._constant_cache.get(term)
        if cached is None:
            cached = self._resolve_operand(term)
            self._constant_cache[term] = cached
        return cached

    def _resolve_operand(self, term: Term) -> Relation:
        if isinstance(term, (RelVar, Literal)):
            # Already a stable object on the snapshot (or in the term).
            return self._eval(term, {})
        memo = self._operand_memo
        relation = memo.lookup(term)
        if relation is None:
            self.stats.operands_evaluated += 1
            relation = memo.offer(
                term, self._eval(term, {}), admissible=not any(
                    isinstance(node, Fixpoint) for node in walk(term)))
        return relation

    # -- Fixpoint -------------------------------------------------------------

    def _eval_fixpoint(self, term: Fixpoint, env: dict[str, Relation]) -> Relation:
        decomposition = decompose(term)
        constant_part = decomposition.constant_part
        # A seed program reads no outer recursive variable.
        shape = None
        if decomposition.variable_part is not None and columnar_enabled() \
                and (not env or free_variables(constant_part).isdisjoint(env)):
            shape = self._seed_shape(constant_part)
        # Recursion-constant subterms that mention *outer* fixpoint
        # variables must resolve under the enclosing environment — and
        # must not be memoized, their value changes per outer iteration.
        # Pure constants go through the term-keyed cache shared with the
        # distributed plans.
        if env:
            def resolve(t: Term) -> Relation:
                return self._eval(t, env)
        else:
            resolve = self.evaluate_constant
        seed, bind = self.bind_fixpoint(term.var, decomposition, shape,
                                        resolve, env)
        if bind is None:
            self.stats.record_fixpoint(iterations=0, result_size=len(seed))
            return seed
        run = run_fixpoint(
            bind, seed, self.dictionary, DEFAULT_MAX_ITERATIONS,
            f"fixpoint on {term.var!r} did not converge after "
            f"{DEFAULT_MAX_ITERATIONS} iterations")
        self.stats.index_builds += run.index_builds
        self.stats.index_reuses += run.index_reuses
        self.stats.record_fixpoint(iterations=run.iterations,
                                   result_size=len(run.relation))
        return run.relation

    def _seed_shape(self, constant_part: Term) -> SeedShape | None:
        """:func:`seed_shape` of ``constant_part``, decided once per
        snapshot."""
        shapes = self._seed_shapes
        shape = shapes.get(constant_part, _UNDECIDED)
        if shape is _UNDECIDED:
            if len(shapes) >= _MAX_SEED_SHAPES:
                shapes.clear()
            shape = shapes[constant_part] = seed_shape(
                constant_part, self.database.schemas)
        return shape

    def bind_fixpoint(self, var: str, decomposition: Decomposition,
                      shape: SeedShape | None,
                      resolve: Callable[[Term], Relation],
                      env: Mapping[str, Relation] | None = None,
                      ) -> tuple[Relation | CodeRows, FixpointBind | None]:
        """The seed of ``mu(var = R U phi)``, and its step bound once.

        When the kernels run and the seed has ``shape``, the step is
        bound first and the seed computed on the kernels after it, as
        code tuples: an index the two share is the step's, built (and
        accounted) as the row engine builds it.  Otherwise the seed is
        evaluated on rows, then the step bound to its schema.  Either
        way ``resolve`` serves the step's operands only — the seed's
        come from :meth:`evaluate_constant` — and ``env`` binds the
        outer recursive variables.  The bind is None for a fixpoint
        without a variable part: the seed is then the fixpoint.
        """
        env = dict(env or {})
        constant_part = decomposition.constant_part
        variable_part = decomposition.variable_part
        seed = bind = None
        if shape is not None and variable_part is not None \
                and columnar_enabled():
            bind = self.bind_step(var, variable_part, shape.columns,
                                  resolve, env)
            if bind.kernel:
                seed = run_seed(self._kernel_cache, shape, constant_part,
                                self.database[shape.leaf], self.dictionary,
                                self.evaluate_constant)
        if seed is None:
            seed = self._eval(constant_part, env)
        if bind is None and variable_part is not None:
            bind = self.bind_step(var, variable_part, seed.columns, resolve,
                                  env)
        return seed, bind

    def bind_step(self, var: str, variable_part: Term,
                  columns: tuple[str, ...],
                  resolve: Callable[[Term], Relation],
                  env: Mapping[str, Relation] | None = None) -> FixpointBind:
        """Bind ``variable_part`` — over a seed of ``columns`` — once.

        Compile (into this evaluator's program cache) and bind the
        kernels; under ``row_mode()``, and for shapes the kernels refuse,
        freeze every recursion-constant operand into a literal instead
        and build the index each join or antijoin will probe on it.
        Either way ``resolve`` evaluates each operand once, here, so
        every loop that runs the bind only reuses.
        """
        kernel = bind_program(self._kernel_cache, var, variable_part,
                              columns, self.dictionary, resolve)
        if kernel:
            return FixpointBind(var, kernel, None, kernel.broadcast_sizes,
                                kernel.indexed_ops, kernel.index_builds)
        def freeze(node: Term) -> Term:
            if is_constant_in(node, var):
                return Literal(resolve(node))
            return node

        # Fcond: a nested fixpoint is closed in ``var``, so frozen whole.
        row_term = transform_top_down(variable_part, freeze)
        broadcast_sizes: list[int] = []
        indexed_ops = builds = 0
        for node in walk(row_term):
            if not isinstance(node, (Join, Antijoin)):
                continue
            # Fcond linearity: exactly one side is a (frozen) constant.
            frozen, recursive = ((node.left, node.right)
                                 if isinstance(node.left, Literal)
                                 else (node.right, node.left))
            relation = frozen.relation
            recursive_columns = infer_schema(recursive, {}, {var: columns})
            common = tuple(c for c in recursive_columns
                           if c in relation.columns)
            # As on the kernels: an antijoin sharing no column reads only
            # whether its side is empty, so it ships nothing to probe.
            if common or isinstance(node, Join):
                broadcast_sizes.append(len(relation))
            if common:
                indexed_ops += 1
                builds += not relation.has_index(common)
                relation.index_on(common)
        outer = dict(env or {})

        def row_step(delta: Relation) -> Relation:
            return self._eval(row_term, {**outer, var: delta})

        return FixpointBind(var, None, row_step, tuple(broadcast_sizes),
                            indexed_ops, builds)


def evaluate(term: Term, database: Mapping[str, Relation],
             env: Mapping[str, Relation] | None = None,
             stats: EvaluationStats | None = None) -> Relation:
    """Convenience wrapper: evaluate one term against a database."""
    evaluator = Evaluator(database, stats=stats)
    return evaluator.evaluate(term, env=env)


def naive_fixpoint(term: Fixpoint, database: Mapping[str, Relation],
                   env: Mapping[str, Relation] | None = None) -> Relation:
    """Evaluate a fixpoint with the *naive* method (re-applying phi to the
    whole accumulated result each round).

    Exists for differential testing against the semi-naive evaluator and as
    the reference implementation of the fixpoint semantics
    ``mu(X = Psi) = Psi^inf(empty)``.
    """
    evaluator = Evaluator(database)
    decomposition = decompose(term)
    env = dict(env or {})
    current = Relation.empty(
        evaluator.evaluate(decomposition.constant_part, env=env).columns)
    for _ in range(DEFAULT_MAX_ITERATIONS):
        inner_env = dict(env)
        inner_env[term.var] = current
        next_value = evaluator.evaluate(term.body, env=inner_env)
        if next_value == current:
            return current
        current = next_value
    raise EvaluationError(
        f"naive fixpoint on {term.var!r} did not converge after "
        f"{DEFAULT_MAX_ITERATIONS} iterations"
    )
