"""Operator-at-a-time execution kernels over the columnar layout.

The generic evaluators interpret the variable part of a fixpoint tuple at
a time: every iteration re-dispatches on the term tree and pays a Python
tuple comprehension per row in each join, rename and projection.  This
module compiles the variable part **once per physical plan** into a chain
of columnar kernels, so the semi-naive driver
(:mod:`repro.algebra.fixpoint`) iterates on
:class:`~repro.data.columnar.ColumnarBatch` columns instead:

* a small **kernel planner** (:func:`compile_program`) walks the term a
  single time, binds column positions and key layouts up front, and
  rejects anything it cannot prove it runs identically to the row engine
  (the caller then falls back — the row engine stays the semantics
  reference);
* **hash joins / antijoins** probe a code -> row-positions index memoized
  on the constant side's :class:`~repro.data.columnar.ColumnarRelation`,
  then gather output columns with ``array('q', map(col.__getitem__,
  idx))`` — C-speed, no per-row tuple building;
* **rename / anti-project** are pure column-list permutations: zero
  per-row work;
* **equality filters** compare dictionary codes; only non-equality
  comparisons decode (codes do not preserve value order);
* **union** concatenates columns; duplicate elimination happens once per
  iteration in the packed-key delta accumulator, which is where set
  semantics are restored (intermediate duplicates cannot change a
  fixpoint's result, only the final membership does).

Compiled programs are cached in a :class:`KernelProgramCache` — one hangs
off every :class:`~repro.service.plan_cache.CachedPlan` (the
``kernel_program`` slot), and a process-wide default serves the layers
that execute without a plan cache (worker-local loops, ad-hoc
evaluation).  Programs hold schemas and positions only; every bind asks
its ``resolve`` callback for the constant relations again, so a cached
program can never serve stale data.  What a bind then *costs* is the
resolver's business: on a snapshot the evaluator answers from the
snapshot's operand memo, and the relation it hands back already carries
its encoding and key indexes after the first execution on that version.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable
from dataclasses import dataclass

from ..data.columnar import ColumnarBatch, ValueDictionary, columnar_enabled
from ..data.predicates import (And, ColumnEq, Compare, Eq, In, Not, Or,
                               Predicate, TruePredicate, _COMPARATORS)
from ..data.relation import Relation
from ..obs.metrics import get_registry
from .terms import (AntiProject, Antijoin, Filter, Join, Rename, RelVar,
                    Term, Union)
from .variables import is_constant_in

__all__ = [
    "BoundKernel", "KernelProgram", "KernelProgramCache", "bind_program",
    "compile_program", "default_kernel_cache",
]


class KernelUnsupported(Exception):
    """The planner cannot compile this shape; the row engine must run."""


class _SchemaDrift(Exception):
    """A constant resolved to a different schema than at compile time.

    Happens when a shared program cache sees the same term against a
    database with different relation schemas (e.g. two graphs).  The
    caller recompiles against the current schemas.
    """


class _BindContext:
    """Mutable state threaded through one bind of a program."""

    __slots__ = ("dictionary", "resolve", "index_builds", "index_reuses",
                 "indexed_ops", "broadcasts", "probe_counter")

    def __init__(self, dictionary: ValueDictionary,
                 resolve: Callable[[Term], Relation]):
        self.dictionary = dictionary
        self.resolve = resolve
        self.index_builds = 0
        self.index_reuses = 0
        self.indexed_ops = 0
        self.broadcasts: list[int] = []
        #: One-cell mutable counter shared with the join step closures:
        #: each indexed join adds its input size per iteration, matching
        #: the row engine's one-probe-per-probe-row accounting at the cost
        #: of a single ``len()`` per operator call.
        self.probe_counter: list[int] = [0]

    def constant(self, term: Term, schema: tuple[str, ...]):
        """Resolve and encode a constant operand, verifying its schema."""
        relation = self.resolve(term)
        if relation.columns != schema:
            raise _SchemaDrift(
                f"constant schema drifted from {schema} to {relation.columns}")
        return relation, relation.columnar(self.dictionary)


@dataclass
class BoundKernel:
    """A program bound to one execution's constants and dictionary."""

    step: Callable[[ColumnarBatch], ColumnarBatch]
    out_schema: tuple[str, ...]
    index_builds: int
    index_reuses: int
    indexed_ops: int
    probe_counter: list[int]
    #: Sizes of the constant relations bound into join/antijoin kernels;
    #: the Pgld driver records one broadcast per entry per iteration to
    #: keep its communication accounting identical to the row path.
    broadcast_sizes: tuple[int, ...]


class KernelProgram:
    """The compiled (schema-level) kernel chain of one variable part.

    Holds column positions and key layouts only — binding resolves the
    constant operands, encodes them (memoized on the relation) and builds
    or reuses their key indexes (memoized on the encoding).
    """

    __slots__ = ("out_schema", "_bind")

    def __init__(self, out_schema: tuple[str, ...],
                 bind: Callable[[_BindContext],
                                Callable[[ColumnarBatch], ColumnarBatch]]):
        self.out_schema = out_schema
        self._bind = bind

    def bind(self, dictionary: ValueDictionary,
             resolve: Callable[[Term], Relation]) -> BoundKernel:
        ctx = _BindContext(dictionary, resolve)
        step = self._bind(ctx)
        return BoundKernel(step=step, out_schema=self.out_schema,
                           index_builds=ctx.index_builds,
                           index_reuses=ctx.index_reuses,
                           indexed_ops=ctx.indexed_ops,
                           probe_counter=ctx.probe_counter,
                           broadcast_sizes=tuple(ctx.broadcasts))


# -- The kernel planner ------------------------------------------------------


def compile_program(var: str, variable_part: Term,
                    input_schema: tuple[str, ...],
                    resolve: Callable[[Term], Relation]) -> KernelProgram:
    """Compile the variable part of ``mu(var = R U phi)`` into kernels.

    ``input_schema`` is the fixpoint's (seed) schema — the schema every
    delta batch carries.  ``resolve`` evaluates recursion-constant
    subterms; it is only consulted for their *schemas* here (positions
    must be bound up front), every bind asks it for the relations again.
    Raises :class:`KernelUnsupported` for shapes the kernels do not cover.
    """
    if not input_schema:
        raise KernelUnsupported("zero-width fixpoint schema")
    out_schema, bind = _compile(variable_part, var, input_schema, resolve)
    return KernelProgram(out_schema, bind)


def _compile(term: Term, var: str, input_schema: tuple[str, ...],
             resolve: Callable[[Term], Relation]):
    """Return ``(out_schema, bind)`` for one node of the variable part."""
    if isinstance(term, RelVar) and term.name == var:
        def bind_input(ctx):
            return lambda batch: batch
        return input_schema, bind_input
    if is_constant_in(term, var):
        return _compile_constant(term, resolve)
    if isinstance(term, Join):
        return _compile_join(term, var, input_schema, resolve)
    if isinstance(term, Antijoin):
        return _compile_antijoin(term, var, input_schema, resolve)
    if isinstance(term, Filter):
        return _compile_filter(term, var, input_schema, resolve)
    if isinstance(term, Rename):
        return _compile_rename(term, var, input_schema, resolve)
    if isinstance(term, AntiProject):
        return _compile_antiproject(term, var, input_schema, resolve)
    if isinstance(term, Union):
        return _compile_union(term, var, input_schema, resolve)
    # Non-constant nested fixpoints (mutual recursion) and unknown node
    # types: the row engine owns the error reporting.
    raise KernelUnsupported(f"unsupported node {type(term).__name__}")


def _compile_constant(term: Term, resolve):
    schema = resolve(term).columns
    if not schema:
        raise KernelUnsupported("zero-width constant operand")

    def bind(ctx):
        _, encoded = ctx.constant(term, schema)
        batch = encoded.batch()
        return lambda _batch: batch
    return schema, bind


def _compile_join(term: Join, var: str, input_schema, resolve,
                  drop: frozenset = frozenset()):
    left_constant = is_constant_in(term.left, var)
    right_constant = is_constant_in(term.right, var)
    if left_constant == right_constant:
        # Both variable would violate Fcond linearity; both constant is
        # handled by the constant case before dispatch reaches here.
        raise KernelUnsupported("join without a unique constant side")
    constant_term = term.left if left_constant else term.right
    variable_term = term.right if left_constant else term.left
    var_schema, var_bind = _compile(variable_term, var, input_schema, resolve)
    const_schema = resolve(constant_term).columns
    common = tuple(c for c in var_schema if c in const_schema)
    if not common:
        # Cartesian product: rare inside recursions, row engine handles it.
        raise KernelUnsupported("join with no common columns")
    out_all = tuple(sorted(set(var_schema) | set(const_schema)))
    if drop - set(out_all):
        raise KernelUnsupported("anti-projected column missing from join")
    out_schema = tuple(c for c in out_all if c not in drop)
    if not out_schema:
        raise KernelUnsupported("join output fully projected away")
    var_position = {c: i for i, c in enumerate(var_schema)}
    const_position = {c: i for i, c in enumerate(const_schema)}
    probe_positions = tuple(var_position[c] for c in common)
    build_positions = tuple(const_position[c] for c in common)
    # Project pushdown happens here: only the surviving output columns are
    # gathered, so an anti-project above this join costs nothing per row.
    gather = tuple((0, var_position[c]) if c in var_position
                   else (1, const_position[c]) for c in out_schema)

    def bind(ctx):
        inner = var_bind(ctx)
        relation, encoded = ctx.constant(constant_term, const_schema)
        ctx.indexed_ops += 1
        ctx.broadcasts.append(len(relation))
        if encoded.has_index(build_positions):
            ctx.index_reuses += 1
        else:
            ctx.index_builds += 1
        index = encoded.index_on(build_positions)
        const_arrays = encoded.arrays
        get = index.get
        probe_counter = ctx.probe_counter
        single = probe_positions[0] if len(probe_positions) == 1 else None

        def step(batch):
            batch = inner(batch)
            arrays = batch.arrays
            probe_counter[0] += len(arrays[probe_positions[0]])
            # One C-speed ``map`` fetches every bucket, then two list
            # comprehensions expand the matches — measurably faster than
            # an explicit append loop on large deltas.
            if single is not None:
                buckets = list(map(get, arrays[single]))
            else:
                buckets = list(map(get,
                                   zip(*(arrays[p] for p in probe_positions))))
            probe_rows = [i for i, bucket in enumerate(buckets)
                          if bucket is not None for _ in bucket]
            build_rows = [b for bucket in buckets
                          if bucket is not None for b in bucket]
            out_arrays = [
                array("q", map((arrays[pos] if side == 0
                                else const_arrays[pos]).__getitem__,
                               probe_rows if side == 0 else build_rows))
                for side, pos in gather]
            return ColumnarBatch(out_schema, out_arrays)
        return step
    return out_schema, bind


def _compile_antijoin(term: Antijoin, var: str, input_schema, resolve):
    if not is_constant_in(term.right, var):
        # Positivity violation; decompose() rejects it before we ever run.
        raise KernelUnsupported("antijoin with a recursive right side")
    var_schema, var_bind = _compile(term.left, var, input_schema, resolve)
    const_schema = resolve(term.right).columns
    common = tuple(c for c in var_schema if c in const_schema)
    var_position = {c: i for i, c in enumerate(var_schema)}

    if not common:
        # No common column: any tuple of the right side matches, so the
        # antijoin is the left side iff the right side is empty.
        def bind_disjoint(ctx):
            inner = var_bind(ctx)
            relation, _ = ctx.constant(term.right, const_schema)
            if not relation:
                return inner
            empty = ColumnarBatch(var_schema, [array("q") for _ in var_schema])

            def step(batch):
                inner(batch)
                return empty
            return step
        return var_schema, bind_disjoint

    const_position = {c: i for i, c in enumerate(const_schema)}
    probe_positions = tuple(var_position[c] for c in common)
    build_positions = tuple(const_position[c] for c in common)

    def bind(ctx):
        inner = var_bind(ctx)
        relation, encoded = ctx.constant(term.right, const_schema)
        ctx.indexed_ops += 1
        ctx.broadcasts.append(len(relation))
        if encoded.has_index(build_positions):
            ctx.index_reuses += 1
        else:
            ctx.index_builds += 1
        index = encoded.index_on(build_positions)
        single = probe_positions[0] if len(probe_positions) == 1 else None

        def step(batch):
            batch = inner(batch)
            arrays = batch.arrays
            if single is not None:
                column = arrays[single]
                keep = [i for i, code in enumerate(column)
                        if code not in index]
            else:
                key_columns = [arrays[p] for p in probe_positions]
                keep = [i for i, key in enumerate(zip(*key_columns))
                        if key not in index]
            if len(keep) == len(batch):
                return batch
            return ColumnarBatch(var_schema, [
                array("q", map(column.__getitem__, keep))
                for column in arrays])
        return step
    return var_schema, bind


def _compile_filter(term: Filter, var: str, input_schema, resolve):
    child_schema, child_bind = _compile(term.child, var, input_schema, resolve)
    predicate = term.predicate
    missing = predicate.columns() - set(child_schema)
    if missing:
        raise KernelUnsupported("predicate references missing columns")

    def bind(ctx):
        inner = child_bind(ctx)
        check = _bind_code_check(predicate, child_schema, ctx.dictionary)
        if check is None:  # TruePredicate
            return inner
        fast = _bind_eq_scan(predicate, child_schema, ctx.dictionary)

        def step(batch):
            batch = inner(batch)
            arrays = batch.arrays
            if fast is not None:
                position, code = fast
                column = arrays[position]
                keep = [i for i, c in enumerate(column) if c == code]
            else:
                keep = [i for i, row in enumerate(zip(*arrays))
                        if check(row)]
            if len(keep) == len(batch):
                return batch
            return ColumnarBatch(child_schema, [
                array("q", map(column.__getitem__, keep))
                for column in arrays])
        return step
    return child_schema, bind


def _bind_eq_scan(predicate: Predicate, schema, dictionary):
    """``(position, code)`` for a bare equality filter, else None."""
    if isinstance(predicate, Eq):
        return schema.index(predicate.column), dictionary.encode(predicate.value)
    if isinstance(predicate, Compare) and predicate.op == "==":
        return schema.index(predicate.column), dictionary.encode(predicate.value)
    return None


def _bind_code_check(predicate: Predicate, schema: tuple[str, ...],
                     dictionary: ValueDictionary):
    """Compile a predicate into a check over a tuple of codes.

    Equality-shaped predicates compare codes directly (interning the
    constant, so a value absent from the data simply never matches).
    Order comparisons must decode — dictionary codes reflect insertion
    order, not value order.  Returns None for the always-true predicate.
    """
    if isinstance(predicate, TruePredicate):
        return None
    if isinstance(predicate, Eq):
        position = schema.index(predicate.column)
        code = dictionary.encode(predicate.value)
        return lambda row: row[position] == code
    if isinstance(predicate, In):
        position = schema.index(predicate.column)
        codes = frozenset(dictionary.encode(v) for v in predicate.values)
        return lambda row: row[position] in codes
    if isinstance(predicate, ColumnEq):
        left = schema.index(predicate.left)
        right = schema.index(predicate.right)
        return lambda row: row[left] == row[right]
    if isinstance(predicate, Compare):
        position = schema.index(predicate.column)
        if predicate.op == "==":
            code = dictionary.encode(predicate.value)
            return lambda row: row[position] == code
        if predicate.op == "!=":
            code = dictionary.encode(predicate.value)
            return lambda row: row[position] != code
        compare = _COMPARATORS[predicate.op]
        value = predicate.value
        values = dictionary.values
        return lambda row: compare(values[row[position]], value)
    if isinstance(predicate, And):
        left = _bind_code_check(predicate.left, schema, dictionary)
        right = _bind_code_check(predicate.right, schema, dictionary)
        if left is None:
            return right
        if right is None:
            return left
        return lambda row: left(row) and right(row)
    if isinstance(predicate, Or):
        left = _bind_code_check(predicate.left, schema, dictionary)
        right = _bind_code_check(predicate.right, schema, dictionary)
        if left is None or right is None:
            return None
        return lambda row: left(row) or right(row)
    if isinstance(predicate, Not):
        inner = _bind_code_check(predicate.inner, schema, dictionary)
        if inner is None:
            return lambda row: False
        return lambda row: not inner(row)
    # Unknown predicate type: evaluate it on the decoded row (slow but
    # identical to the row engine).
    check = predicate.compile(schema)
    values = dictionary.values

    def decoded(row):
        return check(tuple(map(values.__getitem__, row)))
    return decoded


def _compile_rename(term: Rename, var: str, input_schema, resolve):
    child_schema, child_bind = _compile(term.child, var, input_schema, resolve)
    if term.old not in child_schema or \
            (term.new != term.old and term.new in child_schema):
        raise KernelUnsupported("invalid rename for this schema")
    if term.new == term.old:
        return child_schema, child_bind
    renamed = [term.new if c == term.old else c for c in child_schema]
    out_schema = tuple(sorted(renamed))
    source_of = {new: i for i, new in enumerate(renamed)}
    permutation = tuple(source_of[c] for c in out_schema)

    def bind(ctx):
        inner = child_bind(ctx)

        def step(batch):
            batch = inner(batch)
            arrays = batch.arrays
            return ColumnarBatch(out_schema, [arrays[p] for p in permutation])
        return step
    return out_schema, bind


def _compile_antiproject(term: AntiProject, var: str, input_schema, resolve):
    dropped = frozenset(term.columns if not isinstance(term.columns, str)
                        else (term.columns,))
    child = term.child
    if isinstance(child, Join) and not is_constant_in(child, var):
        # The compose() shape — anti-project directly over a join — is the
        # whole body of every closure step: push the drop into the join so
        # the dropped column is never gathered at all.
        return _compile_join(child, var, input_schema, resolve, drop=dropped)
    child_schema, child_bind = _compile(child, var, input_schema, resolve)
    if dropped - set(child_schema):
        raise KernelUnsupported("anti-projected column missing")
    kept = tuple(c for c in child_schema if c not in dropped)
    if not kept:
        raise KernelUnsupported("anti-project drops every column")
    if kept == child_schema:
        return child_schema, child_bind
    positions = tuple(child_schema.index(c) for c in kept)

    def bind(ctx):
        inner = child_bind(ctx)

        def step(batch):
            batch = inner(batch)
            arrays = batch.arrays
            return ColumnarBatch(kept, [arrays[p] for p in positions])
        return step
    return kept, bind


def _compile_union(term: Union, var: str, input_schema, resolve):
    left_schema, left_bind = _compile(term.left, var, input_schema, resolve)
    right_schema, right_bind = _compile(term.right, var, input_schema, resolve)
    if left_schema != right_schema:
        raise KernelUnsupported("union of different schemas")

    def bind(ctx):
        left = left_bind(ctx)
        right = right_bind(ctx)

        def step(batch):
            left_batch = left(batch)
            right_batch = right(batch)
            if not len(right_batch):
                return left_batch
            if not len(left_batch):
                return right_batch
            return ColumnarBatch(left_schema, [
                a + b for a, b in zip(left_batch.arrays, right_batch.arrays)])
        return step
    return left_schema, bind


# -- The program cache -------------------------------------------------------

#: Cache entry marking a shape the planner refused, so unsupported terms
#: pay the compile attempt once, not per execution.
_UNSUPPORTED = object()

#: Bound on cached programs per cache (a runaway guard, not an LRU: the
#: working set is a handful of fixpoint bodies).
_MAX_PROGRAMS = 256


class KernelProgramCache:
    """Compiled kernel programs, keyed by (var, variable part, schema).

    One instance hangs off every cached plan (the ``kernel_program`` slot
    of :class:`~repro.service.plan_cache.CachedPlan`); a process-wide
    default (:func:`default_kernel_cache`) serves plan-less execution
    layers.  Entries are schema-level only, so sharing a cache across
    snapshots is sound; a cross-database schema collision is detected at
    bind time (:class:`_SchemaDrift`) and recompiled.
    """

    __slots__ = ("_programs",)

    def __init__(self) -> None:
        self._programs: dict[tuple, object] = {}

    def __len__(self) -> int:
        return len(self._programs)

    def program_for(self, var: str, variable_part: Term,
                    input_schema: tuple[str, ...],
                    resolve: Callable[[Term], Relation],
                    recompile: bool = False) -> KernelProgram | None:
        """The compiled program, or None when the row engine must run."""
        key = (var, variable_part, input_schema)
        entry = self._programs.get(key)
        if not recompile:
            if entry is _UNSUPPORTED:
                return None
            if entry is not None:
                get_registry().counter("repro_kernel_reuses_total").inc()
                return entry
        if len(self._programs) >= _MAX_PROGRAMS:
            self._programs.clear()
        try:
            program = compile_program(var, variable_part, input_schema, resolve)
        except KernelUnsupported:
            self._programs[key] = _UNSUPPORTED
            return None
        get_registry().counter("repro_kernel_compiles_total").inc()
        self._programs[key] = program
        return program


_DEFAULT_CACHE = KernelProgramCache()


def default_kernel_cache() -> KernelProgramCache:
    """The process-wide cache used where no plan cache is in play."""
    return _DEFAULT_CACHE


# -- Binding ---------------------------------------------------------------


def bind_program(cache: KernelProgramCache | None, var: str,
                 variable_part: Term, input_schema: tuple[str, ...],
                 dictionary: ValueDictionary,
                 resolve: Callable[[Term], Relation]) -> BoundKernel | None:
    """Compile (or fetch) and bind the kernel program for one fixpoint.

    Returns None when the kernels cannot (or must not) run this fixpoint
    — columnar disabled, unsupported shape, output schema differing from
    the seed schema (the row engine owns that error's exact wording) — in
    which case the caller falls back to its row step.
    """
    if not columnar_enabled():
        return None
    if cache is None:
        cache = _DEFAULT_CACHE
    program = cache.program_for(var, variable_part, input_schema, resolve)
    if program is None:
        return None
    try:
        bound = program.bind(dictionary, resolve)
    except _SchemaDrift:
        program = cache.program_for(var, variable_part, input_schema,
                                    resolve, recompile=True)
        if program is None:
            return None
        try:
            bound = program.bind(dictionary, resolve)
        except _SchemaDrift:
            return None
    if bound.out_schema != input_schema:
        # Let the row engine raise its own (site-specific) schema error.
        return None
    return bound
