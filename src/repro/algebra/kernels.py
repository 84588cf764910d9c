"""Fused fixpoint-step kernels over packed code tuples.

The row engine interprets the variable part of a fixpoint operator at a
time: every iteration re-dispatches on the term tree and materialises a
relation per join, rename and projection.  This module compiles the
variable part **once per physical plan** into one fused pipeline, so the
semi-naive driver (:mod:`repro.algebra.fixpoint`) hands each step the
accumulator's ``fresh`` set of dictionary-code tuples and gets a set of
code tuples in the fixpoint's column order back:

* the **planner** (:func:`compile_program`) walks the term once, infers
  every schema, and rejects anything it cannot prove it runs identically
  to the row engine (the caller then falls back — the row engine stays
  the semantics reference);
* **rename, anti-project and the final column order** are folded, at
  compile time, into the positions the next tuple-building operator
  reads and emits — they do nothing per row;
* a **join** is one set comprehension probing a key-code -> payload-codes
  index memoized on the constant side's
  :class:`~repro.data.columnar.ColumnarRelation` (bare ``int`` keys and
  payloads in the graph case); an **antijoin** tests key membership;
* **filters** compare dictionary codes; only order comparisons decode
  (codes do not preserve value order);
* intermediate results are sets, and the one place an iteration's output
  meets the result is the accumulator's ``produced - seen``;
* a closure step that keeps the stable column in place also binds a
  **grouped** twin over the frontier factorized on that column
  (:attr:`BoundKernel.grouped_step`).

Nothing here is vectorised: in CPython without numpy every materialised
intermediate — a gathered column as much as a relation — is a pass of
interpreted bytecode, so fusing operators (Neumann, VLDB 2011) wins over
running each at "C speed" on columns; DESIGN.md has the measurements.

Compiled programs are cached in a :class:`KernelProgramCache` — one hangs
off every :class:`~repro.service.plan_cache.CachedPlan` (the
``kernel_program`` slot), and a process-wide default serves execution
given no cache (ad-hoc evaluation).  A fixpoint's step is bound once per
execution, on the driver
(:meth:`~repro.algebra.evaluate.Evaluator.bind_fixpoint`, through the
executor's cache); the worker-local loops run that bind and bind
nothing.  Programs hold schemas and positions only; every bind asks
its ``resolve`` callback for the constant relations again, so a cached
program can never serve stale data.  What a bind then *costs* is the
resolver's business: on a snapshot the evaluator answers from the
snapshot's operand memo, and the relation it hands back already carries
its encoding and its indexes after the first execution on that version.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter

from ..data.columnar import CodeGroups, ValueDictionary, columnar_enabled
from ..data.relation import Relation
from ..errors import EvaluationError, SchemaError
from ..obs.metrics import get_registry
from .schema import infer_schema
from .terms import (AntiProject, Antijoin, Filter, Fixpoint, Join, Literal,
                    Rename, RelVar, Term, Union)
from .variables import is_constant_in

__all__ = [
    "BoundKernel", "KernelProgram", "KernelProgramCache", "SeedShape",
    "bind_program", "bind_seed", "compile_program", "default_kernel_cache",
    "seed_shape",
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

    __slots__ = ("dictionary", "resolve", "index_builds", "indexed_ops",
                 "broadcasts", "probe_counter", "grouped")

    def __init__(self, dictionary: ValueDictionary,
                 resolve: Callable[[Term], Relation]):
        self.dictionary = dictionary
        self.resolve = resolve
        self.index_builds = 0
        self.indexed_ops = 0
        self.broadcasts: list[int] = []
        #: One-cell mutable counter shared with the join step closures:
        #: each indexed join adds its input size per iteration, matching
        #: the row engine's one-probe-per-probe-row accounting at the cost
        #: of a single ``len()`` per operator call.
        self.probe_counter: list[int] = [0]
        #: Flat step -> (stable position, grouped step), for every join
        #: that can also run on :class:`CodeGroups`; the program's bind
        #: reads it only when such a join *is* the whole step.
        self.grouped: dict[Step, tuple[int, GroupedStep]] = {}

    def constant(self, operand: "_Operand"):
        """Resolve and encode a constant operand, verifying its schema."""
        relation = self.resolve(operand.term)
        if relation.columns != operand.schema:
            raise _SchemaDrift(
                f"constant schema drifted from {operand.schema} to "
                f"{relation.columns}")
        return relation, relation.columnar(self.dictionary)

    def index(self, operand: "_Operand", key: tuple[int, ...],
              payload: tuple[int, ...] = ()) -> dict:
        """The index a join or antijoin probes on its constant side:
        memoized on the operand's encoding, hence built once per snapshot
        version for every operand the snapshot's memo keeps.  ``key`` and
        ``payload`` are positions in the resolved operand (see
        :meth:`_Operand.below`)."""
        relation, encoded = self.constant(operand)
        self.indexed_ops += 1
        self.broadcasts.append(len(relation))
        if not encoded.has_index(key, payload):
            self.index_builds += 1
        return encoded.index_on(key, payload)


#: One fixpoint step: a set of code tuples in, a set of code tuples out,
#: both in the fixpoint's schema order.  A step never mutates its input —
#: the frontier is the accumulator's own ``fresh`` set.
Step = Callable[[set], set]
#: The same step over the frontier grouped on its stable column.
GroupedStep = Callable[[CodeGroups], CodeGroups]


@dataclass
class BoundKernel:
    """A program bound to one execution's constants and dictionary."""

    step: Step
    out_schema: tuple[str, ...]
    #: Of the ``indexed_ops`` index accesses of one step, those this bind
    #: had to build.
    index_builds: int
    indexed_ops: int
    probe_counter: list[int]
    #: Sizes of the constant relations bound into join/antijoin kernels;
    #: the Pgld driver records one broadcast per entry per iteration to
    #: keep its communication accounting identical to the row path.
    broadcast_sizes: tuple[int, ...]
    #: When the step is a join that carries one frontier position through
    #: unchanged — the fixpoint's stable column — that position, and the
    #: step over the frontier grouped on it (same probe accounting).
    stable_position: int | None = None
    grouped_step: GroupedStep | None = None


class KernelProgram:
    """The compiled (schema-level) pipeline of one variable part.

    Holds column positions and key layouts only — binding resolves the
    constant operands, encodes them (memoized on the relation) and builds
    or reuses their indexes (memoized on the encoding).
    """

    __slots__ = ("out_schema", "_bind")

    def __init__(self, out_schema: tuple[str, ...],
                 bind: Callable[[_BindContext], Step]):
        self.out_schema = out_schema
        self._bind = bind

    def bind(self, dictionary: ValueDictionary,
             resolve: Callable[[Term], Relation]) -> BoundKernel:
        ctx = _BindContext(dictionary, resolve)
        step = self._bind(ctx)
        stable, grouped = ctx.grouped.get(step, (None, None))
        return BoundKernel(step=step, out_schema=self.out_schema,
                           index_builds=ctx.index_builds,
                           indexed_ops=ctx.indexed_ops,
                           probe_counter=ctx.probe_counter,
                           broadcast_sizes=tuple(ctx.broadcasts),
                           stable_position=stable, grouped_step=grouped)


# -- The kernel planner ------------------------------------------------------


@dataclass(frozen=True)
class _Operand:
    """A recursion-constant operand as a program resolves it.

    Below its outer renames: they cost a kernel nothing, since they fold
    into positions, so the seed's ``rho[src->_n2](J)`` and the step's
    ``rho[src->_n4](J)`` resolve to the one relation ``J`` — one memo
    entry, one encoding, one index.  A step resolves a renamed *base*
    relation as written, as the row engine does: that copy is the
    operand the snapshot's memo keeps per version and EXPLAIN reports.
    A seed reads a base relation itself, as it reads its input, so it
    adds no memo entry of its own.
    """

    #: What ``resolve`` is asked for, and the columns it answers with.
    term: Term
    schema: tuple[str, ...]
    #: Per column of the operand as the term reads it (its sorted,
    #: renamed schema), that column's position in ``schema``.
    positions: tuple[int, ...]

    def below(self, positions: tuple[int, ...]) -> tuple[int, ...]:
        """Positions in the renamed schema, as positions in ``schema``."""
        return tuple(self.positions[p] for p in positions)


def _operand(term: Term, resolve: Callable[[Term], Relation], seed: bool
             ) -> tuple[_Operand, tuple[str, ...]]:
    """``term`` below its outer renames, and the schema the term reads."""
    inner = term
    renames = []
    while isinstance(inner, Rename):
        renames.append((inner.old, inner.new))
        inner = inner.child
    if not seed and isinstance(inner, (RelVar, Literal)):
        inner, renames = term, []
    schema = resolve(inner).columns
    if not schema:
        raise KernelUnsupported("zero-width constant operand")
    origin = {c: c for c in schema}    # column as read -> column in schema
    for old, new in reversed(renames):
        if old not in origin or (new != old and new in origin):
            raise KernelUnsupported("invalid rename for this schema")
        origin[new] = origin.pop(old)
    read = tuple(sorted(origin))
    return _Operand(inner, schema,
                    tuple(schema.index(origin[c]) for c in read)), read


def compile_program(var: str, variable_part: Term,
                    input_schema: tuple[str, ...],
                    resolve: Callable[[Term], Relation],
                    seed: bool = False) -> KernelProgram:
    """Compile the variable part of ``mu(var = R U phi)`` into one pipeline.

    ``input_schema`` is the fixpoint's (seed) schema — the column order of
    every frontier tuple and of every tuple the step returns.  ``resolve``
    evaluates recursion-constant subterms; it is only consulted for their
    *schemas* here (positions must be bound up front), every bind asks it
    for the relations again.  With ``seed``, ``variable_part`` is instead
    a fixpoint's constant part and ``var`` the base relation it reads as
    its input (see :class:`SeedShape`).  Raises :class:`KernelUnsupported`
    for shapes the kernels do not cover.
    """
    if not input_schema:
        raise KernelUnsupported("zero-width fixpoint schema")
    planner = _Planner(var, input_schema, resolve, seed)
    # Validates the whole tree before any of it is planned.
    out_schema = planner.schema(variable_part)
    return KernelProgram(out_schema,
                         planner.exactly(variable_part, out_schema))


def _identity(rows):
    return rows


def _bind_identity(ctx):
    return _identity


def _picker(positions: tuple[int, ...]):
    """``tuple -> tuple`` keeping ``positions``, in that order."""
    if len(positions) == 1:
        position, = positions
        return lambda row: (row[position],)
    return itemgetter(*positions)


def _positions(layout: tuple, columns) -> tuple[int, ...]:
    return tuple(layout.index(c) for c in columns)


def _with(want: tuple[str, ...] | None, needed) -> tuple[str, ...] | None:
    """``want`` extended by the columns an operator reads itself."""
    if want is None:
        return None
    return want + tuple(c for c in needed if c not in want)


class _Planner:
    """One variable part: logical schemas bottom-up, layouts top-down.

    ``schema(term)`` is the sorted schema the row engine would produce.
    ``plan(term, want)`` returns ``(layout, bind)``: ``layout`` names what
    each position of the node's *physical* tuples holds (None for a
    column an anti-project dropped from tuples it did not build),
    ``bind`` builds the step.  ``want`` — the columns the consumer reads,
    in the order it would like them, or None for "all, any order" — is
    honoured exactly by the operators that build tuples anyway (join,
    union, constant) and ignored by those that pass tuples through (the
    recursive variable, filter, antijoin).  So rename, anti-project and
    the fixpoint's own column order do no work per row: they only decide
    which positions the next tuple-building operator reads and emits.
    """

    def __init__(self, var: str, input_schema: tuple[str, ...],
                 resolve: Callable[[Term], Relation], seed: bool):
        self.var = var
        self.input_schema = input_schema
        self.resolve = resolve
        self.seed = seed
        self._schemas: dict[Term, tuple[str, ...]] = {}
        self._operands: dict[Term, _Operand] = {}

    def _is_input(self, term: Term) -> bool:
        return isinstance(term, RelVar) and term.name == self.var

    # -- Logical schemas ---------------------------------------------------

    def schema(self, term: Term) -> tuple[str, ...]:
        schema = self._schemas.get(term)
        if schema is None:
            schema = self._schemas[term] = self._infer(term)
        return schema

    def _infer(self, term: Term) -> tuple[str, ...]:
        if self._is_input(term):
            return self.input_schema
        if is_constant_in(term, self.var):
            self._operands[term], schema = _operand(term, self.resolve,
                                                    self.seed)
            return schema
        if isinstance(term, Join):
            return tuple(sorted({*self.schema(term.left),
                                 *self.schema(term.right)}))
        if isinstance(term, Antijoin):
            return self.schema(term.left)
        if isinstance(term, Filter):
            child = self.schema(term.child)
            if term.predicate.columns() - set(child):
                raise KernelUnsupported("predicate references missing columns")
            return child
        if isinstance(term, Rename):
            child = self.schema(term.child)
            if term.old not in child or \
                    (term.new != term.old and term.new in child):
                raise KernelUnsupported("invalid rename for this schema")
            return tuple(sorted(term.new if c == term.old else c
                                for c in child))
        if isinstance(term, AntiProject):
            child = self.schema(term.child)
            kept = tuple(c for c in child if c not in term.columns)
            if set(term.columns) - set(child) or not kept:
                raise KernelUnsupported(
                    "anti-project of a missing column, or of every column")
            return kept
        if isinstance(term, Union):
            left = self.schema(term.left)
            if left != self.schema(term.right):
                raise KernelUnsupported("union of different schemas")
            return left
        # Non-constant nested fixpoints (mutual recursion) and unknown node
        # types: the row engine owns the error reporting.
        raise KernelUnsupported(f"unsupported node {type(term).__name__}")

    # -- Physical plans ----------------------------------------------------

    def plan(self, term: Term, want: tuple[str, ...] | None):
        if self._is_input(term):
            return self.input_schema, _bind_identity
        if is_constant_in(term, self.var):
            return self._plan_constant(term, want)
        if isinstance(term, Join):
            return self._plan_join(term, want)
        if isinstance(term, Antijoin):
            return self._plan_antijoin(term, want)
        if isinstance(term, Filter):
            return self._plan_filter(term, want)
        if isinstance(term, Rename):
            layout, bind = self.plan(term.child, want and tuple(
                term.old if c == term.new else c for c in want))
            return tuple(term.new if c == term.old else c
                         for c in layout), bind
        if isinstance(term, AntiProject):
            layout, bind = self.plan(term.child, want or self.schema(term))
            return tuple(None if c in term.columns else c
                         for c in layout), bind
        return self._plan_union(term, want)

    def exactly(self, term: Term, out: tuple[str, ...]):
        """The bind of ``term`` with its tuples laid out exactly as ``out``."""
        layout, bind = self.plan(term, out)
        if layout == out:
            return bind
        pick = _picker(_positions(layout, out))

        def bind_projected(ctx):
            inner = bind(ctx)
            return lambda rows: set(map(pick, inner(rows)))
        return bind_projected

    def _plan_constant(self, term: Term, want):
        schema = self.schema(term)
        operand = self._operands[term]
        out = want or schema
        positions = operand.below(_positions(schema, out))

        def bind(ctx):
            _, encoded = ctx.constant(operand)
            constant = frozenset(zip(*(encoded.arrays[p] for p in positions)))
            return lambda _rows: constant
        return out, bind

    def _sides(self, constant_term: Term, variable_term: Term, want):
        """What a join or antijoin reads on either side of its key.

        Returns the constant side's schema and operand, the variable
        side's layout and bind, and the key as positions in that layout
        and in the resolved operand.
        """
        const_schema = self.schema(constant_term)
        operand = self._operands[constant_term]
        common = tuple(c for c in self.schema(variable_term)
                       if c in const_schema)
        layout, bind = self.plan(variable_term, _with(want, common))
        return (const_schema, operand, layout, bind,
                _positions(layout, common),
                operand.below(_positions(const_schema, common)))

    def _plan_join(self, term: Join, want):
        left_constant = is_constant_in(term.left, self.var)
        if left_constant == is_constant_in(term.right, self.var):
            # Both variable would violate Fcond linearity; both constant is
            # the constant case, handled before dispatch reaches here.
            raise KernelUnsupported("join without a unique constant side")
        constant_term, variable_term = (
            (term.left, term.right) if left_constant
            else (term.right, term.left))
        const_schema, operand, layout, var_bind, probe, key = self._sides(
            constant_term, variable_term, None)
        if not probe:
            # Cartesian product: rare inside recursions, row engine handles it.
            raise KernelUnsupported("join with no common columns")
        out = want or self.schema(term)
        # Only what the output keeps is copied out of the constant side, so
        # an anti-project above this join costs nothing per row.
        payload = tuple(c for c in out if c not in layout)
        payload_positions = operand.below(_positions(const_schema, payload))
        emit = _picker(tuple(layout.index(c) if c in layout
                             else len(layout) + payload.index(c)
                             for c in out))
        read_key = itemgetter(*probe)
        stable = None
        if len(layout) == len(out) == 2 and len(probe) == len(payload) == 1 \
                and layout[1 - probe[0]] == out[1 - out.index(payload[0])]:
            shape = probe[0], out.index(payload[0])
            expand = _BINARY_JOINS[shape]
            if var_bind is _bind_identity:  # it reads the frontier itself
                stable = _STABLE_POSITIONS.get(shape)
        elif not payload:         # a semijoin: only membership is read
            def expand(rows, get):
                return {emit(r) for r in rows if get(read_key(r))}
        elif len(payload) == 1:   # bare payload codes
            def expand(rows, get):
                return {emit(r + (p,)) for r in rows
                        for p in get(read_key(r), ())}
        else:
            def expand(rows, get):
                return {emit(r + p) for r in rows
                        for p in get(read_key(r), ())}

        def bind(ctx):
            inner = var_bind(ctx)
            get = ctx.index(operand, key, payload_positions).get
            counter = ctx.probe_counter

            def step(rows):
                rows = inner(rows)
                counter[0] += len(rows)
                return expand(rows, get)

            if stable is not None:
                def grouped(groups):
                    counter[0] += len(groups)
                    return _grouped_join(groups, get)
                ctx.grouped[step] = stable, grouped
            return step
        return out, bind

    def _plan_antijoin(self, term: Antijoin, want):
        if not is_constant_in(term.right, self.var):
            # Positivity violation; decompose() rejects it before we ever run.
            raise KernelUnsupported("antijoin with a recursive right side")
        _, operand, layout, left_bind, probe, key = self._sides(
            term.right, term.left, want)

        def bind(ctx):
            inner = left_bind(ctx)
            if not probe:
                # No common column: any tuple of the right side matches, so
                # the antijoin is the left side iff the right side is empty.
                relation, _ = ctx.constant(operand)
                if not relation:
                    return inner

                def nothing(rows):
                    inner(rows)
                    return set()
                return nothing
            index = ctx.index(operand, key)
            read_key = itemgetter(*probe)
            return lambda rows: {r for r in inner(rows)
                                 if read_key(r) not in index}
        return layout, bind

    def _plan_filter(self, term: Filter, want):
        predicate = term.predicate
        layout, child_bind = self.plan(
            term.child, _with(want, sorted(predicate.columns())))

        def bind(ctx):
            inner = child_bind(ctx)
            check = predicate.compile(layout, ctx.dictionary)
            if check is None:
                return inner
            return lambda rows: set(filter(check, inner(rows)))
        return layout, bind

    def _plan_union(self, term: Union, want):
        out = want or self.schema(term)
        left_bind = self.exactly(term.left, out)
        right_bind = self.exactly(term.right, out)

        def bind(ctx):
            left = left_bind(ctx)
            right = right_bind(ctx)
            return lambda rows: left(rows) | right(rows)
        return out, bind


# The ``compose()`` step, fused: binary tuples probing a one-column key
# for one kept column of the constant side — the whole body of every
# closure step.  Unpacking in the comprehension beats a generic
# ``emit(row, payload)`` call (2.30x against 2.03x over the column
# kernels on ``a1+``, see DESIGN.md), so its four layouts are written
# out, keyed by (key position in the frontier tuple, payload position in
# the output).
_BINARY_JOINS = {
    (1, 1): lambda rows, get: {(x, z) for x, y in rows for z in get(y, ())},
    (1, 0): lambda rows, get: {(z, x) for x, y in rows for z in get(y, ())},
    (0, 1): lambda rows, get: {(y, z) for x, y in rows for z in get(x, ())},
    (0, 0): lambda rows, get: {(z, y) for x, y in rows for z in get(x, ())},
}

# Two of those layouts carry one frontier position through unchanged:
# ``(1, 1)`` keeps position 0 and ``(0, 0)`` keeps position 1.  That is
# the fixpoint's stable column (Section III-B), so the frontier can be
# factorized on it — ``{stable code: set of member codes}`` — and the
# step becomes one C-level set union per key: nothing is built or hashed
# per derived row.  One body serves both layouts, since the member is
# the probe key and the payload the new member either way.
_STABLE_POSITIONS = {(1, 1): 0, (0, 0): 1}


def _grouped_join(groups: CodeGroups, get) -> CodeGroups:
    return CodeGroups({
        key: set(chain.from_iterable(map(get, members, repeat(()))))
        for key, members in groups.items()})


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
                    recompile: bool = False,
                    seed: bool = False) -> KernelProgram | None:
        """The compiled program, or None when the row engine must run."""
        key = (var, variable_part, input_schema, seed)
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
            program = compile_program(var, variable_part, input_schema,
                                      resolve, seed)
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


def _bind(cache: KernelProgramCache | None, var: str, term: Term,
          input_schema: tuple[str, ...], dictionary: ValueDictionary,
          resolve: Callable[[Term], Relation],
          seed: bool = False) -> BoundKernel | None:
    """Compile (or fetch) and bind the program of ``term`` over input
    ``var``; None when the kernels are off or refuse the shape."""
    if not columnar_enabled():
        return None
    if cache is None:
        cache = _DEFAULT_CACHE
    program = cache.program_for(var, term, input_schema, resolve, seed=seed)
    if program is None:
        return None
    try:
        return program.bind(dictionary, resolve)
    except _SchemaDrift:
        program = cache.program_for(var, term, input_schema, resolve,
                                    recompile=True, seed=seed)
        if program is None:
            return None
        try:
            return program.bind(dictionary, resolve)
        except _SchemaDrift:
            return None


def bind_program(cache: KernelProgramCache | None, var: str,
                 variable_part: Term, input_schema: tuple[str, ...],
                 dictionary: ValueDictionary,
                 resolve: Callable[[Term], Relation]) -> BoundKernel | None:
    """Compile (or fetch) and bind the step program of one fixpoint.

    Returns None when the kernels cannot (or must not) run this fixpoint
    — columnar disabled, unsupported shape, output schema differing from
    the seed schema (the row engine owns that error's exact wording) — in
    which case the caller falls back to its row step.
    """
    bound = _bind(cache, var, variable_part, input_schema, dictionary,
                  resolve)
    if bound is None or bound.out_schema != input_schema:
        # Let the row engine raise its own (site-specific) schema error.
        return None
    return bound


# -- Seed programs -----------------------------------------------------------


@dataclass(frozen=True)
class SeedShape:
    """How the kernels compute a fixpoint's constant part (its seed).

    The seed is compiled by the step's planner with one of its base
    relations, ``leaf``, as the input: every other maximal subterm is a
    constant operand, resolved as the step's are, and one step over the
    leaf's memoized encoding yields the seed as code tuples in
    ``columns``, its schema.
    """

    leaf: str
    columns: tuple[str, ...]


def seed_shape(seed: Term, schemas) -> SeedShape | None:
    """The :class:`SeedShape` of ``seed``, or None for the row engine.

    A seed qualifies when it is closed over ``schemas`` (every free
    relation a base relation) and contains a join or antijoin — work a
    fused pipeline saves.  The input is the shallowest base relation
    that occurs exactly once outside any nested fixpoint (the first
    such, on a tie), so the deeper subterms — a selection among them —
    become operands the snapshot's memo can keep.  A
    pure function of the term and the schemas: a cached plan decides it
    once (:class:`~repro.distributed.partitioner.FixpointAnalysis`).
    """
    occurrences: dict[str, int] = {}
    depths: dict[str, int] = {}
    joins = False
    stack = [(seed, 0, False)]
    while stack:
        node, depth, nested = stack.pop()
        joins = joins or isinstance(node, (Join, Antijoin))
        if isinstance(node, RelVar):
            occurrences[node.name] = occurrences.get(node.name, 0) + 1
            if not nested:
                depths.setdefault(node.name, depth)
        nested = nested or isinstance(node, Fixpoint)
        stack.extend((child, depth + 1, nested)
                     for child in reversed(node.children()))
    leaves = [name for name in depths
              if occurrences[name] == 1 and name in schemas]
    if not joins or not leaves:
        return None
    try:
        columns = infer_schema(seed, schemas)
    except (SchemaError, EvaluationError):
        return None
    return SeedShape(min(leaves, key=depths.__getitem__), columns)


def bind_seed(cache: KernelProgramCache | None, shape: SeedShape,
              seed: Term, leaf_columns: tuple[str, ...],
              dictionary: ValueDictionary,
              resolve: Callable[[Term], Relation]) -> BoundKernel | None:
    """Compile (or fetch, from the steps' cache) and bind ``seed``'s
    program; None when the kernels are off or refuse it.

    Unlike a step's, its output schema is not its input's: it is the
    seed's, ``shape.columns``, which the caller may already have bound
    the step to.
    """
    bound = _bind(cache, shape.leaf, seed, leaf_columns, dictionary,
                  resolve, seed=True)
    if bound is None or bound.out_schema != shape.columns:
        return None
    return bound
