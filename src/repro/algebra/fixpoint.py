"""The semi-naive fixpoint driver: the one loop every engine runs.

Algorithm 1 of the paper::

    X = R
    new = R
    while new != empty:
        new = phi(new) \\ X
        X = X U new
    return X

is written out exactly once, in :func:`semi_naive`.  The centralized
evaluator, the per-worker local loops of ``Pplw`` and the driver loop of
``Pgld`` differ only in *where* ``phi`` runs (the
``step`` callable) and *how* ``X`` is held (the accumulator); the
iteration guard and the ``fixpoint.iteration`` span live here.

``phi`` is bound once per execution, by
:meth:`~repro.algebra.evaluate.Evaluator.bind_fixpoint`, into a
:class:`FixpointBind`: the columnar kernels when they support the shape,
otherwise the variable part with its operands frozen for the row engine.
Every loop over that execution — the central one, each ``Pgld`` wave,
each ``Pplw`` task — runs the one bind, and :meth:`FixpointBind.index_events`
is the one index-accounting rule they share.  :func:`run_fixpoint` runs
a bind on one node, holding ``X`` flat or grouped on its stable column on
the kernels.  :func:`run_seed` computes ``R`` itself on the kernels when
it holds a join (a *seed program*), so such a fixpoint is encoded once,
where its seed's base relation was, and decoded once, at the end.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from operator import itemgetter

from ..data.columnar import (CodeRows, ColumnarDeltaAccumulator,
                             GroupedDeltaAccumulator, ValueDictionary)
from ..data.relation import Relation
from ..data.storage import DeltaAccumulator
from ..errors import EvaluationError
from ..obs import tracing
from .kernels import BoundKernel, KernelProgramCache, SeedShape, bind_seed
from .terms import Term

__all__ = ["FixpointBind", "FixpointRun", "run_fixpoint", "run_seed",
           "semi_naive"]

#: Seed rows per distinct stable key from which the kernels run the loop
#: grouped on the stable column (:class:`GroupedDeltaAccumulator`) rather
#: than flat.  Grouping costs a pass over the seed and a dict entry and
#: a few objects per key and iteration; it saves a tuple built and
#: hashed per derived row.  So it wins where keys are few and their sets
#: large, and loses on thin closures.  Measured flat against grouped:
#: time inside ``run_fixpoint`` per execution (bind, encode, loop,
#: decode; all Pplw chunks), median of 11, the end-to-end benchmark's
#: database and queries, 2-core x86 container; the seed rows per key are
#: the range over the chunks:
#:
#:   ============================ ============ =================
#:   query                        rows per key flat -> grouped
#:   ============================ ============ =================
#:   ``-hKw/(ref/-ref)+``         117-173      15.6 -> 8.3 ms
#:   ``(-ref/ref)+/auth``         37-52        9.5 -> 5.3 ms
#:   ``(actedIn/-actedIn)+``      6.9-8.3      16.9 -> 9.9 ms
#:   ``(-ref/ref)+``              6.2-6.6      28.7 -> 14.5 ms
#:   ``a1+``                      1.9-2.1      22.8 -> 21.2 ms
#:   Yago Q9's union closure      1.4          7.0 -> 7.8 ms
#:   chain-320 closure (bench)    1.25         35.9 -> 47.7 ms
#:   ============================ ============ =================
GROUPED_MIN_ROWS_PER_KEY = 2


def semi_naive(step: Callable, accumulator, frontier, *, var: str,
               engine: str, limit: int, nonconvergence: str) -> int:
    """Run ``frontier = accumulator.absorb(step(frontier))`` to convergence.

    ``accumulator`` already holds everything seen so far (``frontier``
    included); ``absorb`` folds one step's output in and returns the
    genuinely new part, ``len()`` of frontier and accumulator are their
    row counts.  Returns the number of iterations; passing ``limit``
    raises :class:`EvaluationError` with the caller's ``nonconvergence``
    message.  ``var`` and ``engine`` only label the iteration spans.
    """
    iterations = 0
    # Hoisted once: when tracing is off the loop pays one local bool check
    # per iteration (bench_obs_overhead.py holds this to <= 5%).
    traced = tracing.tracing_enabled()
    while len(frontier):
        iterations += 1
        if iterations > limit:
            raise EvaluationError(nonconvergence)
        if not traced:
            frontier = accumulator.absorb(step(frontier))
            continue
        with tracing.span("fixpoint.iteration", var=var, iteration=iterations,
                          delta=len(frontier), engine=engine) as span:
            produced = step(frontier)
            # Read before absorb: a grouped accumulator consumes the
            # step's sets in place.
            span.set_attribute("produced", len(produced))
            frontier = accumulator.absorb(produced)
            span.set_attribute("total", len(accumulator))
    return iterations


@dataclass
class FixpointBind:
    """One fixpoint's step, bound once per execution.

    ``kernel`` is the bound columnar program; when it is None the row
    engine runs the step, and ``row_step`` evaluates the variable part —
    its recursion-constant operands frozen into literals that carry
    their indexes — against one delta.  The rest is what the accounting
    reads: one broadcast per entry of ``broadcast_sizes``, and one index
    access per ``indexed_ops`` on every iteration, ``index_builds`` of
    which the bind itself had to build.
    """

    var: str
    kernel: BoundKernel | None
    row_step: Callable[[Relation], Relation] | None
    broadcast_sizes: tuple[int, ...]
    indexed_ops: int
    index_builds: int

    def index_events(self, iterations: int) -> tuple[int, int]:
        """``(builds, reuses)`` over ``iterations`` iterations in total,
        of every loop that ran this bind: the bind's own builds, and a
        reuse for every other access.  No iteration, no access."""
        if not iterations:
            return 0, 0
        return (self.index_builds,
                self.indexed_ops * iterations - self.index_builds)


@dataclass
class FixpointRun:
    """What one single-node fixpoint run reports back to its caller.

    The index counters are :meth:`FixpointBind.index_events` of this run
    alone; ``probes`` counts the kernels' probe rows during the run.
    """

    relation: Relation
    iterations: int
    index_builds: int = 0
    index_reuses: int = 0
    probes: int = 0


def run_seed(cache: KernelProgramCache | None, shape: SeedShape,
             seed: Term, leaf: Relation, dictionary: ValueDictionary,
             resolve: Callable[[Term], Relation]) -> CodeRows | None:
    """``seed`` — a fixpoint's constant part of shape ``shape`` — as code
    tuples: its program, bound, run once over ``leaf``'s memoized
    encoding.  None when the kernels are off or refuse the shape; the
    caller then evaluates the seed on rows.  ``resolve`` serves the
    seed's other operands, as it serves the step's."""
    bound = bind_seed(cache, shape, seed, leaf.columns, dictionary, resolve)
    if bound is None:
        return None
    return CodeRows(shape.columns,
                    bound.step(leaf.columnar(dictionary).code_rows()),
                    dictionary)


def run_fixpoint(bind: FixpointBind, seed: Relation | CodeRows,
                 dictionary: ValueDictionary, limit: int,
                 nonconvergence: str) -> FixpointRun:
    """Evaluate ``mu(bind.var = seed U phi)``, ``phi`` being ``bind``'s step.

    Guard and message are identical on both engines.  The kernels hold
    ``X`` grouped on its stable column when the step offers it and the
    seed has :data:`GROUPED_MIN_ROWS_PER_KEY` rows per key, else flat:
    same deltas.  ``seed`` may come encoded (a seed program's output, a
    ``Pplw`` chunk of it); the row engine decodes it.  An empty seed is
    its own fixpoint: it returns after 0 iterations, having stepped
    nothing and touched no index.
    """
    var = bind.var
    if not seed:
        return FixpointRun(seed if isinstance(seed, Relation) else
                           Relation._from_trusted(seed.columns, frozenset()),
                           0)
    bound = bind.kernel
    if bound is None:
        if isinstance(seed, CodeRows):
            seed = seed.to_relation()
        columns = seed.columns
        row_step = bind.row_step

        def step(delta: Relation) -> Relation:
            produced = row_step(delta)
            if produced.columns != columns:
                raise EvaluationError(
                    f"fixpoint on {var!r}: the variable part produced "
                    f"schema {produced.columns} but the constant part has "
                    f"schema {columns}")
            return produced

        accumulator = DeltaAccumulator(seed)
        iterations = semi_naive(step, accumulator, seed, var=var,
                                engine="row", limit=limit,
                                nonconvergence=nonconvergence)
        return FixpointRun(accumulator.relation(), iterations,
                           *bind.index_events(iterations))
    # From here to the decode the frontier stays encoded: the step's
    # output goes into the accumulator, and the accumulator's fresh part
    # into the next step, as they are — grouped on the stable column
    # where the kernel offers it and the seed has enough rows per key,
    # otherwise a flat set of code tuples.
    if isinstance(seed, Relation):
        seed = CodeRows.encode(seed, dictionary)
    stable = bound.stable_position
    if stable is not None and len(seed) >= GROUPED_MIN_ROWS_PER_KEY \
            * len(set(map(itemgetter(stable), seed.rows))):
        step = bound.grouped_step
        frontier = seed.code_groups(stable)
        columnar = GroupedDeltaAccumulator(seed.columns, stable, frontier)
    else:
        step = bound.step
        frontier = seed.rows
        columnar = ColumnarDeltaAccumulator(seed.columns, frontier)
    # The bound counter is shared by every run of the bind (the tasks of
    # one Pplw execution): this run's probes are its change.
    probes = bound.probe_counter[0]
    iterations = semi_naive(step, columnar, frontier, var=var,
                            engine="columnar", limit=limit,
                            nonconvergence=nonconvergence)
    return FixpointRun(columnar.relation(dictionary), iterations,
                       *bind.index_events(iterations),
                       probes=bound.probe_counter[0] - probes)
