"""The semi-naive fixpoint driver: the one loop every engine runs.

Algorithm 1 of the paper::

    X = R
    new = R
    while new != empty:
        new = phi(new) \\ X
        X = X U new
    return X

is written out exactly once, in :func:`semi_naive`.  The centralized
evaluator, the per-worker local loops of ``Pplw``, the driver loop of
``Pgld`` and view maintenance differ only in *where* ``phi`` runs (the
``step`` callable) and *how* ``X`` is held (the accumulator); the
iteration guard and the ``fixpoint.iteration`` span live here.

:func:`run_fixpoint` adds the one engine selection the single-node callers
share: bind the columnar kernels when they support the shape, otherwise
run the caller's row step.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..data.columnar import ColumnarDeltaAccumulator, ValueDictionary
from ..data.relation import Relation
from ..data.storage import DeltaAccumulator
from ..errors import EvaluationError
from ..obs import tracing
from .kernels import KernelProgramCache, bind_program
from .terms import Term

__all__ = ["FixpointRun", "run_fixpoint", "semi_naive"]


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
            frontier = accumulator.absorb(produced)
            span.set_attribute("produced", len(produced))
            span.set_attribute("total", len(accumulator))
    return iterations


@dataclass
class FixpointRun:
    """What one single-node fixpoint run reports back to its caller.

    The index and probe counters cover the columnar kernels only; a row
    step accounts its own index activity in its engine's stats.
    """

    relation: Relation
    iterations: int
    index_builds: int = 0
    index_reuses: int = 0
    probes: int = 0


def run_fixpoint(cache: KernelProgramCache | None, var: str,
                 variable_part: Term, seed: Relation,
                 dictionary: ValueDictionary,
                 resolve: Callable[[Term], Relation],
                 row_step: Callable[[Relation], Relation],
                 limit: int, nonconvergence: str) -> FixpointRun:
    """Evaluate ``mu(var = seed U variable_part)`` on the best engine.

    The columnar kernels run the loop when :func:`bind_program` accepts
    the shape (``resolve`` evaluates the recursion-constant operands);
    otherwise ``row_step`` — the caller's tuple-at-a-time evaluation of
    the variable part against one delta — does.  Guard and message are
    identical on both engines.
    """
    bound = bind_program(cache, var, variable_part, seed.columns,
                         dictionary, resolve)
    if bound is None:
        accumulator = DeltaAccumulator(seed)
        iterations = semi_naive(row_step, accumulator, seed, var=var,
                                engine="row", limit=limit,
                                nonconvergence=nonconvergence)
        return FixpointRun(accumulator.relation(), iterations)
    # The frontier is a set of code tuples from here to the decode: the
    # step's output goes into the accumulator, and the accumulator's
    # ``fresh`` set into the next step, as they are.
    frontier = seed.columnar(dictionary).code_rows()
    columnar = ColumnarDeltaAccumulator(seed.columns, frontier)
    iterations = semi_naive(bound.step, columnar, frontier, var=var,
                            engine="columnar", limit=limit,
                            nonconvergence=nonconvergence)
    # The row engine accesses each constant-side index once per iteration
    # (build on the first touch, reuse after); mirror that accounting so
    # index-reuse metrics stay comparable across engines.
    reuses = bound.index_reuses + bound.indexed_ops * max(iterations - 1, 0)
    return FixpointRun(columnar.relation(dictionary), iterations,
                       index_builds=bound.index_builds, index_reuses=reuses,
                       probes=bound.probe_counter[0])
