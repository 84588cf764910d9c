"""Regression tests for the hash-index cache identity, on the shared layer.

History: the local engine's index cache was first keyed on ``id(relation)``.
CPython reuses the addresses of collected objects, so after a relation died
a *different* relation could land on the same address and silently receive
the dead relation's index — wrong join results with no error.  PR 2 re-keyed
the cache on the relation object; PR 3 moved the index onto the relation
itself (``Relation.index_on`` memoizes on the instance), which makes the
failure mode structurally impossible: an index cannot outlive its relation
because it *is part of* the relation.  These tests pin that property and
the evaluator's build/reuse accounting on top of the shared layer.
"""

from __future__ import annotations

import gc

from repro.algebra import (AntiProject, Evaluator, Fixpoint, Join, Literal,
                           RelVar, Union)
from repro.data.columnar import row_mode
from repro.data.relation import Relation
from repro.data.storage import HashIndex


def edges(pairs):
    return Relation.from_pairs(pairs, columns=("src", "trg"))


def join_with_delta(evaluator, delta):
    """One recursive step's join on the row engine: ``X``, seeded with
    the delta, against constant ``E`` — projected back onto the delta's
    columns, so the step keeps the seed's schema.  Only a fixpoint
    indexes its constant side: its bind does."""
    step = Join(RelVar("X"), RelVar("E"))
    dropped = tuple(c for c in ("src", "trg") if c not in delta.columns)
    if dropped:
        step = AntiProject(dropped, step)
    with row_mode():
        return evaluator.evaluate(
            Fixpoint("X", Union(Literal(delta), step)))


def test_index_is_correct_after_id_reuse():
    """A new relation allocated at a dead relation's address must not
    inherit the dead relation's index (the original id-keying bug)."""
    first = edges([(1, 2), (1, 3)])
    stale = first.index_on(("src",))
    assert set(stale.buckets) == {(1,)}
    dead_id = id(first)
    del first
    gc.collect()
    # Try to land a fresh relation on the reclaimed address; CPython's
    # allocator usually reuses it immediately for same-shaped objects.
    fresh = None
    for _ in range(4096):
        candidate = edges([(7, 8), (9, 10)])
        if id(candidate) == dead_id:
            fresh = candidate
            break
    if fresh is None:  # pragma: no cover - allocator did not cooperate
        fresh = edges([(7, 8), (9, 10)])
    index = fresh.index_on(("src",))
    assert set(index.buckets) == {(7,), (9,)}
    assert index.probe((1,)) == []


def test_engine_uses_the_shared_relation_index():
    """The evaluator's join index IS the relation's memoized index."""
    relation = edges([(1, 2), (2, 3)])
    evaluator = Evaluator({"E": relation})
    assert not relation.has_index(("src", "trg"))
    join_with_delta(evaluator, edges([(1, 2)]))
    assert relation.has_index(("src", "trg"))


def test_same_relation_reuses_index_per_key_columns():
    relation = edges([(1, 2), (2, 3)])
    evaluator = Evaluator({"E": relation})
    join_with_delta(evaluator, edges([(1, 2)]))
    join_with_delta(evaluator, edges([(2, 3)]))
    # Another key layout is another table.
    join_with_delta(evaluator, edges([(1, 2)]).antiproject("trg"))
    assert relation.index_on(("src",)) is not relation.index_on(("src", "trg"))
    assert evaluator.stats.index_builds == 2
    assert evaluator.stats.index_reuses == 1


def test_index_cannot_outlive_its_relation():
    """The memoization lives on the relation: no external cache retains it."""
    evaluator = Evaluator({"E": edges([(1, 2)])})
    join_with_delta(evaluator, edges([(1, 2)]))
    # The evaluator holds no index state of its own.
    assert not hasattr(evaluator, "_index_cache")


def test_distinct_relations_get_distinct_indexes():
    one = edges([(1, 2)]).index_on(("src",))
    two = edges([(5, 6)]).index_on(("src",))
    assert set(one.buckets) == {(1,)}
    assert set(two.buckets) == {(5,)}


def test_hash_index_probe_semantics():
    relation = edges([(1, 2), (1, 3), (4, 5)])
    index = relation.index_on(("src",))
    assert isinstance(index, HashIndex)
    assert sorted(index.probe((1,))) == [(1, 2), (1, 3)]
    assert index.probe((99,)) == []
    assert (4,) in index
    assert (99,) not in index
    assert len(index) == 3
