"""Regression tests for the hash-index cache identity, on the shared layer.

History: the LocalSQLEngine cache was first keyed on ``id(relation)``.
CPython reuses the addresses of collected objects, so after a relation died
a *different* relation could land on the same address and silently receive
the dead relation's index — wrong join results with no error.  PR 2 re-keyed
the cache on the relation object; this PR moves the index onto the relation
itself (``Relation.index_on`` memoizes on the instance), which makes the
failure mode structurally impossible: an index cannot outlive its relation
because it *is part of* the relation.  These tests pin that property and
the engine's build/reuse accounting on top of the shared layer.
"""

from __future__ import annotations

import gc
import pickle

from repro.data.relation import Relation
from repro.data.storage import HashIndex
from repro.distributed.local_engine import LocalSQLEngine


def edges(pairs):
    return Relation.from_pairs(pairs, columns=("src", "trg"))


def test_index_is_correct_after_id_reuse():
    """A new relation allocated at a dead relation's address must not
    inherit the dead relation's index (the original id-keying bug)."""
    engine = LocalSQLEngine({})
    first = edges([(1, 2), (1, 3)])
    stale = engine._index_for(first, ("src",))
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
    index = engine._index_for(fresh, ("src",))
    assert set(index.buckets) == {(7,), (9,)}
    assert index.probe((1,)) == []


def test_engine_uses_the_shared_relation_index():
    """The engine's index IS the relation's memoized index — one layer."""
    engine = LocalSQLEngine({})
    relation = edges([(1, 2), (2, 3)])
    via_engine = engine._index_for(relation, ("src",))
    assert via_engine is relation.index_on(("src",))
    assert relation.has_index(("src",))


def test_same_relation_reuses_index_per_key_columns():
    engine = LocalSQLEngine({})
    relation = edges([(1, 2), (2, 3)])
    first = engine._index_for(relation, ("src",))
    again = engine._index_for(relation, ("src",))
    other_columns = engine._index_for(relation, ("trg",))
    assert again is first
    assert other_columns is not first
    assert engine.stats.index_builds == 2
    assert engine.stats.index_reuses == 1


def test_index_cannot_outlive_its_relation():
    """The memoization lives on the relation: no external cache retains it."""
    engine = LocalSQLEngine({})
    relation = edges([(1, 2)])
    engine._index_for(relation, ("src",))
    # The engine holds no index state of its own anymore.
    assert not hasattr(engine, "_index_cache")


def test_distinct_relations_get_distinct_indexes():
    engine = LocalSQLEngine({})
    one = engine._index_for(edges([(1, 2)]), ("src",))
    two = engine._index_for(edges([(5, 6)]), ("src",))
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


def test_pickling_drops_the_index_cache():
    """Indexes are derived data: never shipped to process-pool workers."""
    relation = edges([(1, 2), (2, 3)])
    relation.index_on(("src",))
    clone = pickle.loads(pickle.dumps(relation))
    assert clone == relation
    assert not clone.has_index(("src",))
    # The clone can rebuild an equivalent index on demand.
    assert clone.index_on(("src",)).probe((1,)) == [(1, 2)]


