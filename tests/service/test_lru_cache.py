"""LRU cache mechanics that the key-level tests don't cover: falsy
values vs misses, the public MISS sentinel and explicit discards.

The cache counts nothing itself: hits and misses are the session's
registry counts, and ``put`` / ``discard`` say whether they dropped an
entry so the plan and result caches can count it there."""

from __future__ import annotations

from repro.service import LRUCache, MISS


def test_cached_none_is_a_hit_not_a_miss():
    """Regression: ``get`` used to signal misses with ``None``, so a
    legitimately cached ``None`` (or any falsy value) was recomputed on
    every call and counted as a miss forever."""
    cache = LRUCache(capacity=4)
    cache.put("k", None)
    assert cache.get("k", MISS) is None
    assert cache.get("absent", MISS) is MISS
    assert "k" in cache and "absent" not in cache


def test_falsy_values_round_trip():
    cache = LRUCache(capacity=8)
    for key, value in (("zero", 0), ("empty", ()), ("false", False)):
        cache.put(key, value)
    for key, value in (("zero", 0), ("empty", ()), ("false", False)):
        assert cache.get(key, MISS) is not MISS
        assert cache.get(key, MISS) == value
    assert cache.keys() == ["zero", "empty", "false"]


def test_default_is_returned_on_miss():
    cache = LRUCache(capacity=2)
    assert cache.get("nope") is None
    assert cache.get("nope", default="fallback") == "fallback"


def test_discard_says_whether_it_dropped_an_entry():
    cache = LRUCache(capacity=4)
    assert cache.put("a", 1) is False  # room left: nothing evicted
    assert cache.discard("a") is True
    assert cache.discard("absent") is False  # not present: nothing to count
    assert "a" not in cache and len(cache) == 0


def test_keys_is_a_copy_safe_to_discard_while_iterating():
    """The result cache's retention rule discards while walking keys()."""
    cache = LRUCache(capacity=8)
    for key in "abcd":
        cache.put(key, key)
    cache.get("a")  # now most recently used
    keys = cache.keys()
    assert keys == ["b", "c", "d", "a"]
    for key in keys:
        if key != "c":
            cache.discard(key)
    assert cache.keys() == ["c"] and keys == ["b", "c", "d", "a"]
