"""Runtime sanitizer regressions: lock ordering, snapshot immutability
and the activation plumbing.

The two seeded regressions the CI sanitizer job exists for — an AB/BA
lock-order inversion and a post-freeze relation mutation — are asserted
here both in strict mode (raising at the violation site) and in
record-only mode.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import pytest

from repro.check import (disable_sanitizer, enable_sanitizer, ordered_lock,
                         ordered_rlock, sanitize, sanitizer_enabled)
from repro.check import sanitizer as sanitizer_module
from repro.data import LabeledGraph
from repro.data.relation import Relation
from repro.errors import SanitizerError
from repro.session import Session

#: True when the suite itself runs under ``REPRO_SANITIZE=1`` (the CI
#: sanitizer job): the process-wide state is on before any test starts.
_GLOBAL_ACTIVE = sanitizer_module._global_state is not None

only_without_global_sanitizer = pytest.mark.skipif(
    _GLOBAL_ACTIVE,
    reason="asserts sanitizer-off behaviour; the process-wide sanitizer "
           "is active (REPRO_SANITIZE=1)")


@contextmanager
def process_wide_state():
    """The process-wide sanitizer state — reusing the CI activation when
    it is already on, creating (and afterwards removing) one otherwise."""
    state = sanitizer_module._global_state
    created = state is None
    if created:
        state = enable_sanitizer(strict=False)
    try:
        yield state
    finally:
        if created:
            disable_sanitizer()


# -- Lock ordering -------------------------------------------------------------

def test_lock_order_inversion_is_caught_before_it_deadlocks():
    lock_a = ordered_lock("test.a")
    lock_b = ordered_lock("test.b")
    with sanitize():
        with lock_a:
            with lock_b:
                pass  # records the edge a -> b
        with lock_b:
            with pytest.raises(SanitizerError, match="lock-order inversion"):
                lock_a.acquire()


def test_lock_order_inversion_recorded_in_non_strict_mode():
    lock_a = ordered_lock("test.a2")
    lock_b = ordered_lock("test.b2")
    with sanitize(strict=False) as state:
        with lock_a, lock_b:
            pass
        with lock_b, lock_a:
            pass
        assert state.violation_kinds() == ("lock-order",)


def test_lock_order_graph_is_shared_across_threads():
    """Thread 1 teaches the graph a -> b; the main thread's b -> a trips."""
    lock_a = ordered_lock("test.a3")
    lock_b = ordered_lock("test.b3")
    with process_wide_state() as state:
        def ab_order():
            with lock_a, lock_b:
                pass
        worker = threading.Thread(target=ab_order)
        worker.start()
        worker.join()
        # The violation is recorded before a strict state raises, so the
        # assertion holds under both the CI activation and a fresh one.
        try:
            with lock_b, lock_a:
                pass
        except SanitizerError:
            pass
        assert "lock-order" in state.violation_kinds()


def test_consistent_ordering_and_reentrancy_stay_silent():
    lock_a = ordered_lock("test.a4")
    lock_b = ordered_lock("test.b4")
    rlock = ordered_rlock("test.r4")
    with sanitize() as state:
        for _ in range(3):
            with lock_a, lock_b:
                pass
        with rlock, rlock:  # reentrant acquisition is not a self-edge
            pass
        with rlock, lock_a:
            pass
        assert state.violations == []


@only_without_global_sanitizer
def test_ordered_locks_are_plain_locks_when_sanitizer_is_off():
    lock_a = ordered_lock("test.a5")
    lock_b = ordered_lock("test.b5")
    assert not sanitizer_enabled()
    with lock_a, lock_b:
        pass
    with lock_b, lock_a:  # would be an inversion under the sanitizer
        pass
    assert lock_a.acquire(blocking=False)
    assert lock_a.locked()
    lock_a.release()


def test_toggling_between_acquire_and_release_leaves_no_held_entry():
    """An acquisition tracked while the sanitizer is on and released
    after it went off (and the reverse) leaves the held stack clean, so
    no later acquisition sees a stale holder."""
    lock_a = ordered_lock("test.a6")
    lock_b = ordered_lock("test.b6")
    held = sanitizer_module._held
    before = list(held.stack)
    with sanitize():
        lock_a.acquire()
        assert held.stack[-1] is lock_a
    lock_a.release()  # this context's activation has ended
    assert held.stack == before
    lock_b.acquire()
    with sanitize() as state:
        lock_b.release()
        assert held.stack == before
        with lock_b, lock_a:  # no stale holder: no edge a -> b
            pass
        assert state.violations == []
        assert "test.a6" not in state._after


# -- Snapshot immutability -----------------------------------------------------

def _snapshot_relation() -> Relation:
    graph = LabeledGraph(name="sanitized")
    graph.add_edges([("a", "knows", "b")])
    snapshot = Session(graph).snapshot()
    return snapshot["knows"]


def test_post_freeze_mutation_is_caught():
    relation = _snapshot_relation()
    with sanitize():
        with pytest.raises(SanitizerError, match="frozen into a snapshot"):
            relation._rows = frozenset()
        with pytest.raises(SanitizerError, match="frozen into a snapshot"):
            relation._columns = ("x",)


def test_post_freeze_mutation_recorded_in_non_strict_mode():
    relation = _snapshot_relation()
    original = relation.rows
    with sanitize(strict=False) as state:
        relation._rows = frozenset()
        assert state.violation_kinds() == ("immutability",)
    # Repair for the rest of the suite (the guard records, then assigns).
    object.__setattr__(relation, "_rows", original)


def test_memoized_caches_stay_writable_under_the_guard():
    relation = _snapshot_relation()
    with sanitize() as state:
        relation._index_cache = None
        relation._columnar_cache = None
        assert relation.sorted_rows() is relation.sorted_rows()
        assert state.violations == []


def test_unfrozen_relations_are_not_guarded():
    relation = Relation.from_pairs([("a", "b")])
    with sanitize() as state:
        relation._rows = frozenset([("a", "c")])
        assert state.violations == []


@only_without_global_sanitizer
def test_mutation_guard_uninstalls_after_the_context():
    relation = _snapshot_relation()
    original = relation.rows
    with sanitize(strict=False):
        pass
    assert "__setattr__" not in vars(Relation)
    relation._rows = frozenset()  # off again: a plain (unwise) assignment
    object.__setattr__(relation, "_rows", original)


# -- Activation plumbing -------------------------------------------------------

def test_sanitize_is_context_scoped():
    before = sanitizer_enabled()
    with sanitize():
        assert sanitizer_enabled()
    assert sanitizer_enabled() == before


def test_enable_sanitizer_is_idempotent_and_process_wide():
    with process_wide_state() as state:
        assert enable_sanitizer() is state
        seen: list[bool] = []
        worker = threading.Thread(
            target=lambda: seen.append(sanitizer_enabled()))
        worker.start()
        worker.join()
        assert seen == [True]
    assert sanitizer_enabled() == _GLOBAL_ACTIVE
