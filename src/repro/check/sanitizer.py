"""Runtime sanitizer: lock ordering and snapshot immutability.

The static analyzer checks *programs*; this module checks the *runtime
invariants* the architecture silently depends on:

* **Lock-order tracking** — every lock in the library is created through
  :func:`ordered_lock` / :func:`ordered_rlock`, which names it and (when
  the sanitizer is active) records the *acquired-while-holding* graph
  across all threads.  Acquiring ``B`` while holding ``A`` after ``A``
  was ever acquired while holding ``B`` is a potential AB/BA deadlock
  and is flagged before the acquisition happens.
* **Snapshot immutability** — relations entering a
  :class:`~repro.data.snapshot.DatabaseSnapshot` are marked frozen;
  while the sanitizer is active a guard is patched into
  ``Relation.__setattr__`` that poisons any post-freeze rebinding of
  the row/column storage (memoized caches stay writable).

Activation is ContextVar-gated like :func:`repro.data.columnar.row_mode`
— ``with sanitize():`` covers the current context only — plus a
process-wide switch (:func:`enable_sanitizer`, or the ``REPRO_SANITIZE``
environment variable read at import) used by the sanitizer CI job, since
service worker threads run outside the test's context.  When no
activation is live the ordered locks delegate straight to the underlying
``threading`` primitive and the ``Relation`` guard is uninstalled, so
the production hot path pays nothing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar

from ..errors import SanitizerError

__all__ = ["OrderedLock", "SanitizerState", "disable_sanitizer",
           "enable_sanitizer", "ordered_lock", "ordered_rlock",
           "sanitize", "sanitizer_enabled"]


class SanitizerState:
    """Violations and the lock-order graph of one sanitizer activation.

    ``strict`` raises :class:`SanitizerError` at the violation site;
    otherwise violations are only recorded (and can be asserted on via
    :attr:`violations`).
    """

    def __init__(self, *, strict: bool = True):
        self.strict = strict
        self.violations: list[tuple[str, str]] = []
        # Guards the sanitizer's own state; deliberately a bare primitive
        # (tracking the tracker would recurse).
        self._mutex = threading.Lock()
        #: ``_after[a]`` = lock names ever acquired while ``a`` was held.
        self._after: dict[str, set[str]] = {}

    # -- Violations ------------------------------------------------------------

    def record(self, kind: str, message: str) -> None:
        with self._mutex:
            self.violations.append((kind, message))
        if self.strict:
            raise SanitizerError(message)

    def violation_kinds(self) -> tuple[str, ...]:
        with self._mutex:
            return tuple(kind for kind, _ in self.violations)

    # -- Lock ordering ---------------------------------------------------------

    def observe_acquire(self, name: str, held: list[str]) -> None:
        """Record edges ``held -> name``; flag a cycle before it deadlocks."""
        inversion: str | None = None
        with self._mutex:
            for holder in held:
                if holder == name:
                    continue
                self._after.setdefault(holder, set()).add(name)
            for holder in held:
                if holder != name and self._reaches(name, holder):
                    inversion = holder
                    break
        if inversion is not None:
            self.record(
                "lock-order",
                f"lock-order inversion: acquiring {name!r} while holding "
                f"{inversion!r}, but {inversion!r} has been acquired while "
                f"{name!r} was held (potential AB/BA deadlock)")

    def _reaches(self, start: str, target: str) -> bool:
        """True when the acquired-after graph has a path start -> target."""
        seen = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for successor in self._after.get(current, ()):
                if successor == target:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return False


_local_state: ContextVar[SanitizerState | None] = ContextVar(
    "repro_sanitizer", default=None)
_global_state: SanitizerState | None = None


class _Held(threading.local):
    """Per thread, the ordered locks it holds while tracked."""

    def __init__(self) -> None:
        self.stack: list[OrderedLock] = []


_held = _Held()


def _state() -> SanitizerState | None:
    state = _local_state.get()
    if state is not None:
        return state
    return _global_state


def sanitizer_enabled() -> bool:
    """True when a sanitizer activation covers the current context."""
    return _state() is not None


# -- Ordered locks -------------------------------------------------------------

class OrderedLock:
    """A named lock participating in deadlock-cycle detection.

    Wraps a ``threading.Lock`` or ``RLock``.  With the sanitizer off the
    wrapper is a thin delegation; with it on, every acquisition records
    the set of locks the thread already holds into the shared
    acquired-after graph and flags inversions.  Reentrant acquisitions
    of the same instance are never treated as new edges.
    """

    __slots__ = ("name", "_inner")

    def __init__(self, name: str, inner):
        self.name = name
        self._inner = inner

    def _observe(self) -> None:
        state = _state()
        if state is None:
            return
        stack = _held.stack
        if any(entry is self for entry in stack):
            return  # reentrant acquisition of the same lock
        state.observe_acquire(self.name,
                              [entry.name for entry in stack])

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self._observe()
        acquired = self._inner.acquire(blocking, timeout)
        if acquired and _state() is not None:
            _held.stack.append(self)
        return acquired

    def release(self) -> None:
        self.__exit__()

    def __enter__(self) -> bool:
        # The state is read once: with no activation a ``with`` costs the
        # inner lock and no held-stack bookkeeping.
        if _global_state is None and _local_state.get() is None:
            return self._inner.acquire()
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        # Drops the held-stack entry whatever the sanitizer says now: an
        # acquisition made while it was on may be released after it went
        # off, and must leave no stale entry behind.
        self._inner.release()
        stack = _held.stack
        if stack:
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is self:
                    del stack[index]
                    break

    def locked(self) -> bool:
        locked = getattr(self._inner, "locked", None)
        return locked() if locked is not None else False

    def __repr__(self) -> str:
        return f"OrderedLock({self.name!r})"


def ordered_lock(name: str) -> OrderedLock:
    """A named non-reentrant lock registered with the sanitizer."""
    return OrderedLock(name, threading.Lock())


def ordered_rlock(name: str) -> OrderedLock:
    """A named reentrant lock registered with the sanitizer."""
    return OrderedLock(name, threading.RLock())


# -- Relation immutability guard ----------------------------------------------

_guard_depth = 0
_guard_mutex = threading.Lock()


def _guarded_relation_setattr(self, name, value):
    if name in ("_columns", "_rows") and getattr(self, "_frozen", False):
        state = _state()
        if state is not None:
            state.record(
                "immutability",
                f"mutation of Relation.{name} after the relation was "
                f"frozen into a snapshot (snapshots must stay immutable)")
    object.__setattr__(self, name, value)


def _install_guards() -> None:
    global _guard_depth
    from ..data.relation import Relation
    with _guard_mutex:
        _guard_depth += 1
        if _guard_depth == 1:
            Relation.__setattr__ = _guarded_relation_setattr


def _uninstall_guards() -> None:
    global _guard_depth
    from ..data.relation import Relation
    with _guard_mutex:
        _guard_depth = max(0, _guard_depth - 1)
        if _guard_depth == 0 and "__setattr__" in vars(Relation):
            del Relation.__setattr__


# -- Activation ----------------------------------------------------------------

@contextmanager
def sanitize(*, strict: bool = True):
    """Enable the sanitizer for the current context (like ``row_mode``)."""
    state = SanitizerState(strict=strict)
    token = _local_state.set(state)
    _install_guards()
    try:
        yield state
    finally:
        _local_state.reset(token)
        _uninstall_guards()


def enable_sanitizer(*, strict: bool = True) -> SanitizerState:
    """Enable the sanitizer process-wide (all threads, all contexts).

    Used by the sanitizer CI job via ``REPRO_SANITIZE=1``.
    """
    global _global_state
    if _global_state is not None:
        return _global_state
    _global_state = SanitizerState(strict=strict)
    _install_guards()
    return _global_state


def disable_sanitizer() -> None:
    """Turn the process-wide sanitizer off again."""
    global _global_state
    if _global_state is not None:
        _global_state = None
        _uninstall_guards()
