"""Static analysis and runtime sanitization for the query pipeline.

Two halves:

* :mod:`repro.check.analyzer` — static diagnostics over every query
  front-end (UCRPQ text/AST, Datalog programs, mu-RA terms), surfaced
  through :meth:`Query.check`, :meth:`Session.analyze`, the service
  strict mode, ``POST /v1/analyze`` and the ``python -m repro.check``
  CLI.
* :mod:`repro.check.sanitizer` — runtime invariant checking (lock
  ordering, snapshot immutability), enabled with
  ``with sanitize():`` or process-wide via ``REPRO_SANITIZE=1``.

The analyzer half is imported lazily (PEP 562): the sanitizer is pulled
in by low-level modules (``data``, ``session``) at import time, and an
eager analyzer import from here would close a cycle back through the
query front-ends.
"""

from __future__ import annotations

from .diagnostics import (CODES, Diagnostic, DiagnosticReport, ERROR, INFO,
                          RecursionShape, WARNING, merge)
from .sanitizer import (OrderedLock, disable_sanitizer, enable_sanitizer,
                        ordered_lock, ordered_rlock, sanitize,
                        sanitizer_enabled)

_ANALYZER_EXPORTS = ("analyze", "analyze_query", "analyze_program",
                     "analyze_term", "classify_program")

__all__ = ["CODES", "Diagnostic", "DiagnosticReport", "ERROR", "INFO",
           "OrderedLock", "RecursionShape", "WARNING",
           "disable_sanitizer", "enable_sanitizer", "merge",
           "ordered_lock", "ordered_rlock", "sanitize",
           "sanitizer_enabled", *_ANALYZER_EXPORTS]


def __getattr__(name: str):
    if name in _ANALYZER_EXPORTS:
        from . import analyzer
        return getattr(analyzer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
