"""Exception hierarchy for the Dist-mu-RA reproduction.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything coming out of the library with a single ``except``
clause while still being able to distinguish precise failure modes.
"""

from __future__ import annotations


def format_snippet(source: str, position: int, length: int = 1) -> str:
    """Render the source line around ``position`` with a caret underline.

    This is the one formatting path shared by the UCRPQ parser, the
    Datalog parser and the diagnostics renderer in :mod:`repro.check`,
    so caret snippets look the same everywhere::

          ?x <- ?x +knows ?y
                   ^

    ``position`` is a 0-based character offset into ``source`` (clamped
    to the source length); ``length`` widens the underline to cover a
    whole span.  Multi-line sources show only the offending line.
    """
    position = max(0, min(position, len(source)))
    line_start = source.rfind("\n", 0, position) + 1
    line_end = source.find("\n", position)
    if line_end == -1:
        line_end = len(source)
    line = source[line_start:line_end]
    column = position - line_start
    width = 1
    if column < len(line):
        width = max(1, min(length, len(line) - column))
    return f"  {line}\n  {' ' * column}{'^' * width}"


def line_and_column(source: str, position: int) -> tuple[int, int]:
    """The 1-based line and column of a character offset in ``source``."""
    position = max(0, min(position, len(source)))
    line = source.count("\n", 0, position) + 1
    column = position - (source.rfind("\n", 0, position) + 1) + 1
    return line, column


class ReproError(Exception):
    """Base class of every exception raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A relational operation was applied to incompatible schemas.

    Examples: union of relations with different columns, renaming a column
    that does not exist, joining relations whose common columns were
    expected but missing.
    """


class AlgebraError(ReproError):
    """A mu-RA term is malformed or violates a structural requirement."""


class FixpointConditionError(AlgebraError):
    """A fixpoint term does not satisfy the Fcond conditions.

    The conditions (positive, linear, non mutually recursive) are required
    by Proposition 1 of the paper for the fixpoint to be well defined and
    for the semi-naive evaluation and fixpoint-splitting techniques to be
    applicable.
    """


class EvaluationError(ReproError):
    """Evaluation of a term failed (unknown relation, missing column...)."""


class QueryParseError(ReproError):
    """A UCRPQ query string could not be parsed."""


class TranslationError(ReproError):
    """A query could not be translated into the target representation."""


class RewriteError(ReproError):
    """A rewrite rule was applied to a term it does not match."""


class CostEstimationError(ReproError):
    """The cost model could not produce an estimate for a term."""


class DistributionError(ReproError):
    """The distributed runtime was used incorrectly."""


class PlanSelectionError(ReproError):
    """No physical plan could be generated or selected for a term."""


class DatalogError(ReproError):
    """A Datalog program is malformed or cannot be evaluated."""


class DatalogParseError(DatalogError):
    """A Datalog program text could not be parsed.

    Mirrors :class:`QueryParseError`: carries the 0-based character
    ``position`` and the ``source`` text, and its message embeds a caret
    snippet rendered by :func:`format_snippet`.
    """

    position: int = 0
    source: str = ""


class AnalysisError(ReproError):
    """Static analysis rejected a query or program (strict mode).

    ``diagnostics`` holds the :class:`repro.check.Diagnostic` objects
    that caused the rejection so servers can return them structurally
    instead of flattening everything into one string.
    """

    def __init__(self, message: str, *, diagnostics: object = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or ())


class SanitizerError(ReproError):
    """The runtime sanitizer detected an invariant violation.

    Raised by :mod:`repro.check.sanitizer` when it observes a potential
    lock-order deadlock cycle or a mutation of a snapshot-frozen
    :class:`~repro.data.relation.Relation`.
    """


class PregelError(ReproError):
    """A Pregel/GraphX-style computation was configured incorrectly."""


class DatasetError(ReproError):
    """A dataset generator received invalid parameters."""


class TransactionError(ReproError):
    """A mutation batch was used incorrectly.

    Examples: mutating through a transaction that was already committed or
    rolled back, or mutating a pinned read-only session view.
    """


class ServiceError(ReproError):
    """The query-serving layer was used incorrectly or is shut down."""


class ServiceOverloadError(ServiceError):
    """Admission control rejected a query: the service queue is full."""


class NetworkError(ReproError):
    """Failure in the HTTP serving tier (server- or client-side).

    Carries an HTTP ``status`` so the server maps the error straight to a
    response and clients can branch on the code, and an optional
    ``retry_after`` (seconds) for 429/503 responses.
    """

    status: int = 500

    def __init__(self, message: str, *, status: int | None = None,
                 retry_after: float | None = None):
        super().__init__(message)
        if status is not None:
            self.status = status
        self.retry_after = retry_after


class ProtocolError(NetworkError):
    """An HTTP request could not be parsed or violates the wire protocol."""

    status = 400


class AuthenticationError(NetworkError):
    """The request carried no (or an unknown) tenant auth token."""

    status = 401


class AuthorizationError(NetworkError):
    """An authenticated tenant addressed a graph it is not mapped to."""

    status = 403


class QuotaExceededError(NetworkError):
    """A tenant breached its rate limit or max-in-flight quota (429)."""

    status = 429
