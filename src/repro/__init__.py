"""Dist-mu-RA reproduction: distributed evaluation of recursive relational algebra.

The public API re-exports the pieces most users need:

* :class:`Session` — the staged, lazy query pipeline and its front-ends
  (``ucrpq`` / ``datalog`` / ``relation`` / ``term`` / ``prepare``),
* :class:`Query` / :class:`PreparedQuery` — lazy handles and prepared,
  parameterized templates,
* :class:`QueryService` — concurrent, cached serving on top of a session,
* the data model (:class:`Relation`, :class:`LabeledGraph`),
* the mu-RA algebra (term constructors and the centralized evaluator),
* the simulated cluster and the physical plan names,
* observability entry points (:func:`configure_tracing`,
  :func:`configure_logging`, :func:`get_registry`) — the full surface
  lives in :mod:`repro.obs`.

See ``README.md`` for a quickstart and ``DESIGN.md`` for the architecture.
"""

from .data.graph import LabeledGraph
from .data.relation import Relation
from .data.snapshot import DatabaseSnapshot
from .data.tuples import Tup
from .session import (Parameter, PathBuilder, PreparedQuery, Query,
                      QueryResult, Session, Transaction)
from .distributed.cluster import SparkCluster
from .distributed.plans import PGLD, PPLW_SPARK
from .errors import ReproError, ServiceError, ServiceOverloadError
from .obs import (ExplainAnalyzeReport, MetricsRegistry, Tracer,
                  configure_logging, configure_tracing, get_registry)
from .service import UNBOUNDED, QueryService, ServedResult

__version__ = "1.4.0"

# The sanitizer CI job runs the whole suite under the runtime invariant
# guards; activating from the environment here means worker threads
# started anywhere in the library are covered too.
import os as _os

if _os.environ.get("REPRO_SANITIZE"):  # pragma: no cover - CI wiring
    from .check.sanitizer import enable_sanitizer as _enable_sanitizer

    _enable_sanitizer()

__all__ = [
    "DatabaseSnapshot",
    "ExplainAnalyzeReport",
    "LabeledGraph",
    "MetricsRegistry",
    "PGLD",
    "PPLW_SPARK",
    "Parameter",
    "PathBuilder",
    "PreparedQuery",
    "Query",
    "QueryResult",
    "QueryService",
    "Relation",
    "ReproError",
    "ServedResult",
    "ServiceError",
    "ServiceOverloadError",
    "Session",
    "SparkCluster",
    "Tracer",
    "Transaction",
    "Tup",
    "UNBOUNDED",
    "__version__",
    "configure_logging",
    "configure_tracing",
    "get_registry",
]
