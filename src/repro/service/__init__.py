"""Query-serving subsystem: caches + concurrent multi-client scheduling.

This package wraps a :class:`~repro.session.Session` into a
:class:`QueryService` able to serve many concurrent clients through the
session's shared staged pipeline:

* :mod:`repro.service.plan_cache` — memoizes the rewriter + cost-ranking
  decision per (canonical query, schemas and statistics of its inputs)
  (owned per graph by the session, shared with embedded use and
  prepared queries),
* :mod:`repro.service.result_cache` — memoizes whole query results keyed
  by the snapshot fingerprint of their inputs (no eager purges),
* :mod:`repro.service.server` — admission control, scheduling, timeouts
  and the mutation pass-through.

Every serving count — requests per graph and status, latency and queue
wait, cache hits, misses, evictions and invalidations — lives in the
process metrics registry (:func:`repro.obs.get_registry`), the one store
``/metrics`` renders; nothing here keeps a second copy.

See the "Serving layer" section of ``DESIGN.md`` and ``examples/serve.py``.
"""

from .cache import MISS, LRUCache
from ..percentiles import percentile
from .plan_cache import CachedPlan, PlanCache, PlanKey
from .result_cache import ResultCache, ResultKey
from .server import (DEFAULT_MAX_IN_FLIGHT, DEFAULT_QUEUE_CAPACITY, FAILED,
                     OK, REJECTED, UNBOUNDED, QueryService, ServedResult)

__all__ = [
    "CachedPlan",
    "DEFAULT_MAX_IN_FLIGHT",
    "DEFAULT_QUEUE_CAPACITY",
    "FAILED",
    "LRUCache",
    "MISS",
    "OK",
    "PlanCache",
    "PlanKey",
    "QueryService",
    "REJECTED",
    "ResultCache",
    "ResultKey",
    "ServedResult",
    "UNBOUNDED",
    "percentile",
]
