"""Unified lazy Session/Query API: snapshot-isolated, multi-graph.

* :class:`Session` — owns the cluster, the execution lock and one or
  more named graphs, each an immutable versioned
  :class:`~repro.data.snapshot.DatabaseSnapshot`; hands out lazy query
  handles through its front-ends and commits mutations as copy-on-write
  snapshot swaps (:meth:`Session.transaction`, :meth:`Session.attach`,
  :meth:`Session.graph`, :meth:`Session.read_view`),
* :class:`Query` / :class:`DatalogQuery` — lazy, memoized, inspectable
  pipeline handles (``.ast`` / ``.term`` / ``.normalized`` / ``.plan()``
  / ``.explain()`` stages, ``collect()`` / ``count()`` / ``exists()`` /
  ``stream()`` actions), each pinned to the snapshot of its first stage
  run,
* :class:`Transaction` — a batch of edge mutations committed as one
  snapshot (or rolled back),
* :class:`PathBuilder` — programmatic query construction,
* :class:`PreparedQuery` / :class:`Parameter` — parameterized templates
  planned once and bound many times.

See the "Session API" and "Snapshots & transactions" sections of
``DESIGN.md`` and ``examples/session_tour.py``.
"""

from .builder import PathBuilder
from .parameters import PARAMETER_PREFIX, Parameter
from .prepared import PreparedQuery
from .query import DatalogQuery, Query
from .session import QueryResult, Session, Transaction

__all__ = [
    "DatalogQuery",
    "PARAMETER_PREFIX",
    "Parameter",
    "PathBuilder",
    "PreparedQuery",
    "Query",
    "QueryResult",
    "Session",
    "Transaction",
]
