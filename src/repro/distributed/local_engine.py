"""The per-worker local engine of ``Pplw^pg`` (the PostgreSQL stand-in).

In the ``Pplw^pg`` physical plan, every Spark worker delegates its local
fixpoint to a PostgreSQL instance running next to it: the worker's chunk of
the constant part is exposed as a view, the mu-RA fixpoint is translated to
a recursive SQL query, and the rows are iterated back into Spark.

The reproduction runs that local loop on the shared engines
(:func:`repro.distributed.plans.run_local_loop`); what is particular to the
PostgreSQL variant lives here: the iteration bound shipped with every
local-loop task, and the indicative ``WITH RECURSIVE`` rendering of the
translation step (:func:`fixpoint_to_sql`).
"""

from __future__ import annotations

from ..algebra.conditions import decompose
from ..algebra.printer import term_to_string
from ..algebra.terms import Fixpoint
from ..errors import DistributionError

#: Safety bound on local fixpoint iterations.
MAX_LOCAL_ITERATIONS = 1_000_000


def fixpoint_to_sql(fixpoint: Fixpoint, view_name: str = "constant_part") -> str:
    """Render a fixpoint as an indicative ``WITH RECURSIVE`` query.

    The rendering is documentation-oriented (it shows what is shipped to the
    per-worker engine); it is not parsed back.
    """
    if not isinstance(fixpoint, Fixpoint):
        raise DistributionError("fixpoint_to_sql expects a fixpoint term")
    decomposition = decompose(fixpoint)
    variable = decomposition.variable_part
    variable_text = term_to_string(variable) if variable is not None else "<none>"
    return (
        f"WITH RECURSIVE {fixpoint.var} AS (\n"
        f"    SELECT * FROM {view_name}\n"
        f"  UNION\n"
        f"    -- variable part: {variable_text}\n"
        f"    SELECT * FROM step({fixpoint.var})\n"
        f")\n"
        f"SELECT * FROM {fixpoint.var};"
    )
