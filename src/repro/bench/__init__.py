"""Benchmark harness: system adapters, run records, table rendering."""

from .harness import (BIG_DATALOG, DIST_MU_RA, FAILED, GRAPHX, OK, UNSUPPORTED,
                      MeasuredRun, run_bigdatalog, run_distmura, run_graphx)
from .reporting import (comparison_table, render_table, series_table,
                        speedup_summary)

__all__ = [
    "BIG_DATALOG",
    "DIST_MU_RA",
    "FAILED",
    "GRAPHX",
    "MeasuredRun",
    "OK",
    "UNSUPPORTED",
    "comparison_table",
    "render_table",
    "run_bigdatalog",
    "run_distmura",
    "run_graphx",
    "series_table",
    "speedup_summary",
]
