"""Rendering of benchmark results as the paper's tables and series.

Every benchmark prints, in addition to the pytest-benchmark timing table, a
compact textual table equivalent to the corresponding figure of the paper:
one row per query (or parameter value), one column per system, each cell a
time or a failure cross.

All tables go through one shared renderer (:func:`render_table`), so the
figure tables, the parameter sweeps and the serving-layer latency tables
(:func:`latency_table`, with p50/p95/p99 columns) share one format.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

from ..percentiles import DEFAULT_PERCENTILES
from ..percentiles import percentiles as percentiles_of
from .harness import MeasuredRun


def render_table(title: str, header: Sequence[str],
                 rows: Sequence[Sequence[str]],
                 min_width: int = 10) -> str:
    """Render a titled, column-aligned text table (the shared formatter).

    Column widths fit the widest cell (with ``min_width`` as a floor for
    every column but the first, matching the historical figure tables).
    """
    widths = [len(name) for name in header]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    widths = [widths[0]] + [max(width, min_width) for width in widths[1:]]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(name.ljust(width)
                           for name, width in zip(header, widths)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(width)
                               for cell, width in zip(row, widths)))
    return "\n".join(lines)


def comparison_table(runs: Iterable[MeasuredRun], title: str,
                     row_key: str = "query_id") -> str:
    """Format runs as a rows-by-system table (one row per query/dataset)."""
    runs = list(runs)
    systems: list[str] = []
    for run in runs:
        if run.system not in systems:
            systems.append(run.system)
    cells: dict[str, dict[str, str]] = defaultdict(dict)
    row_order: list[str] = []
    for run in runs:
        key = getattr(run, row_key)
        if key not in row_order:
            row_order.append(key)
        cells[key][run.system] = run.cell()
    rows = [[str(key)] + [cells[key].get(system, "-") for system in systems]
            for key in row_order]
    return render_table(title, [row_key] + systems, rows)


def series_table(points: Sequence[tuple[object, dict[str, float | str]]],
                 title: str, x_label: str = "x") -> str:
    """Format an (x -> {series: value}) sweep as a table (Fig. 5/14 style)."""
    series_names: list[str] = []
    for _, values in points:
        for name in values:
            if name not in series_names:
                series_names.append(name)
    rows = []
    for x, values in points:
        row = [str(x)]
        for name in series_names:
            value = values.get(name, "-")
            row.append(f"{value:.3f}" if isinstance(value, float) else str(value))
        rows.append(row)
    return render_table(title, [x_label] + series_names, rows)


def latency_table(rows: Sequence[tuple[str, Sequence[float]]], title: str,
                  row_label: str = "series",
                  percentiles: Sequence[float] = DEFAULT_PERCENTILES,
                  unit: str = "s") -> str:
    """Format latency distributions with count/mean/percentile/max columns.

    ``rows`` maps a label to its raw latency samples; percentiles are
    fractions (0.95 renders as the ``p95`` column).  Used by the serving
    throughput benchmark and reusable by any table reporting latency
    spreads rather than single times.
    """
    fractions = tuple(percentiles)
    header = [row_label, "count", f"mean_{unit}"]
    header += [f"p{fraction * 100:g}_{unit}" for fraction in fractions]
    header += [f"max_{unit}"]
    table_rows = []
    for label, samples in rows:
        samples = list(samples)
        if samples:
            mean = sum(samples) / len(samples)
            spread = percentiles_of(samples, fractions)
            cells = [f"{mean:.4f}"]
            cells += [f"{spread[fraction]:.4f}" for fraction in fractions]
            cells += [f"{max(samples):.4f}"]
        else:
            cells = ["-"] * (len(fractions) + 2)
        table_rows.append([label, str(len(samples))] + cells)
    return render_table(title, header, table_rows)


def speedup_summary(runs: Iterable[MeasuredRun], baseline_system: str,
                    contender_system: str) -> str:
    """Summarise who wins and by what factor (the shape the paper reports)."""
    runs = list(runs)
    by_query: dict[str, dict[str, MeasuredRun]] = defaultdict(dict)
    for run in runs:
        by_query[run.query_id][run.system] = run
    wins = losses = baseline_failures = contender_failures = 0
    speedups: list[float] = []
    for _query_id, results in sorted(by_query.items()):
        baseline = results.get(baseline_system)
        contender = results.get(contender_system)
        if baseline is None or contender is None:
            continue
        if not baseline.succeeded:
            baseline_failures += 1
        if not contender.succeeded:
            contender_failures += 1
        if baseline.succeeded and contender.succeeded and contender.seconds > 0:
            ratio = baseline.seconds / contender.seconds
            speedups.append(ratio)
            if ratio >= 1.0:
                wins += 1
            else:
                losses += 1
    lines = [
        f"{contender_system} vs {baseline_system}:",
        f"  queries where {contender_system} is at least as fast: {wins}",
        f"  queries where {baseline_system} is faster: {losses}",
        f"  {baseline_system} failures: {baseline_failures}, "
        f"{contender_system} failures: {contender_failures}",
    ]
    if speedups:
        geometric_mean = 1.0
        for ratio in speedups:
            geometric_mean *= ratio
        geometric_mean **= (1.0 / len(speedups))
        lines.append(f"  geometric-mean speedup of {contender_system}: "
                     f"{geometric_mean:.2f}x")
    return "\n".join(lines)
