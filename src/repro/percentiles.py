"""Percentile computation shared by the metrics registry and the reports.

Kept in its own dependency-free module so the metrics registry's
histograms (:mod:`repro.obs.metrics`) and the end-to-end benchmark's
reports (``benchmarks/e2e/results.py``) use one implementation without
importing the rest of the package.
"""

from __future__ import annotations

#: Percentiles reported by default (fractions).
DEFAULT_PERCENTILES = (0.50, 0.95, 0.99)


def percentile(values, fraction: float) -> float:
    """Return the ``fraction`` percentile of ``values`` (linear interpolation).

    ``fraction`` is in [0, 1]; an empty sequence yields 0.0 so callers can
    report metrics before any traffic was served.
    """
    return _interpolate(sorted(values), fraction)


def percentiles(values, fractions) -> dict[float, float]:
    """Return several percentiles of ``values``, sorting only once.

    Preferred over repeated :func:`percentile` calls when reporting a whole
    percentile row (p50/p95/p99) of the same sample window.
    """
    ordered = sorted(values)
    return {fraction: _interpolate(ordered, fraction)
            for fraction in fractions}


def _interpolate(ordered, fraction: float) -> float:
    if not ordered:
        return 0.0
    if fraction <= 0.0:
        return float(ordered[0])
    if fraction >= 1.0:
        return float(ordered[-1])
    position = fraction * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)
