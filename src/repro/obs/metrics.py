"""One metrics registry for the whole pipeline.

:class:`MetricsRegistry` is the one store of the system's counts and
distributions: the serving layer records its requests, latencies and
cache outcomes straight into it, the session its commits and cache
lookups, the cluster each execution's communication.  (A
:class:`~repro.distributed.cluster.ClusterMetrics` stays the per-execution
record a :class:`~repro.session.QueryResult` carries; it publishes its
totals here.)  The instruments are:

* :class:`Counter` — monotonically increasing totals
  (``repro_queries_served_total``),
* :class:`Gauge` — last-written values (``repro_snapshot_version``),
* :class:`Histogram` — bounded sliding windows with percentile snapshots
  (``repro_query_latency_seconds``).

Instruments carry optional **labels** (``counter("repro_commits_total",
graph="yago")``), so multi-graph sessions stay distinguishable.  The
registry is thread-safe, and has two export surfaces:

* :meth:`MetricsRegistry.render_prometheus` — the text exposition format
  every scraper understands (what the HTTP tier's ``/metrics`` serves),
* :meth:`MetricsRegistry.render_jsonl` — one JSON object per instrument,
  the shape the structured log pipeline ingests.

A process-global default registry (:func:`get_registry`) is what the
instrumented call sites publish to; tests build private registries.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import NamedTuple

from ..percentiles import DEFAULT_PERCENTILES, percentiles
from ..check.sanitizer import ordered_lock

#: Samples retained per histogram window: a long-running service must not
#: grow its metrics without limit.
DEFAULT_WINDOW = 8192

#: A label set, normalized to a sorted tuple so it can key a dict.
LabelSet = tuple[tuple[str, str], ...]


def _labels(labels: dict[str, object]) -> LabelSet:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = ordered_lock("obs.counter")

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A value that can go anywhere (queue depth, head version)."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = ordered_lock("obs.gauge")

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bounded sliding window of observations with percentile snapshots.

    Count and sum are exact over the lifetime; percentiles describe the
    window of the most recent :data:`DEFAULT_WINDOW` observations.
    """

    __slots__ = ("_window", "_count", "_sum", "_lock")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._window: deque[float] = deque(maxlen=window)
        self._count = 0
        self._sum = 0.0
        self._lock = ordered_lock("obs.histogram")

    def observe(self, value: float) -> None:
        with self._lock:
            self._window.append(value)
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def percentiles(self, fractions=DEFAULT_PERCENTILES) -> dict[float, float]:
        with self._lock:
            return percentiles(self._window, fractions)


class _Key(NamedTuple):
    name: str
    labels: LabelSet


class MetricsRegistry:
    """Thread-safe home of every named instrument.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create, so call sites
    never pre-register: ``registry.counter("repro_commits_total",
    graph="yago").inc()`` is the whole API.  Re-requesting a name with a
    different instrument kind raises — one name, one meaning.
    """

    def __init__(self) -> None:
        self._instruments: dict[_Key, object] = {}
        self._kinds: dict[str, type] = {}
        self._lock = ordered_lock("obs.registry")

    # -- Instrument access ---------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get(Histogram, name, labels)

    def _get(self, kind: type, name: str, labels: dict[str, object]):
        key = _Key(name, _labels(labels))
        # An existing instrument is read without the lock: entries are
        # only ever added (or all cleared), and a dict read is atomic.
        instrument = self._instruments.get(key)
        if type(instrument) is kind:
            return instrument
        with self._lock:
            registered = self._kinds.get(name)
            if registered is not None and registered is not kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{registered.__name__}, not a {kind.__name__}")
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = kind()
                self._instruments[key] = instrument
                self._kinds[name] = kind
            return instrument

    # -- Read surfaces -------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """A flat, consistent ``name{labels} -> value`` view.

        Counters and gauges map to their value; histograms expand into
        ``_count`` / ``_sum`` / per-percentile entries.
        """
        with self._lock:
            items = list(self._instruments.items())
        flat: dict[str, object] = {}
        for key, instrument in sorted(items, key=lambda kv:
                                      (kv[0].name, kv[0].labels)):
            label = _render_labels(key.labels)
            if isinstance(instrument, Histogram):
                flat[f"{key.name}_count{label}"] = instrument.count
                flat[f"{key.name}_sum{label}"] = round(instrument.sum, 6)
                for fraction, value in instrument.percentiles().items():
                    flat[f"{key.name}_p{_fraction_name(fraction)}{label}"] = \
                        round(value, 6)
            else:
                flat[f"{key.name}{label}"] = instrument.value
        return flat

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (one metric per line)."""
        with self._lock:
            items = list(self._instruments.items())
        lines: list[str] = []
        typed: set[str] = set()
        for key, instrument in sorted(items, key=lambda kv:
                                      (kv[0].name, kv[0].labels)):
            if key.name not in typed:
                kind = ("counter" if isinstance(instrument, Counter)
                        else "gauge" if isinstance(instrument, Gauge)
                        else "histogram")
                lines.append(f"# TYPE {key.name} {kind}")
                typed.add(key.name)
            label = _render_labels(key.labels)
            if isinstance(instrument, Histogram):
                lines.append(f"{key.name}_count{label} {instrument.count}")
                lines.append(f"{key.name}_sum{label} {instrument.sum:g}")
                for fraction, value in instrument.percentiles().items():
                    quantile = _merge_labels(key.labels,
                                             ("quantile", f"{fraction:g}"))
                    lines.append(f"{key.name}{quantile} {value:g}")
            else:
                lines.append(f"{key.name}{label} {instrument.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_jsonl(self) -> str:
        """One JSON object per instrument (the structured-log export)."""
        stamp = time.time()
        with self._lock:
            items = list(self._instruments.items())
        lines = []
        for key, instrument in sorted(items, key=lambda kv:
                                      (kv[0].name, kv[0].labels)):
            entry: dict[str, object] = {
                "ts": round(stamp, 3),
                "metric": key.name,
                "labels": dict(key.labels),
            }
            if isinstance(instrument, Histogram):
                entry["type"] = "histogram"
                entry["count"] = instrument.count
                entry["sum"] = round(instrument.sum, 6)
                entry["percentiles"] = {
                    f"p{_fraction_name(fraction)}": round(value, 6)
                    for fraction, value in instrument.percentiles().items()}
            else:
                entry["type"] = ("counter" if isinstance(instrument, Counter)
                                 else "gauge")
                entry["value"] = instrument.value
            lines.append(json.dumps(entry, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()
            self._kinds.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __repr__(self) -> str:
        return f"MetricsRegistry(instruments={len(self)})"


def _fraction_name(fraction: float) -> str:
    """0.5 -> '50', 0.999 -> '99.9'."""
    scaled = fraction * 100.0
    return f"{int(scaled)}" if scaled == int(scaled) else f"{scaled:g}"


def _render_labels(labels: LabelSet) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


def _merge_labels(labels: LabelSet, extra: tuple[str, str]) -> str:
    return _render_labels(tuple(sorted((*labels, extra))))


#: The default registry instrumented call sites publish into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry (tests isolate themselves here).

    Returns the previous registry so callers can restore it.
    """
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous
