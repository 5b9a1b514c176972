"""A registry of named counters, gauges and histograms.

The registry unifies the project's ad-hoc perf accounting — the
``RunTrace`` search counters, the mask-memory gauge, the supervisor's
degrade/timeout telemetry, per-run batch durations — behind one
name-addressed surface::

    metrics.counter("runtime.degraded_tasks").inc(1, site="search")
    metrics.gauge("build.mask_memory_bytes").set(db.mask_memory_bytes())
    metrics.histogram("batch.run_seconds").observe(run.seconds)

Instruments are created on first use; labels flatten into the series
key (``runtime.degraded_tasks{site=search}``) so :meth:`MetricsRegistry.snapshot`
is a flat, JSON-ready, deterministically ordered mapping — the shape
folded into BENCH schema-v7 documents and ``mine --metrics`` files.

The default recorder is :data:`NULL_METRICS`, whose instruments are
shared do-nothing singletons: with observability disabled no dict, no
key string and no arithmetic happens at the call site beyond one
method call, and the mining hot paths additionally guard their
emission on ``metrics.enabled`` so even that is skipped.

Metric *names* must be string literals at the call site (OBS001) so
the catalogue in docs/OBSERVABILITY.md stays grep-able and the
cardinality of the registry is bounded by the source code; labels
carry the runtime-variable dimensions (site names, phases).
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

Number = Union[int, float]


def _series_key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(
        f"{key}={labels[key]}" for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing sum."""

    __slots__ = ("_name", "_store")

    def __init__(self, name: str, store: Dict[str, Number]) -> None:
        self._name = name
        self._store = store

    def inc(self, amount: Number = 1, **labels: Any) -> None:
        key = _series_key(self._name, labels)
        self._store[key] = self._store.get(key, 0) + amount


class Gauge:
    """A last-write-wins value, with a max-tracking variant for peaks."""

    __slots__ = ("_name", "_store")

    def __init__(self, name: str, store: Dict[str, Number]) -> None:
        self._name = name
        self._store = store

    def set(self, value: Number, **labels: Any) -> None:
        self._store[_series_key(self._name, labels)] = value

    def set_max(self, value: Number, **labels: Any) -> None:
        key = _series_key(self._name, labels)
        previous = self._store.get(key)
        if previous is None or value > previous:
            self._store[key] = value


class Histogram:
    """Count/total/min/max summary of observed values."""

    __slots__ = ("_name", "_store")

    def __init__(self, name: str, store: Dict[str, List[Number]]) -> None:
        self._name = name
        self._store = store

    def observe(self, value: Number, **labels: Any) -> None:
        key = _series_key(self._name, labels)
        stats = self._store.get(key)
        if stats is None:
            self._store[key] = [1, value, value, value]
        else:
            stats[0] += 1
            stats[1] += value
            if value < stats[2]:
                stats[2] = value
            if value > stats[3]:
                stats[3] = value


class MetricsRegistry:
    """Create-on-first-use instrument registry with a flat snapshot."""

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}
        self._histograms: Dict[str, List[Number]] = {}
        self._instruments: Dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._instruments.get("c:" + name)
        if instrument is None:
            instrument = Counter(name, self._counters)
            self._instruments["c:" + name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._instruments.get("g:" + name)
        if instrument is None:
            instrument = Gauge(name, self._gauges)
            self._instruments["g:" + name] = instrument
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._instruments.get("h:" + name)
        if instrument is None:
            instrument = Histogram(name, self._histograms)
            self._instruments["h:" + name] = instrument
        return instrument

    def snapshot(self) -> Dict[str, Any]:
        """All recorded series, deterministically key-ordered."""
        return {
            "counters": {
                key: self._counters[key] for key in sorted(self._counters)
            },
            "gauges": {
                key: self._gauges[key] for key in sorted(self._gauges)
            },
            "histograms": {
                key: {
                    "count": stats[0],
                    "total": stats[1],
                    "min": stats[2],
                    "max": stats[3],
                    "mean": stats[1] / stats[0],
                }
                for key, stats in sorted(self._histograms.items())
            },
        }


class _NullInstrument:
    __slots__ = ()

    def inc(self, amount: Number = 1, **labels: Any) -> None:
        return None

    def set(self, value: Number, **labels: Any) -> None:
        return None

    def set_max(self, value: Number, **labels: Any) -> None:
        return None

    def observe(self, value: Number, **labels: Any) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """The disabled registry: shared no-op instruments, empty snapshot."""

    enabled = False

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Any]:
        return {}


NULL_METRICS = NullMetrics()


def emit_run_trace(metrics: Any, trace: Any) -> None:
    """Re-emit a finished ``RunTrace``'s perf counters as metrics.

    The trace's counters are the project's deterministic perf currency
    (see ``benchmarks/perf_bounds.json``); re-emitting them post-run
    keeps the registry complete without touching the search hot loop.
    """
    if not metrics.enabled or trace is None:
        return
    metrics.counter("search.gains_computed").inc(
        trace.total_gain_computations
    )
    metrics.counter("search.initial_candidate_gains").inc(
        trace.initial_candidate_gains
    )
    metrics.counter("search.refreshes_skipped").inc(trace.refreshes_skipped)
    metrics.counter("search.dirty_revalidations").inc(
        trace.dirty_revalidations
    )
    metrics.gauge("search.peak_queue_size").set_max(trace.peak_queue_size)
    metrics.gauge("search.merges").set(len(trace.iterations))


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "emit_run_trace",
]
