"""Per-layer measurement for the traced run.

Two sources, both driven from the benchmark's own files:

* :class:`Probe` times calls into each layer's public functions by
  wrapping them on their classes — ``GainEngine.gain``,
  ``InvertedDatabase.merge``, the resolved mask backend's
  ``and_count`` / ``union_overlaps``.  The wrappers only see calls
  made in this process: worker processes (sharded search,
  ``fit_many``) report through spans instead.
* the program's own ``repro.obs`` spans and metrics, switched on with
  ``CSPMConfig(trace=True, metrics=True)``; stage times come from its
  ``mine.*`` spans, in this process and in adopted worker lanes alike.

:func:`single_layers` / :func:`batch_layers` turn one traced operation
into a flat ``{metric name: value}`` record.  A layer the workload does
not use is absent from the record and reads 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.batch import BatchResult
from repro.core.gain import GainEngine
from repro.core.inverted_db import InvertedDatabase
from repro.obs import clock
from repro.pipeline import PipelineContext

MB = 1e6

#: Span name -> the per-layer metric of that pipeline stage's wall time.
SPAN_STAGES = {
    "mine.encode": "encode.s",
    "mine.build": "build.s",
    "mine.search": "search.s",
    "mine.rank": "rank.s",
}


class Probe:
    """Call counters and timers wrapped around layer entry points.

    Use as a context manager: the wrappers are installed on entry and
    the original class attributes restored on exit.  :meth:`reset`
    clears the tallies between operations.
    """

    def __init__(self, backend: type) -> None:
        self._targets: List[Tuple[type, str, str]] = [
            (GainEngine, "gain", "gain"),
            (InvertedDatabase, "merge", "db_merge"),
            (backend, "and_count", "and_count"),
            (backend, "union_overlaps", "union_overlaps"),
        ]
        self._saved: List[Tuple[type, str, Optional[Any]]] = []
        self.calls: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}

    def reset(self) -> None:
        for _owner, _attr, key in self._targets:
            self.calls[key] = 0
            self.seconds[key] = 0.0

    def _wrap(self, function: Callable[..., Any], key: str) -> Callable[..., Any]:
        calls, seconds = self.calls, self.seconds
        perf_counter = clock.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[key] += perf_counter() - start
                calls[key] += 1

        return timed

    def __enter__(self) -> "Probe":
        self.reset()
        for owner, attr, key in self._targets:
            self._saved.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), key))
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------


def span_seconds(tracer: Any) -> Dict[str, float]:
    """Summed duration per span name, over every lane of ``tracer``."""
    totals: Dict[str, float] = {}
    lanes = [tracer.spans] + [spans for _pid, _lane, spans in tracer.adopted]
    for spans in lanes:
        for name, start, end, _depth, _attrs in spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def _series_sum(series: Dict[str, Any], prefix: str) -> float:
    """Sum every labelled series of one metric (``name{label=...}``)."""
    return sum(
        value
        for key, value in series.items()
        if key == prefix or key.startswith(prefix + "{")
    )


def _search_counters(traces: Iterable[Any]) -> Dict[str, float]:
    traces = list(traces)
    merges = sum(len(trace.iterations) for trace in traces)
    gain_evals = sum(trace.total_gain_computations for trace in traces)
    return {
        "search.merges": merges,
        "search.seed_gain_evals": sum(t.initial_candidate_gains for t in traces),
        "search.gain_evals": gain_evals,
        "search.refreshes_skipped": sum(t.refreshes_skipped for t in traces),
        "search.dirty_revalidations": sum(t.dirty_revalidations for t in traces),
        "search.peak_queue": max((t.peak_queue_size for t in traces), default=0),
        "search.merge_yield": merges / gain_evals if gain_evals else 0.0,
    }


def _probe_fields(probe: Probe, record: Dict[str, float]) -> None:
    record["gain.calls"] = probe.calls["gain"]
    record["gain.s"] = probe.seconds["gain"]
    record["search.db_merge_s"] = probe.seconds["db_merge"]
    record["masks.and_count_calls"] = probe.calls["and_count"]
    record["masks.and_count_s"] = probe.seconds["and_count"]
    record["masks.union_overlaps_calls"] = probe.calls["union_overlaps"]
    record["masks.union_overlaps_s"] = probe.seconds["union_overlaps"]


def _obs_fields(obs: Any, record: Dict[str, float]) -> Dict[str, Any]:
    """Span and registry readings; returns the gauges for the caller."""
    spans = span_seconds(obs.tracer)
    for span, metric in SPAN_STAGES.items():
        record[metric] = spans.get(span, 0.0)
    record["build.plan_s"] = spans.get("build.plan", 0.0)
    record["build.rows_s"] = spans.get("build.rows", 0.0)
    record["shard.worker_s"] = spans.get("search.component", 0.0)
    record["shard.stitch_s"] = spans.get("search.stitch", 0.0)
    snapshot = obs.metrics.snapshot()
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    record["runtime.retries"] = _series_sum(counters, "runtime.retries")
    record["runtime.degraded_tasks"] = _series_sum(counters, "runtime.degraded_tasks")
    record["gain.cache_size"] = _series_sum(gauges, "gain.cache_size")
    return gauges


def single_layers(
    probe: Probe,
    context: PipelineContext,
    stamps: Tuple[float, float, float],
    text: str,
    wall: float,
) -> Dict[str, float]:
    """The per-layer record of one traced single-graph operation."""
    load_s, _run_s, to_json_s = stamps
    record: Dict[str, float] = {}
    _probe_fields(probe, record)
    gauges = _obs_fields(context.obs, record)
    db = context.inverted_db
    record["io.load_s"] = load_s
    record["encode.coresets"] = gauges.get("encode.num_coresets", 0)
    record["build.rows"] = gauges.get("build.num_rows", 0)
    record["masks.peak_mb"] = (
        max(gauges.get("build.mask_memory_bytes", 0), db.mask_memory_bytes()) / MB
    )
    record.update(_search_counters([context.trace]))
    record["search.self_s"] = (
        record["search.s"] - record["gain.s"] - record["search.db_merge_s"]
    )
    record["shard.components"] = context.extras.get("num_components", 0)
    record["shard.largest_frac"] = context.extras.get("largest_component_frac", 0.0)
    record["rank.astars"] = len(context.result.astars)
    record["result.to_json_s"] = to_json_s
    record["result.json_mb"] = len(text) / MB
    covered = sum(record[m] for m in SPAN_STAGES.values()) + load_s + to_json_s
    record["stages.coverage"] = covered / wall
    return record


def batch_layers(
    probe: Probe, batch: BatchResult, wall: float, n_jobs: int
) -> Dict[str, float]:
    """The per-layer record of one traced ``fit_many`` call.

    The runs execute in worker processes, so stage times come from
    their adopted ``mine.*`` spans and search counters from the
    returned run traces; the in-process wrappers read zero.
    """
    record: Dict[str, float] = {}
    _probe_fields(probe, record)
    _obs_fields(batch.obs, record)
    results = [run.result for run in batch.runs if run.result is not None]
    record["encode.coresets"] = sum(len(result.core_table) for result in results)
    record["rank.astars"] = sum(len(result.astars) for result in results)
    record["masks.peak_mb"] = max(
        (result.inverted_db.mask_memory_bytes() for result in results), default=0
    ) / MB
    record.update(_search_counters(result.trace for result in results))
    record["search.self_s"] = (
        record["search.s"] - record["gain.s"] - record["search.db_merge_s"]
    )
    run_seconds = [run.seconds for run in batch.runs]
    record["batch.run_s"] = statistics.median(run_seconds)
    record["batch.pool_s"] = wall - sum(run_seconds) / n_jobs
    record["batch.failures"] = len(batch.errors)
    covered = sum(record[m] for m in SPAN_STAGES.values())
    record["stages.coverage"] = covered / sum(run_seconds)
    return record


def median_record(records: List[Dict[str, float]]) -> Dict[str, float]:
    """The per-metric median over several operations' records."""
    return {
        name: statistics.median(record[name] for record in records)
        for name in records[0]
    }

