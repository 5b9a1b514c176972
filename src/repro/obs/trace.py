"""Nestable spans on an injected clock, exportable as Chrome trace JSON.

A :class:`SpanTracer` records *closed* spans into a flat per-process
buffer — each span is one picklable tuple ``(name, start, end, depth,
attrs_json)`` — plus instant events ``(name, ts, depth, attrs_json)``.
Worker processes run their own tracer, ship the buffer back through
the supervisor's ordinary result path (the tuples satisfy the FRK002
payload contract), and the parent *adopts* each shipped buffer into a
named lane, offset-aligned so the worker's last span ends at the
parent-clock instant the result was harvested.  The merged timeline
exports two ways:

* :meth:`SpanTracer.chrome_trace` — a Chrome trace-event document
  (``{"traceEvents": [...]}``) with one ``tid`` lane per adopted
  buffer; open it at ``ui.perfetto.dev`` or ``chrome://tracing``.
* :meth:`SpanTracer.ndjson_lines` — one JSON object per span/event,
  start-ordered, for grep/jq pipelines.

Timestamps come from the injected ``clock`` callable (default
:func:`repro.obs.clock.perf_counter`), never from ``time`` directly,
so recording stays OBS002-clean and tests can drive the clock.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import clock

#: One closed span: ``(name, start, end, depth, attrs_json)``.  The
#: shape is deliberately a tuple of str/float/int so a worker's buffer
#: can ride inside FRK002-checked result payloads unchanged.
SpanRecord = Tuple[str, float, float, int, str]

#: One instant event: ``(name, ts, depth, attrs_json)``.
EventRecord = Tuple[str, float, int, str]


def _encode_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    return json.dumps(attrs, sort_keys=True, separators=(",", ":"), default=str)


def _decode_attrs(encoded: str) -> Dict[str, Any]:
    return json.loads(encoded) if encoded else {}


class SpanTracer:
    """A per-process span buffer with nesting depth tracking."""

    enabled = True

    def __init__(self, clock_fn: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock_fn if clock_fn is not None else clock.perf_counter
        self._depth = 0
        self.pid = os.getpid()
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        #: Parent-side only: ``(pid, lane, spans)`` per adopted worker
        #: buffer, in adoption order.
        self.adopted: List[Tuple[int, str, List[SpanRecord]]] = []

    def now(self) -> float:
        """The tracer's clock reading (for callers that must not touch
        ``time`` themselves)."""
        return self._clock()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record a span around the ``with`` body; nesting is tracked
        by depth, and the span closes (and is buffered) even when the
        body raises."""
        start = self._clock()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            self.spans.append(
                (name, start, self._clock(), self._depth, _encode_attrs(attrs))
            )

    def instant(self, name: str, **attrs: Any) -> None:
        """Record a zero-duration event (a supervisor's in-process re-run)."""
        self.events.append(
            (name, self._clock(), self._depth, _encode_attrs(attrs))
        )

    # ------------------------------------------------------------------
    # Cross-process shipping
    # ------------------------------------------------------------------

    def export_spans(self) -> List[SpanRecord]:
        """The closed-span buffer, for shipping out of a worker."""
        return list(self.spans)

    def adopt(
        self,
        spans: Optional[List[SpanRecord]],
        pid: int,
        lane: str,
        align_end: Optional[float] = None,
    ) -> None:
        """Fold a worker's shipped buffer into this (parent) timeline.

        Worker clocks are monotonic but share no epoch with the parent,
        so ``align_end`` — the parent-clock instant the result was
        harvested — anchors the batch: the latest worker span end maps
        to ``align_end`` and every stamp shifts by the same offset
        (relative durations are preserved exactly).
        """
        if not spans:
            return
        if align_end is not None:
            offset = align_end - max(record[2] for record in spans)
            spans = [
                (name, start + offset, end + offset, depth, attrs)
                for name, start, end, depth, attrs in spans
            ]
        else:
            spans = list(spans)
        self.adopted.append((pid, lane, spans))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def _origin(self) -> float:
        starts = [record[1] for record in self.spans]
        starts.extend(record[1] for record in self.events)
        for _pid, _lane, spans in self.adopted:
            starts.extend(record[1] for record in spans)
        return min(starts) if starts else 0.0

    def chrome_trace(self) -> Dict[str, Any]:
        """A Chrome trace-event document for Perfetto/chrome://tracing.

        Every lane shares the parent ``pid`` so the viewer renders one
        process with named threads; the worker's real pid is carried in
        the lane name and event args.
        """
        origin = self._origin()
        events: List[Dict[str, Any]] = [
            {
                "ph": "M",
                "name": "thread_name",
                "pid": self.pid,
                "tid": 0,
                "args": {"name": f"main (pid {self.pid})"},
            }
        ]

        def complete(record: SpanRecord, tid: int, pid: int) -> Dict[str, Any]:
            name, start, end, depth, attrs = record
            return {
                "ph": "X",
                "name": name,
                "cat": "repro",
                "pid": self.pid,
                "tid": tid,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": dict(_decode_attrs(attrs), depth=depth, pid=pid),
            }

        for record in self.spans:
            events.append(complete(record, 0, self.pid))
        for name, ts, depth, attrs in self.events:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": name,
                    "cat": "repro",
                    "pid": self.pid,
                    "tid": 0,
                    "ts": (ts - origin) * 1e6,
                    "args": dict(_decode_attrs(attrs), depth=depth),
                }
            )
        for tid, (pid, lane, spans) in enumerate(self.adopted, start=1):
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": self.pid,
                    "tid": tid,
                    "args": {"name": f"{lane} (pid {pid})"},
                }
            )
            for record in spans:
                events.append(complete(record, tid, pid))
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def ndjson_lines(self) -> List[str]:
        """One JSON object per span/instant, ordered by start time."""
        origin = self._origin()
        rows: List[Tuple[float, Dict[str, Any]]] = []
        for name, start, end, depth, attrs in self.spans:
            rows.append(
                (
                    start,
                    {
                        "kind": "span",
                        "name": name,
                        "lane": "main",
                        "pid": self.pid,
                        "start": start - origin,
                        "end": end - origin,
                        "depth": depth,
                        "args": _decode_attrs(attrs),
                    },
                )
            )
        for name, ts, depth, attrs in self.events:
            rows.append(
                (
                    ts,
                    {
                        "kind": "instant",
                        "name": name,
                        "lane": "main",
                        "pid": self.pid,
                        "ts": ts - origin,
                        "depth": depth,
                        "args": _decode_attrs(attrs),
                    },
                )
            )
        for _tid, (pid, lane, spans) in enumerate(self.adopted, start=1):
            for name, start, end, depth, attrs in spans:
                rows.append(
                    (
                        start,
                        {
                            "kind": "span",
                            "name": name,
                            "lane": lane,
                            "pid": pid,
                            "start": start - origin,
                            "end": end - origin,
                            "depth": depth,
                            "args": _decode_attrs(attrs),
                        },
                    )
                )
        rows.sort(key=lambda item: item[0])
        return [
            json.dumps(document, sort_keys=True) for _ts, document in rows
        ]

    def write(self, path: str) -> None:
        """Export to ``path``: NDJSON when it ends in ``.ndjson``,
        Chrome trace-event JSON otherwise."""
        if path.endswith(".ndjson"):
            payload = "\n".join(self.ndjson_lines()) + "\n"
        else:
            payload = json.dumps(self.chrome_trace(), indent=2)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a constant no-op."""

    enabled = False
    pid = 0
    spans: List[SpanRecord] = []
    events: List[EventRecord] = []
    adopted: List[Tuple[int, str, List[SpanRecord]]] = []

    def now(self) -> float:
        return 0.0

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs: Any) -> None:
        return None

    def export_spans(self) -> List[SpanRecord]:
        return []

    def adopt(
        self,
        spans: Optional[List[SpanRecord]],
        pid: int,
        lane: str,
        align_end: Optional[float] = None,
    ) -> None:
        return None


NULL_TRACER = NullTracer()

__all__ = [
    "EventRecord",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "SpanTracer",
]
