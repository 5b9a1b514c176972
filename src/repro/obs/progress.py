"""Throttled heartbeat lines for long-running phases.

``mine --progress`` (and ``bench --progress``) surface these on
stderr so a multi-minute search is no longer a black box::

    [repro] build: rows=1842 seconds=0.41
    [repro] search: merges=120 queue=483
    [repro] runtime: site=search done=3 pending=1

:meth:`ProgressEmitter.heartbeat` is rate-limited per phase on the
injected clock (default :func:`repro.obs.clock.perf_counter`, 0.5 s
minimum spacing) so per-merge call sites stay cheap even at six-digit
iteration counts; :meth:`ProgressEmitter.note` bypasses the throttle
for one-shot milestones (a build finishing, a task degrading).

Phase names are string literals at the call site (OBS001), matching
the span taxonomy in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Optional, TextIO

from repro.obs import clock


def _render(fields: Dict[str, Any]) -> str:
    return " ".join(f"{key}={fields[key]}" for key in fields)


class ProgressEmitter:
    """Heartbeat writer with per-phase throttling."""

    enabled = True

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        min_interval: float = 0.5,
        clock_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        #: ``None`` means "resolve ``sys.stderr`` at emit time", so the
        #: emitter follows capture/redirection and never pins a stream
        #: object that cannot cross a process boundary.
        self._stream = stream
        self._min_interval = min_interval
        self._clock = clock_fn if clock_fn is not None else clock.perf_counter
        self._last_emit: Dict[str, float] = {}

    def heartbeat(self, phase: str, **fields: Any) -> None:
        """Emit a progress line unless one for ``phase`` was emitted
        within the last ``min_interval`` seconds."""
        now = self._clock()
        last = self._last_emit.get(phase)
        if last is not None and now - last < self._min_interval:
            return
        self._last_emit[phase] = now
        self._emit(phase, fields)

    def note(self, phase: str, **fields: Any) -> None:
        """Emit unconditionally (one-shot milestones)."""
        self._last_emit[phase] = self._clock()
        self._emit(phase, fields)

    def _emit(self, phase: str, fields: Dict[str, Any]) -> None:
        stream = self._stream if self._stream is not None else sys.stderr
        text = f"[repro] {phase}: {_render(fields)}".rstrip() + "\n"
        stream.write(text)
        try:
            stream.flush()
        except (AttributeError, ValueError):
            pass


class NullProgress:
    """The disabled emitter: heartbeats vanish without reading the clock."""

    enabled = False

    def heartbeat(self, phase: str, **fields: Any) -> None:
        return None

    def note(self, phase: str, **fields: Any) -> None:
        return None


NULL_PROGRESS = NullProgress()

__all__ = ["NULL_PROGRESS", "NullProgress", "ProgressEmitter"]
