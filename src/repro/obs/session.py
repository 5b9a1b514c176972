"""The observation session: tracer + metrics + progress as one handle.

An :class:`Observation` bundles the three recorders behind the small
surface the pipeline threads around (``obs.span``, ``obs.instant``,
``obs.metrics``, ``obs.progress``).  The module-level :data:`NULL_OBS`
is the permanent default — every component is the no-op singleton, so
code can call ``current().span("mine.search")`` unconditionally and a
disabled run does no recording work.

Activation is a per-process stack::

    with activate(Observation.from_config(config)) as obs:
        ...   # current() returns obs anywhere below this frame

``MiningPipeline.run_context`` activates a session around its stages
(the active one when it is enabled, else the config-selected one), so
deep code (the inverted-database builder, the searches, the
supervisor) reaches the live session through :func:`current` without
signature churn.  The supervisor runs each task it is handed under a
session of its own and adopts the task's closed span buffer into a
lane of the caller's timeline (:mod:`repro.runtime.supervisor`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, TextIO

from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.obs.progress import NULL_PROGRESS, ProgressEmitter
from repro.obs.trace import NULL_TRACER, SpanTracer


class Observation:
    """One run's observability session (possibly entirely disabled)."""

    __slots__ = ("tracer", "metrics", "progress")

    def __init__(self, tracer: Any, metrics: Any, progress: Any) -> None:
        self.tracer = tracer
        self.metrics = metrics
        self.progress = progress

    @property
    def enabled(self) -> bool:
        return (
            self.tracer.enabled
            or self.metrics.enabled
            or self.progress.enabled
        )

    def span(self, name: str, **attrs: Any):
        return self.tracer.span(name, **attrs)

    def instant(self, name: str, **attrs: Any) -> None:
        self.tracer.instant(name, **attrs)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        trace: bool = False,
        metrics: bool = False,
        progress: bool = False,
        stream: Optional[TextIO] = None,
    ) -> "Observation":
        """A session with the selected recorders live (NULL otherwise)."""
        if not (trace or metrics or progress):
            return NULL_OBS
        return cls(
            SpanTracer() if trace else NULL_TRACER,
            MetricsRegistry() if metrics else NULL_METRICS,
            ProgressEmitter(stream=stream) if progress else NULL_PROGRESS,
        )

    @classmethod
    def from_config(
        cls, config: Any, stream: Optional[TextIO] = None
    ) -> "Observation":
        """The session selected by a config's ``trace``/``metrics``/
        ``progress`` knobs (duck-typed, so older configs mean NULL)."""
        return cls.create(
            trace=bool(getattr(config, "trace", False)),
            metrics=bool(getattr(config, "metrics", False)),
            progress=bool(getattr(config, "progress", False)),
            stream=stream,
        )

    def __repr__(self) -> str:
        flags = [
            name
            for name, component in (
                ("trace", self.tracer),
                ("metrics", self.metrics),
                ("progress", self.progress),
            )
            if component.enabled
        ]
        return f"Observation({'+'.join(flags) if flags else 'disabled'})"


NULL_OBS = Observation(NULL_TRACER, NULL_METRICS, NULL_PROGRESS)

#: The per-process activation stack; the top is what :func:`current`
#: returns.  A forked worker inherits a copy of its parent's stack, so
#: the supervisor activates each task's own session on top of it.
_ACTIVE: List[Observation] = []


def current() -> Observation:
    """The innermost active session, or :data:`NULL_OBS`."""
    return _ACTIVE[-1] if _ACTIVE else NULL_OBS


@contextmanager
def activate(obs: Observation) -> Iterator[Observation]:
    """Make ``obs`` the :func:`current` session for the ``with`` body."""
    _ACTIVE.append(obs)
    try:
        yield obs
    finally:
        _ACTIVE.pop()


__all__ = ["NULL_OBS", "Observation", "activate", "current"]
