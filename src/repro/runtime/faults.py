"""Deterministic fault injection for the supervised worker pools.

Every multiprocess path in this repo (component-sharded search,
``fit_many`` batches) is pinned bit-exact to its serial twin, so
whatever a worker does — crash, hang, return garbage — the supervised
run must still produce the serial-identical result.  Testing that
needs failures on demand, reproducibly: a :class:`FaultPlan` is a
fixed list of failure events keyed by ``(site, task index)``:

* ``site`` — which supervised pool the event targets
  (:data:`SITES`: ``"search"`` components, ``"batch"`` runs).  Task
  indexes count submission order at that site
  (largest-component-first job order; batch run order).
* ``kind`` — what goes wrong (:data:`KINDS`): ``"crash"`` hard-kills
  the worker process (``os._exit``, the ``BrokenProcessPool`` path),
  ``"hang"`` sleeps past the supervisor's deadline, ``"pickle"``
  returns an unpicklable payload (the result pickle fails after the
  work is done), ``"corrupt"`` returns a well-pickled payload of the
  wrong shape (caught by the supervisor's result validation).

The only way to activate a plan is the ``REPRO_FAULT_PLAN`` environment
variable — inline JSON (starting with ``{``) or a path to a UTF-8 JSON
file — which the supervisor reads each time it opens a pool.  Faults
fire only inside worker processes: the supervisor's in-process re-run
of a failed task never injects, which is what makes it the
trustworthy fallback.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.errors import ConfigError

#: The supervised pool sites a fault event may target.
SITES: Tuple[str, ...] = ("search", "batch")

#: The failure modes the injector can produce in a worker process.
KINDS: Tuple[str, ...] = ("crash", "hang", "pickle", "corrupt")

#: Environment variable naming the active plan: inline JSON (starts
#: with ``{``) or a path to a JSON plan file.
ENV_VAR = "REPRO_FAULT_PLAN"

#: Default sleep of a ``hang`` event, seconds.  Long enough to trip a
#: test's shortened deadline; short enough that a worker the supervisor
#: failed to terminate exits on its own instead of leaking forever.
DEFAULT_HANG_SECONDS = 30.0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure: sabotage ``site`` task ``index``."""

    site: str
    index: int
    kind: str
    hang_seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ConfigError(
                f"fault event site must be one of {SITES}, got {self.site!r}"
            )
        if self.kind not in KINDS:
            raise ConfigError(
                f"fault event kind must be one of {KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.index, int) or isinstance(self.index, bool) or self.index < 0:
            raise ConfigError(
                f"fault event index must be a non-negative int, "
                f"got {self.index!r}"
            )
        seconds = self.hang_seconds
        if (
            isinstance(seconds, bool)
            or not isinstance(seconds, (int, float))
            or not 0 < seconds < math.inf
        ):
            raise ConfigError(
                f"fault event hang_seconds must be a positive finite number, "
                f"got {seconds!r}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A fixed list of :class:`FaultEvent` entries."""

    events: Tuple[FaultEvent, ...] = ()

    def fault_for(self, site: str, index: int) -> Optional[FaultEvent]:
        """The event sabotaging ``site`` task ``index``, if any.

        First matching event wins (plans with duplicate keys are
        legal; the earlier entry shadows).
        """
        for event in self.events:
            if event.site == site and event.index == index:
                return event
        return None

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(document, Mapping):
            raise ConfigError(
                f"fault plan document must be a mapping, got {document!r}"
            )
        unknown = sorted(set(document) - {"events"})
        if unknown:
            raise ConfigError(f"unknown fault plan fields: {unknown}")
        raw_events = document.get("events", [])
        if not isinstance(raw_events, list):
            raise ConfigError(
                f"fault plan events must be an array, got {raw_events!r}"
            )
        events = []
        for entry in raw_events:
            if not isinstance(entry, Mapping):
                raise ConfigError(
                    f"fault plan event must be a mapping, got {entry!r}"
                )
            extra = sorted(set(entry) - {"site", "index", "kind", "hang_seconds"})
            if extra:
                raise ConfigError(f"unknown fault event fields: {extra}")
            try:
                events.append(FaultEvent(**dict(entry)))
            except TypeError as exc:
                raise ConfigError(f"invalid fault event {entry!r}: {exc}") from None
        return cls(events=tuple(events))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(document)


def environment_plan(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """The plan named by :data:`ENV_VAR`, or ``None``.

    ``environ`` is injectable for tests; defaults to ``os.environ``.  A
    plan file is read as UTF-8; one that cannot be read or decoded
    raises :class:`~repro.errors.ConfigError` naming it.
    """
    source = os.environ if environ is None else environ
    value = source.get(ENV_VAR, "").strip()
    if not value:
        return None
    if value.startswith("{"):
        return FaultPlan.from_json(value)
    try:
        with open(value, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read fault plan file {value!r}: {exc}") from None
    return FaultPlan.from_json(text)


# ----------------------------------------------------------------------
# Worker-side injection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CorruptResult:
    """The payload a ``corrupt`` event substitutes for the real result.

    Pickles cleanly (the failure must survive the trip back to the
    parent) but is the wrong type for every site, so the supervisor's
    result validation rejects it and the task is re-run in-process.
    """

    site: str
    index: int


def execute_with_fault(payload: Tuple) -> Any:
    """Worker entrypoint: run one supervised task, sabotaged on demand.

    ``payload`` is ``(worker, job, site, index, fault)`` where
    ``worker`` is the site's module-level task function, ``job`` its
    single argument, and ``fault`` the :class:`FaultEvent` scheduled
    for this task (or ``None``).  Top-level so it pickles by
    qualified name; the injected failure happens *here*, in
    the worker process, never in the parent.
    """
    worker, job, site, index, fault = payload
    if fault is not None:
        if fault.kind == "crash":
            # A hard kill: no exception, no cleanup, no result pickle —
            # the parent sees BrokenProcessPool, exactly like an OOM
            # kill or a segfault.
            os._exit(101)
        if fault.kind == "hang":
            # Nothing downstream depends on how long this slept: either
            # the deadline fires first, or the task completes.
            # The sleep goes through the injected-clock seam (OBS002).
            from repro.obs import clock

            clock.sleep(fault.hang_seconds)
            return worker(job)
        if fault.kind == "pickle":
            # The work itself succeeds; serialising the result does
            # not.  A lambda pickles by reference to a scope that does
            # not exist, so the executor's result pickle raises and the
            # parent future carries the error.
            worker(job)
            return lambda: None  # repro: noqa — deliberate unpicklable
        if fault.kind == "corrupt":
            worker(job)
            return CorruptResult(site, index)
    return worker(job)
