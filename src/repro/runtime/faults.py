"""Deterministic fault injection for the supervised parallel runtime.

Every multiprocess path in this repo (component-sharded search,
``fit_many`` batches) is pinned bit-exact to its serial twin, so the
*strongest* possible resilience claim is testable: whatever a worker
does — crash, hang, return garbage — the supervised run must still
produce the serial-identical result.  Testing that claim needs failures
on demand, and they must be reproducible: a chaos run that only crashes
sometimes is a flake generator, not a gate.

A :class:`FaultPlan` is a *deterministic* schedule of failure events
keyed by ``(site, task index)``:

* ``site`` — which supervised pool the event targets
  (:data:`SITES`: ``"search"`` components, ``"batch"`` runs).  Task
  indexes count submission order at that site
  (largest-component-first job order; batch run order).
* ``kind`` — what goes wrong (:data:`KINDS`): ``"crash"`` hard-kills
  the worker process (``os._exit``, the ``BrokenProcessPool`` path),
  ``"hang"`` sleeps past the supervisor's timeout, ``"pickle"``
  returns an unpicklable payload (the result pickle fails after the
  work is done), ``"corrupt"`` returns a well-pickled payload of the
  wrong shape (caught by the supervisor's result validation).
* ``times`` — how many attempts the event sabotages.  ``times=1``
  exercises retry-then-succeed; ``times`` at or above the retry budget
  forces the degrade-to-serial (or ``on_worker_failure="raise"``)
  path.

Plans are either written explicitly (tests, the CI chaos-smoke job) or
generated from a seed via :meth:`FaultPlan.seeded` — the per-task coin
flips go through :func:`zlib.crc32`, not :func:`hash`, so a seeded plan
is identical across processes and ``PYTHONHASHSEED`` values (the same
discipline DET002 enforces for orderings).

Activation: pass a plan (object, mapping, or JSON) as
``CSPMConfig.fault_plan``, or set the ``REPRO_FAULT_PLAN`` environment
variable to inline JSON (or a path to a JSON file).  The config wins
when both are present.  Faults fire *only* inside worker processes —
the supervisor's in-process degraded execution never injects, which is
exactly what makes degradation the trustworthy fallback.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import zlib
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError

#: The supervised pool sites a fault event may target.
SITES: Tuple[str, ...] = ("search", "batch")

#: The failure modes the injector can produce in a worker process.
KINDS: Tuple[str, ...] = ("crash", "hang", "pickle", "corrupt")

#: Environment variable consulted when a run has no config-level plan:
#: inline JSON (starts with ``{``) or a path to a JSON plan file.
ENV_VAR = "REPRO_FAULT_PLAN"

#: Default sleep of a ``hang`` event, seconds.  Long enough to trip any
#: sane ``worker_timeout``; short enough that a worker the supervisor
#: failed to terminate exits on its own instead of leaking forever.
DEFAULT_HANG_SECONDS = 30.0


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure: sabotage ``site`` task ``index``.

    The event fires while the task's attempt number is below ``times``
    (attempts count from zero), so ``times=1`` breaks only the first
    attempt and a retry succeeds, while a large ``times`` exhausts the
    retry budget and forces degradation.
    """

    site: str
    index: int
    kind: str
    times: int = 1
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
        if not isinstance(self.times, int) or isinstance(self.times, bool) or self.times < 1:
            raise ConfigError(
                f"fault event times must be a positive int, got {self.times!r}"
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

    def describe(self) -> str:
        """``site[index] kind xtimes`` — the telemetry spelling."""
        return f"{self.site}[{self.index}] {self.kind} x{self.times}"


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of :class:`FaultEvent` entries.

    Frozen and tuple-backed so it can live inside the (frozen, equality-
    comparable, ``to_dict``-round-trippable) :class:`~repro.config.CSPMConfig`.
    ``seed`` is provenance only — it records how a :meth:`seeded` plan
    was generated and travels through serialisation, but lookup always
    goes through the materialised ``events``.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise ConfigError(
                    f"fault plan events must be FaultEvent instances, "
                    f"got {event!r}"
                )

    def __bool__(self) -> bool:
        return bool(self.events)

    def fault_for(
        self, site: str, index: int, attempt: int
    ) -> Optional[FaultEvent]:
        """The event sabotaging ``site``/``index`` at ``attempt``, if any.

        First matching event wins (plans with duplicate keys are
        legal; the earlier entry shadows).  Returns ``None`` once the
        event's ``times`` budget is spent — which is what lets a retry
        succeed.
        """
        for event in self.events:
            if (
                event.site == site
                and event.index == index
                and attempt < event.times
            ):
                return event
        return None

    def events_for(self, site: str) -> Tuple[FaultEvent, ...]:
        return tuple(event for event in self.events if event.site == site)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def seeded(
        cls,
        seed: int,
        rate: float = 0.25,
        sites: Sequence[str] = SITES,
        kinds: Sequence[str] = KINDS,
        max_index: int = 32,
        times: int = 1,
        hang_seconds: float = DEFAULT_HANG_SECONDS,
    ) -> "FaultPlan":
        """A reproducible random plan: one coin flip per (site, index).

        The flip for ``(seed, site, index)`` is derived via
        :func:`zlib.crc32` over the key's text — **not** ``hash()``,
        which is salted per process — so the same seed always yields
        the same schedule, in every worker, under every
        ``PYTHONHASHSEED``.  ``rate`` is the per-task fault
        probability; the kind is picked from ``kinds`` by the next
        32 bits of the same digest.
        """
        if not 0.0 <= rate <= 1.0:
            raise ConfigError(f"fault rate must be in [0, 1], got {rate!r}")
        events = []
        for site in sites:
            for index in range(max_index):
                digest = zlib.crc32(f"{seed}:{site}:{index}".encode("utf-8"))
                if (digest & 0xFFFF) / 0x10000 < rate:
                    kind = kinds[
                        zlib.crc32(f"{seed}:{site}:{index}:kind".encode("utf-8"))
                        % len(kinds)
                    ]
                    events.append(
                        FaultEvent(
                            site=site,
                            index=index,
                            kind=kind,
                            times=times,
                            hang_seconds=hang_seconds,
                        )
                    )
        return cls(events=tuple(events), seed=seed)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        document: dict = {
            "events": [dataclasses.asdict(event) for event in self.events]
        }
        if self.seed is not None:
            document["seed"] = self.seed
        return document

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(document, Mapping):
            raise ConfigError(
                f"fault plan document must be a mapping, got {document!r}"
            )
        known = {"events", "seed"}
        unknown = sorted(set(document) - known)
        if unknown:
            raise ConfigError(f"unknown fault plan fields: {unknown}")
        raw_events = document.get("events", ())
        if not isinstance(raw_events, (list, tuple)):
            raise ConfigError(
                f"fault plan events must be an array, got {raw_events!r}"
            )
        seed = document.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise ConfigError(
                f"fault plan seed must be an int or null, got {seed!r}"
            )
        events = []
        for entry in raw_events:
            if isinstance(entry, FaultEvent):
                events.append(entry)
                continue
            if not isinstance(entry, Mapping):
                raise ConfigError(
                    f"fault plan event must be a mapping, got {entry!r}"
                )
            extra = sorted(
                set(entry) - {"site", "index", "kind", "times", "hang_seconds"}
            )
            if extra:
                raise ConfigError(f"unknown fault event fields: {extra}")
            try:
                events.append(FaultEvent(**dict(entry)))
            except TypeError as exc:
                raise ConfigError(f"invalid fault event {entry!r}: {exc}") from None
        return cls(events=tuple(events), seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fault plan is not valid JSON: {exc}") from None
        return cls.from_dict(document)

    @classmethod
    def coerce(cls, value: Any) -> Optional["FaultPlan"]:
        """Normalise any accepted spelling to a plan (or ``None``).

        Accepts ``None``, a :class:`FaultPlan`, a mapping (the
        :meth:`to_dict` shape), or a string — inline JSON when it
        starts with ``{``, otherwise a path to a JSON plan file.  This
        is the single conversion point the config, the CLIs and the
        environment activation all go through.
        """
        if value is None or isinstance(value, FaultPlan):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        if isinstance(value, str):
            text = value.strip()
            if text.startswith("{"):
                return cls.from_json(text)
            try:
                with open(text) as handle:
                    return cls.from_json(handle.read())
            except OSError as exc:
                raise ConfigError(
                    f"cannot read fault plan file {text!r}: {exc}"
                ) from None
        raise ConfigError(
            f"fault_plan must be None, a FaultPlan, a mapping, JSON text "
            f"or a file path, got {value!r}"
        )


def environment_plan(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """The plan named by :data:`ENV_VAR`, or ``None``.

    ``environ`` is injectable for tests; defaults to ``os.environ``.
    """
    source = os.environ if environ is None else environ
    value = source.get(ENV_VAR)
    if not value:
        return None
    return FaultPlan.coerce(value)


def resolve_plan(
    config_plan: Optional[FaultPlan],
    environ: Optional[Mapping[str, str]] = None,
) -> Optional[FaultPlan]:
    """The active plan for a run: the config's, else the environment's."""
    if config_plan is not None:
        return config_plan
    return environment_plan(environ)


# ----------------------------------------------------------------------
# Worker-side injection
# ----------------------------------------------------------------------


class CorruptResult:
    """The payload a ``corrupt`` event substitutes for the real result.

    Pickles cleanly (the failure must survive the trip back to the
    parent) but is the wrong type for every site, so the supervisor's
    result validation rejects it and the task is retried or degraded.
    """

    def __init__(self, site: str, index: int) -> None:
        self.site = site
        self.index = index

    def __repr__(self) -> str:
        return f"CorruptResult(site={self.site!r}, index={self.index!r})"


def execute_with_fault(payload: Tuple) -> Any:
    """Worker entrypoint: run one supervised task, sabotaged on demand.

    ``payload`` is ``(worker, job, site, index, fault)`` where
    ``worker`` is the site's module-level task function, ``job`` its
    single argument, and ``fault`` the :class:`FaultEvent` scheduled
    for this attempt (or ``None``).  Top-level so it pickles by
    qualified name (FRK001); the injected failure happens *here*, in
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
            # Injection must stay deterministic (DET003: no wall-clock
            # reads steer behaviour) — a plain sleep is fine because
            # nothing downstream depends on how long it actually slept:
            # either the supervisor times out first, or the task
            # completes normally afterwards.  The sleep routes through
            # the injected-clock seam like every other timer (OBS002).
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
