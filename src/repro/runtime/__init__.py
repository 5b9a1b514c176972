"""Supervised parallel runtime: fault injection, retries, degradation.

:mod:`repro.runtime.supervisor` wraps every multiprocess pool in the
repo (sharded search, batch ``fit_many``) with per-task timeouts,
bounded deterministic retries, and bit-exact degrade-to-serial
fallback; :mod:`repro.runtime.faults` is the
deterministic fault-injection layer that tests and the CI chaos job
drive.  See ``docs/RESILIENCE.md``.
"""

from repro.runtime.faults import (
    ENV_VAR,
    CorruptResult,
    FaultEvent,
    FaultPlan,
    environment_plan,
    resolve_plan,
)
from repro.runtime.supervisor import (
    DEFAULT_WORKER_TIMEOUT,
    RuntimePolicy,
    SiteReport,
    backoff_seconds,
    run_supervised,
)

__all__ = [
    "ENV_VAR",
    "CorruptResult",
    "FaultEvent",
    "FaultPlan",
    "environment_plan",
    "resolve_plan",
    "DEFAULT_WORKER_TIMEOUT",
    "RuntimePolicy",
    "SiteReport",
    "backoff_seconds",
    "run_supervised",
]
