"""Supervised parallel runtime: deadlines, failure detection, in-process re-runs.

:mod:`repro.runtime.supervisor` wraps every multiprocess pool in the
repo (sharded search, batch ``fit_many``) with a per-task deadline and
re-runs each failed task in the parent process, bit-exact with the
serial run; :mod:`repro.runtime.faults` is the deterministic
fault-injection layer that tests and the CI chaos job drive through
``REPRO_FAULT_PLAN``.  See ``docs/RESILIENCE.md``.
"""

from repro.runtime.faults import (
    ENV_VAR,
    CorruptResult,
    FaultEvent,
    FaultPlan,
    environment_plan,
)
from repro.runtime.supervisor import (
    DEFAULT_WORKER_TIMEOUT,
    SiteReport,
    run_supervised,
)

__all__ = [
    "ENV_VAR",
    "CorruptResult",
    "FaultEvent",
    "FaultPlan",
    "environment_plan",
    "DEFAULT_WORKER_TIMEOUT",
    "SiteReport",
    "run_supervised",
]
