"""Supervised parallel runtime: the only package that knows about processes.

:mod:`repro.runtime.supervisor` runs the tasks of both sites that fan
out (sharded search, batch ``fit_many``): it decides whether a pool
runs, hands the sites' shared state to the workers, brings worker
spans home as trace lanes, puts a deadline on every task and re-runs
each failed task in the parent process, bit-exact with the serial
run; :mod:`repro.runtime.faults` is the deterministic fault-injection
layer that tests and the CI chaos job drive through
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
    shared_state,
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
    "shared_state",
]
