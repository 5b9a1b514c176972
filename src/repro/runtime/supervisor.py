"""Supervised execution of the repo's multiprocess pools.

:func:`run_supervised` wraps the fork/spawn ``ProcessPoolExecutor``
usage in ``core/search_shard.py`` and ``batch.py`` with the failure
handling a long-lived mining service needs:

* **per-task timeouts** — every ``Future.result`` call carries a
  deadline (RES001), so a hung worker becomes a retryable event
  instead of a wedged run;
* **bounded retries** on a deterministic backoff schedule — the delays
  are a pure function of ``(site, task index, attempt)`` via
  :func:`zlib.crc32`, and the clock is an injected callable, so
  supervision adds no hidden nondeterminism (DET003) and tests run
  with ``sleep=lambda _: None``;
* **crash detection** — a dead worker surfaces as
  ``BrokenProcessPool`` on every unfinished future with no attribution
  of *which* task killed it, so the whole unfinished set is charged an
  attempt and re-run on a fresh pool;
* **graceful degradation** — a task that exhausts its retry budget is
  re-executed *in the parent process* with the already-inherited
  worker state.  Because every parallel path here is pinned bit-exact
  to its serial twin, the degraded result is not "close enough", it is
  ``==`` the no-fault serial run.  ``on_worker_failure="raise"`` turns
  exhaustion into a :class:`~repro.errors.WorkerFailure` instead, for
  callers that prefer loud death.

The supervisor never injects faults itself: injection happens in
:func:`repro.runtime.faults.execute_with_fault` inside worker
processes, which is exactly why in-process degraded execution is the
trustworthy fallback.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import WorkerFailure
from repro.obs import clock, current
from repro.runtime.faults import (
    CorruptResult,
    FaultPlan,
    execute_with_fault,
    resolve_plan,
)

#: Timeout applied when the policy leaves ``worker_timeout`` unset.
#: Generous — real partitions/components finish in seconds — but finite,
#: so no future wait is unbounded (RES001).
DEFAULT_WORKER_TIMEOUT = 300.0

#: Cap on a single deterministic backoff delay, seconds.
MAX_BACKOFF_SECONDS = 2.0


def backoff_seconds(site: str, index: int, attempt: int) -> float:
    """Deterministic retry delay for ``site`` task ``index`` at ``attempt``.

    Exponential base (0.05 s doubling per attempt, capped) plus a
    jitter term derived from :func:`zlib.crc32` of the key text — the
    same ``PYTHONHASHSEED``-independent digest discipline the fault
    plans use, so a retry schedule is reproducible across processes
    and platforms.
    """
    base = min(0.05 * (2 ** attempt), MAX_BACKOFF_SECONDS)
    digest = zlib.crc32(f"backoff:{site}:{index}:{attempt}".encode("utf-8"))
    jitter = (digest & 0xFFFF) / 0x10000  # [0, 1), deterministic
    return min(base * (1.0 + jitter), MAX_BACKOFF_SECONDS)


@dataclass(frozen=True)
class RuntimePolicy:
    """The supervision knobs for one run, resolved from config + env.

    ``worker_timeout=None`` means "use :data:`DEFAULT_WORKER_TIMEOUT`"
    — there is deliberately no way to wait forever.  ``sleep`` is the
    injected clock (DET003): production uses the
    :func:`repro.obs.clock.sleep` seam, tests pass a recorder.
    """

    worker_timeout: Optional[float] = None
    max_task_retries: int = 2
    on_worker_failure: str = "degrade"
    fault_plan: Optional[FaultPlan] = None
    sleep: Callable[[float], None] = clock.sleep

    @property
    def effective_timeout(self) -> float:
        if self.worker_timeout is None:
            return DEFAULT_WORKER_TIMEOUT
        return self.worker_timeout

    @classmethod
    def from_config(cls, config: Any) -> "RuntimePolicy":
        """Build a policy from anything shaped like ``CSPMConfig``.

        Duck-typed on purpose: the runtime package must not import
        ``repro.config`` (config imports faults for plan coercion, and
        a hard dependency here would close the cycle).  Environment
        fault plans (``REPRO_FAULT_PLAN``) are resolved at this point,
        so every supervised site sees the same activation rule.
        """
        return cls(
            worker_timeout=getattr(config, "worker_timeout", None),
            max_task_retries=getattr(config, "max_task_retries", 2),
            on_worker_failure=getattr(config, "on_worker_failure", "degrade"),
            fault_plan=resolve_plan(getattr(config, "fault_plan", None)),
        )


@dataclass
class SiteReport:
    """Structured failure telemetry for one supervised site.

    ``retries`` counts re-submissions (an attempt beyond a task's
    first); ``degraded_tasks`` lists the task indexes re-executed
    in-process; ``failures`` records one human-readable line per
    observed failure event (kept small — it feeds ``mine --json`` and
    the perf suite, not a log aggregator).
    """

    site: str
    tasks: int = 0
    retries: int = 0
    degraded_tasks: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    rounds: int = 0
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "tasks": self.tasks,
            "retries": self.retries,
            "degraded_tasks": list(self.degraded_tasks),
            "failures": list(self.failures),
            "rounds": self.rounds,
            "seconds": self.seconds,
        }


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that may contain hung or dead workers.

    ``shutdown(wait=False)`` alone leaks a worker that is asleep in a
    hung task, so the surviving processes are terminated explicitly.
    ``_processes`` is executor-internal; the guarded access degrades to
    a plain shutdown if a future stdlib renames it.
    """
    pool.shutdown(wait=False, cancel_futures=True)
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()
        for process in list(processes.values()):
            process.join(timeout=5)


def _degrade(
    worker: Callable[[Any], Any],
    job: Any,
    index: int,
    report: SiteReport,
) -> Any:
    """Re-execute one exhausted task in the parent process.

    No fault injection, no pickling, the parent's own worker state:
    this is literally the serial code path, which is what makes the
    bit-exactness guarantee hold under arbitrary worker failure.
    """
    report.degraded_tasks.append(index)
    return worker(job)


def run_supervised(
    site: str,
    jobs: Sequence[Any],
    worker: Callable[[Any], Any],
    policy: Optional[RuntimePolicy],
    *,
    max_workers: int,
    mp_context: Any = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    expect_type: Optional[type] = None,
) -> Tuple[List[Any], SiteReport]:
    """Run ``jobs`` through ``worker`` in a supervised process pool.

    Returns ``(results, report)`` with ``results[i]`` the result of
    ``worker(jobs[i])`` — order is the caller's submission order, which
    is what the bit-exact merge/stitch code depends on.  ``worker``
    must be a module-level callable (FRK001) taking one argument.
    ``expect_type``, when given, is the result's required type; a
    mismatched or :class:`CorruptResult` payload is treated as a task
    failure and retried.

    The loop is round-based: each round submits every still-pending
    task to a (possibly fresh) pool, then harvests futures in index
    order with a per-future deadline.  A timeout charges only the task
    that timed out; a ``BrokenProcessPool`` charges every task that
    had not finished (the executor cannot attribute the crash).  Tasks
    whose attempt count exceeds ``max_task_retries`` leave the pool:
    they are re-run in-process (``on_worker_failure="degrade"``) or
    raised (``"raise"``).
    """
    if policy is None:
        policy = RuntimePolicy()
    report = SiteReport(site=site, tasks=len(jobs))
    obs = current()
    started = clock.perf_counter()

    results: Dict[int, Any] = {}
    attempts: Dict[int, int] = {index: 0 for index in range(len(jobs))}
    pending: List[int] = list(range(len(jobs)))
    timeout = policy.effective_timeout
    plan = policy.fault_plan

    def _validate(index: int, value: Any) -> Optional[str]:
        if isinstance(value, CorruptResult):
            return f"task {index}: corrupt result marker {value!r}"
        if expect_type is not None and not isinstance(value, expect_type):
            return (
                f"task {index}: result type {type(value).__name__}, "
                f"expected {expect_type.__name__}"
            )
        return None

    def _charge(index: int, detail: str) -> None:
        """Record a failure and either queue a retry or finalise the task."""
        attempts[index] += 1
        report.failures.append(f"{site}[{index}] attempt {attempts[index]}: {detail}")
        if attempts[index] <= policy.max_task_retries:
            report.retries += 1
            retry.append(index)
            obs.instant(
                "supervisor.retry",
                site=site,
                task=index,
                attempt=attempts[index],
                detail=detail,
            )
        else:
            exhausted.append(index)
            obs.instant(
                "supervisor.exhausted",
                site=site,
                task=index,
                attempt=attempts[index],
                detail=detail,
            )
        obs.progress.note(
            "runtime", site=site, task=index, failed=detail
        )

    while pending:
        report.rounds += 1
        retry: List[int] = []
        exhausted: List[int] = []
        with obs.span(
            "supervisor.round",
            site=site,
            round=report.rounds,
            tasks=len(pending),
        ), ProcessPoolExecutor(
            max_workers=max(1, min(max_workers, len(pending))),
            mp_context=mp_context,
            # Forwarded verbatim; each call site passes a module-level
            # function, checked by FRK001 where the callable is named.
            initializer=initializer,  # repro: noqa[FRK001]
            initargs=initargs,
        ) as pool:
            futures = []
            for index in pending:
                fault = None
                if plan is not None:
                    fault = plan.fault_for(site, index, attempts[index])
                    if fault is not None:
                        report.failures.append(
                            f"{site}[{index}] attempt {attempts[index]}: "
                            f"injected {fault.kind}"
                        )
                futures.append(
                    (
                        index,
                        pool.submit(
                            execute_with_fault,
                            (worker, jobs[index], site, index, fault),
                        ),
                    )
                )
            broken = False
            for index, future in futures:
                if broken:
                    # The pool is gone; every unfinished task in this
                    # round shares the crash charge (attribution is
                    # impossible through BrokenProcessPool).
                    if not future.done() or future.cancelled():
                        _charge(index, "pool broken by worker crash")
                        continue
                try:
                    value = future.result(timeout=timeout)
                except FutureTimeoutError:
                    obs.metrics.counter("runtime.timeouts").inc(1, site=site)
                    _charge(index, f"timed out after {timeout:g}s")
                    _kill_pool(pool)
                    broken = True
                    continue
                except BrokenProcessPool:
                    obs.metrics.counter("runtime.worker_crashes").inc(
                        1, site=site
                    )
                    _charge(index, "worker process died")
                    broken = True
                    continue
                except BaseException as exc:  # repro: noqa[RES002] supervisor boundary
                    # Anything a worker raised (including pickle errors
                    # on the result trip) lands here; the supervisor is
                    # the one place broad capture is the contract.
                    if isinstance(exc, KeyboardInterrupt):
                        _kill_pool(pool)
                        raise
                    _charge(index, f"{type(exc).__name__}: {exc}")
                    continue
                problem = _validate(index, value)
                if problem is not None:
                    _charge(index, problem)
                else:
                    results[index] = value
                    obs.progress.heartbeat(
                        "runtime",
                        site=site,
                        done=len(results),
                        pending=len(jobs) - len(results),
                    )
            if broken:
                _kill_pool(pool)

        for index in exhausted:
            if policy.on_worker_failure == "raise":
                report.seconds = clock.perf_counter() - started
                raise WorkerFailure(
                    f"{site} task {index} failed after "
                    f"{attempts[index]} attempts "
                    f"(last: {report.failures[-1]}); "
                    f"on_worker_failure='raise'",
                    site=site,
                    task_index=index,
                    attempts=attempts[index],
                )
            obs.instant("supervisor.degrade", site=site, task=index)
            obs.metrics.counter("runtime.degraded_tasks").inc(1, site=site)
            obs.progress.note("runtime", site=site, task=index, degraded=1)
            results[index] = _degrade(worker, jobs[index], index, report)

        pending = retry
        if pending:
            # Deterministic, injected-clock backoff before the next
            # round — keyed on the round's first retried task.
            policy.sleep(backoff_seconds(site, pending[0], attempts[pending[0]]))

    report.seconds = clock.perf_counter() - started
    if obs.metrics.enabled:
        obs.metrics.counter("runtime.retries").inc(report.retries, site=site)
        obs.metrics.counter("runtime.rounds").inc(report.rounds, site=site)
        obs.metrics.histogram("runtime.site_seconds").observe(
            report.seconds, site=site
        )
    return [results[index] for index in range(len(jobs))], report
