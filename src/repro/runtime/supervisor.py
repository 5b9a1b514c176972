"""Supervised execution of the repo's multiprocess pools.

:func:`run_supervised` wraps the ``ProcessPoolExecutor`` usage in
``core/search_shard.py`` and ``batch.py`` with one failure policy: run
every task once in a pool, and re-run in the parent process each task
the pool failed.

* **a finite deadline** — every ``Future.result`` call waits at most
  :data:`DEFAULT_WORKER_TIMEOUT` (RES001), so a hung worker fails its
  task instead of wedging the run;
* **crash detection** — a dead worker surfaces as
  ``BrokenProcessPool`` on every unfinished future, with no word of
  *which* task killed it, so every unfinished task counts as failed,
  while the crash itself is counted once per broken pool;
* **in-process re-run** — a task that crashed, timed out, raised, or
  returned the wrong type runs again in the parent, with the worker
  state it already holds.  Every parallel path here is pinned
  bit-exact to its serial twin, so the result is ``==`` the no-fault
  serial run.  Faults are injected only inside worker processes
  (:func:`repro.runtime.faults.execute_with_fault`), never here.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import clock, current
from repro.runtime.faults import environment_plan, execute_with_fault

#: How long one task's result is waited for, seconds.  Generous — real
#: components and batch runs finish in seconds — but finite, so no
#: future wait is unbounded (RES001).  Tests patch it to exercise hangs.
DEFAULT_WORKER_TIMEOUT = 300.0


@dataclass
class SiteReport:
    """Structured failure telemetry for one supervised site.

    ``degraded_tasks`` lists the task indexes re-executed in-process;
    ``failures`` records one human-readable line per injected fault
    and per observed failure (kept small — it feeds ``mine --json``,
    not a log aggregator).
    """

    site: str
    tasks: int = 0
    degraded_tasks: List[int] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


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


def run_supervised(
    site: str,
    jobs: Sequence[Any],
    worker: Callable[[Any], Any],
    *,
    max_workers: int,
    mp_context: Any = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple = (),
    expect_type: type,
) -> Tuple[List[Any], SiteReport]:
    """Run ``jobs`` through ``worker`` in a supervised process pool.

    Returns ``(results, report)`` with ``results[i]`` the result of
    ``worker(jobs[i])`` — order is the caller's submission order, which
    is what the bit-exact merge/stitch code depends on.  ``worker``
    must be a module-level callable (FRK001) taking one argument.
    ``expect_type`` is the result's required type; a payload of any
    other type (an injected ``CorruptResult`` among them) counts as a
    failure.

    One pool round submits every task, then harvests the futures in
    index order, each within :data:`DEFAULT_WORKER_TIMEOUT`; each failed
    task is then re-run in-process.  The fault plan, if any, comes from
    ``REPRO_FAULT_PLAN`` (:func:`repro.runtime.faults.environment_plan`).
    """
    report = SiteReport(site=site, tasks=len(jobs))
    obs = current()
    started = clock.perf_counter()
    plan = environment_plan()
    timeout = DEFAULT_WORKER_TIMEOUT
    results: Dict[int, Any] = {}
    failed: List[int] = []

    def _fail(index: int, detail: str) -> None:
        failed.append(index)
        report.failures.append(f"{site}[{index}]: {detail}")
        obs.progress.note("runtime", site=site, task=index, failed=detail)

    with obs.span("supervisor.pool", site=site, tasks=len(jobs)), ProcessPoolExecutor(
        max_workers=max(1, min(max_workers, len(jobs))),
        mp_context=mp_context,
        # Forwarded verbatim; each call site passes a module-level
        # function, checked by FRK001 where the callable is named.
        initializer=initializer,  # repro: noqa[FRK001]
        initargs=initargs,
    ) as pool:
        futures = []
        for index, job in enumerate(jobs):
            fault = plan.fault_for(site, index) if plan is not None else None
            if fault is not None:
                report.failures.append(f"{site}[{index}]: injected {fault.kind}")
            futures.append(
                pool.submit(execute_with_fault, (worker, job, site, index, fault))
            )
        broken = False
        for index, future in enumerate(futures):
            if broken and (not future.done() or future.cancelled()):
                # The pool is gone; every unfinished task shares the
                # crash (attribution is impossible through
                # BrokenProcessPool).
                _fail(index, "pool broken by worker crash")
                continue
            try:
                value = future.result(timeout=timeout)
            except FutureTimeoutError:
                obs.metrics.counter("runtime.timeouts").inc(1, site=site)
                _fail(index, f"timed out after {timeout:g}s")
                _kill_pool(pool)
                broken = True
                continue
            except BrokenProcessPool:
                # Every unfinished future re-raises the one crash that
                # broke the pool: count and name it at the first only.
                if broken:
                    _fail(index, "pool broken by worker crash")
                else:
                    obs.metrics.counter("runtime.worker_crashes").inc(1, site=site)
                    _fail(index, "worker process died")
                broken = True
                continue
            except BaseException as exc:  # repro: noqa[RES002] supervisor boundary
                # Anything a worker raised (including pickle errors
                # on the result trip) lands here; the supervisor is
                # the one place broad capture is the contract.
                if isinstance(exc, KeyboardInterrupt):
                    _kill_pool(pool)
                    raise
                _fail(index, f"{type(exc).__name__}: {exc}")
                continue
            if not isinstance(value, expect_type):
                _fail(
                    index,
                    f"result type {type(value).__name__}, "
                    f"expected {expect_type.__name__}",
                )
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

    for index in failed:
        # No fault injection, no pickling, the parent's own worker
        # state: this is literally the serial code path, which is what
        # makes the bit-exactness guarantee hold under worker failure.
        obs.instant("supervisor.degrade", site=site, task=index)
        obs.metrics.counter("runtime.degraded_tasks").inc(1, site=site)
        obs.progress.note("runtime", site=site, task=index, degraded=1)
        report.degraded_tasks.append(index)
        results[index] = worker(jobs[index])

    report.seconds = clock.perf_counter() - started
    if obs.metrics.enabled:
        obs.metrics.histogram("runtime.site_seconds").observe(
            report.seconds, site=site
        )
    return [results[index] for index in range(len(jobs))], report
