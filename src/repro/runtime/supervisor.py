"""Supervised execution: the one module that knows about processes.

:func:`run_supervised` runs the tasks of both sites that fan out —
the component-sharded search (``core/search_shard.py``) and
``fit_many`` (``batch.py``).  A site hands it a job list, a
module-level worker and the state every task reads; the supervisor
decides everything else:

* **in-process or pooled** — one worker or one job runs in the
  calling process; otherwise one pool round runs every task once;
* **how the state reaches the workers** — :func:`shared_state` returns
  it in the calling thread for the call's duration and in every
  worker: workers fork where the platform has ``fork`` and inherit it
  without a pickle byte, and are spawned elsewhere, the state pickled
  once per worker; the pool initializer installs it either way;
* **how spans come home** — each task runs under its own session,
  a span buffer when the caller's session traces and nothing else,
  and the caller adopts each buffer into lane ``{site}[{index}]``;
* **what a failure costs** — every ``Future.result`` call waits at
  most :data:`DEFAULT_WORKER_TIMEOUT`.  A dead worker
  surfaces as ``BrokenProcessPool`` on every unfinished future, with
  no word of *which* task killed it, so every unfinished task counts
  as failed, while the crash itself is counted once per broken pool.
  A task that crashed, timed out, raised, or returned the wrong type
  runs again in the parent, with the same shared state.  Every
  parallel path here is pinned bit-exact to its serial twin, so the
  result is ``==`` the no-fault serial run.  Faults are injected only
  inside worker processes
  (:func:`repro.runtime.faults.execute_with_fault`), never here.

No other module imports ``multiprocessing`` or ``concurrent`` (lint
rule SUP001), so this deadline and re-run cover every worker process;
the tier-1 hang and spawned-worker tests pin both.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs import Observation, activate, clock, current
from repro.obs.trace import SpanRecord
from repro.runtime.faults import environment_plan, execute_with_fault

#: How long one task's result is waited for, seconds.  Generous — real
#: components and batch runs finish in seconds — but finite, so no
#: future wait is unbounded.  Tests patch it to exercise hangs.
DEFAULT_WORKER_TIMEOUT = 300.0


@dataclass
class SiteReport:
    """Structured failure telemetry for one supervised site.

    ``degraded_tasks`` lists the task indexes re-executed in-process;
    ``failures`` records one human-readable line per injected fault
    and per observed failure (kept small — it rides on
    ``CSPMResult.runtime`` and ``BatchResult.report``, not into a log
    aggregator).
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
    ``_processes`` is executor-internal, and ``shutdown`` clears it, so
    it is read first; the guarded access degrades to a plain shutdown
    if a future stdlib renames it.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        if process.is_alive():
            process.terminate()
    for process in processes:
        process.join(timeout=5)


#: ``.state`` holds the ``shared`` value of the innermost
#: :func:`run_supervised` call.  Per thread, so concurrent calls from
#: different threads (a service layer's ``fit_many`` calls) never see
#: each other's state.
_SLOT = threading.local()


def shared_state() -> Any:
    """The ``shared`` argument of the innermost :func:`run_supervised`
    call: in the calling thread while the call runs, and in every
    worker of its pool.  Calls nest (a ``fit_many`` task may run a
    sharded search), and each restores its caller's value on exit."""
    return getattr(_SLOT, "state", None)


def _install_shared(state: Any) -> None:
    """Set this thread's shared slot; the pool initializer."""
    _SLOT.state = state


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` and cgroup cpusets shrink it below
    the host count), else the host count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return multiprocessing.cpu_count() or 1  # pragma: no cover - macOS/Windows


#: What a task sends home: its result, its closed spans and the pid
#: that recorded them.
TaskOutput = Tuple[Any, List[SpanRecord], int]


def _run_task(function: Callable[[Any], Any], argument: Any, traced: bool) -> TaskOutput:
    """``function(argument)`` under the task's own session.

    A task session is a span buffer when the caller traces, and never
    metrics or progress: those stay with the caller, which emits what
    it needs from the results, so a task records the same wherever it
    runs.
    """
    obs = Observation.create(trace=traced)
    with activate(obs):
        value = function(argument)
    return value, obs.tracer.export_spans(), obs.tracer.pid


def _pool_task(payload: Tuple) -> TaskOutput:
    """Pool entrypoint: one task, sabotaged when the plan says so."""
    worker, job, site, index, fault, traced = payload
    return _run_task(execute_with_fault, (worker, job, site, index, fault), traced)


def run_supervised(
    site: str,
    jobs: Sequence[Any],
    worker: Callable[[Any], Any],
    *,
    workers: Optional[int],
    expect_type: type,
    shared: Any = None,
) -> Tuple[List[Any], Optional[SiteReport]]:
    """Run ``worker`` over ``jobs``, in a supervised pool when it pays.

    Returns ``(results, report)`` with ``results[i]`` the result of
    ``worker(jobs[i])`` — order is the caller's, which is what the
    bit-exact merge/stitch code depends on.  ``worker`` must be a
    module-level callable taking one argument, because each task
    pickles it by qualified name; it reads the state common to all
    jobs from :func:`shared_state`.

    One worker (``workers=None`` means one per usable CPU) or one job
    runs in-process, and ``report`` is ``None``: there is no pool to
    supervise.  Otherwise one pool round submits every task, then
    harvests the futures in index order, each within
    :data:`DEFAULT_WORKER_TIMEOUT`; each failed task — a crash, a
    timeout, an exception, or a result that is not an ``expect_type``
    (an injected ``CorruptResult`` among them) — is then re-run
    in-process.  The fault plan, if any, comes from
    ``REPRO_FAULT_PLAN`` (:func:`repro.runtime.faults.environment_plan`).
    """
    obs = current()
    traced = obs.tracer.enabled
    workers = _usable_cpus() if workers is None else workers
    results: Dict[int, Any] = {}

    def finish(index: int, output: TaskOutput, harvested: Optional[float]) -> None:
        value, spans, pid = output
        # A worker's clock shares no epoch with this one: its buffer is
        # end-aligned to the harvest instant (see SpanTracer.adopt).
        obs.tracer.adopt(spans, pid, f"{site}[{index}]", align_end=harvested)
        results[index] = value

    outer = shared_state()
    _install_shared(shared)
    try:
        if workers <= 1 or len(jobs) <= 1:
            for index, job in enumerate(jobs):
                finish(index, _run_task(worker, job, traced), None)
            return [results[index] for index in range(len(jobs))], None
        report = SiteReport(site=site, tasks=len(jobs))
        started = clock.perf_counter()
        failed = _pool_round(
            site, jobs, worker, min(workers, len(jobs)), expect_type, shared, report, finish
        )
        for index in failed:
            # No fault injection, no pickling, the shared state this
            # process already holds: this is literally the serial code
            # path, which is what makes the bit-exactness guarantee
            # hold under worker failure.
            obs.instant("supervisor.degrade", site=site, task=index)
            obs.metrics.counter("runtime.degraded_tasks").inc(1, site=site)
            obs.progress.note("runtime", site=site, task=index, degraded=1)
            report.degraded_tasks.append(index)
            finish(index, _run_task(worker, jobs[index], traced), None)
    finally:
        _install_shared(outer)
    report.seconds = clock.perf_counter() - started
    if obs.metrics.enabled:
        obs.metrics.histogram("runtime.site_seconds").observe(
            report.seconds, site=site
        )
    return [results[index] for index in range(len(jobs))], report


def _pool_round(
    site: str,
    jobs: Sequence[Any],
    worker: Callable[[Any], Any],
    workers: int,
    expect_type: type,
    shared: Any,
    report: SiteReport,
    finish: Callable[[int, TaskOutput, Optional[float]], None],
) -> List[int]:
    """Run every task once in one pool; returns the failed indexes.

    Workers start by ``fork`` where the platform has it (``shared``
    reaches them with the rest of this process's memory) and by
    ``spawn`` elsewhere (``shared`` is pickled once per worker); the
    initializer installs it in each.  Each good result goes to
    ``finish``.
    """
    obs = current()
    traced = obs.tracer.enabled
    plan = environment_plan()
    timeout = DEFAULT_WORKER_TIMEOUT
    failed: List[int] = []

    def _fail(index: int, detail: str) -> None:
        failed.append(index)
        report.failures.append(f"{site}[{index}]: {detail}")
        obs.progress.note("runtime", site=site, task=index, failed=detail)

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    with obs.span("supervisor.pool", site=site, tasks=len(jobs)), ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_install_shared,
        initargs=(shared,),
    ) as pool:
        futures = []
        for index, job in enumerate(jobs):
            fault = plan.fault_for(site, index) if plan is not None else None
            if fault is not None:
                report.failures.append(f"{site}[{index}]: injected {fault.kind}")
            futures.append(
                pool.submit(_pool_task, (worker, job, site, index, fault, traced))
            )
        broken = False
        done = 0
        for index, future in enumerate(futures):
            if broken and (not future.done() or future.cancelled()):
                # The pool is gone; every unfinished task shares the
                # crash (attribution is impossible through
                # BrokenProcessPool).
                _fail(index, "pool broken by worker crash")
                continue
            try:
                output = future.result(timeout=timeout)
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
            value = output[0]
            if not isinstance(value, expect_type):
                _fail(
                    index,
                    f"result type {type(value).__name__}, "
                    f"expected {expect_type.__name__}",
                )
                continue
            finish(index, output, obs.tracer.now())
            done += 1
            obs.progress.heartbeat(
                "runtime", site=site, done=done, pending=len(jobs) - done
            )
        if broken:
            _kill_pool(pool)
    return failed
