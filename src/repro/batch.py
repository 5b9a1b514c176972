"""Batch mining: run one config over many graphs.

:func:`fit_many` is the multi-graph entry point a service layer sits
on: it takes a sequence of graphs and a single
:class:`~repro.config.CSPMConfig`, runs the default pipeline on each,
and returns per-graph :class:`BatchRun` records with wall-clock
timing.  Execution is either in-process (``executor="serial"``) or
fanned out over worker processes (``executor="process"``, ``n_jobs``
workers) — results come back in input order either way, and are
identical to calling ``CSPM(config=config).fit(graph)`` per graph.

Example::

    from repro import CSPMConfig, fit_many

    batch = fit_many([g1, g2, g3], CSPMConfig(top_k=20), n_jobs=2,
                     executor="process")
    for run in batch:
        print(run.index, run.seconds, run.result.summary())
"""

from __future__ import annotations

import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.config import CSPMConfig
from repro.core.result import CSPMResult
from repro.errors import MiningError
from repro.graphs.attributed_graph import AttributedGraph
from repro.obs import Observation, activate, clock, current
from repro.runtime.supervisor import SiteReport, run_supervised, shared_state

EXECUTORS = ("serial", "process")


@dataclass
class BatchRun:
    """One graph's outcome within a batch.

    Exactly one of ``result``/``error`` is set: a run that raised keeps
    its position in the batch and carries the exception spelled as
    ``"ExceptionType: message"`` plus the formatted traceback text
    (a string, because the original traceback object cannot cross a
    process boundary).  ``seconds`` is the run's wall-clock either way
    — failed runs are timed too, so batch dashboards never undercount.
    """

    index: int
    result: Optional[CSPMResult]
    seconds: float
    error: Optional[str] = None
    traceback: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record: index, timing, and the serialised outcome."""
        document: Dict[str, Any] = {
            "index": self.index,
            "seconds": self.seconds,
            "result": self.result.to_dict() if self.result is not None else None,
        }
        if self.error is not None:
            document["error"] = self.error
            document["traceback"] = self.traceback
        return document


@dataclass
class BatchResult:
    """All runs of one :func:`fit_many` call, in input order.

    ``report`` is the supervisor's failure telemetry for the
    ``"batch"`` site — ``None`` when the runs ran in-process
    (``executor="serial"``, ``n_jobs=1`` or one graph), where no pool
    exists to supervise.  ``obs`` is the
    batch-level observation session (spans from every run adopted
    into one timeline, per-run duration metrics) when the config's
    observability knobs — or an already-active session — enabled one.
    """

    runs: List[BatchRun]
    config: CSPMConfig
    report: Optional[SiteReport] = None
    obs: Optional[Observation] = None

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[BatchRun]:
        return iter(self.runs)

    def __getitem__(self, index: int) -> BatchRun:
        return self.runs[index]

    @property
    def results(self) -> List[Optional[CSPMResult]]:
        """The per-graph results, in input order (``None`` for errors)."""
        return [run.result for run in self.runs]

    @property
    def errors(self) -> List[BatchRun]:
        """The runs that failed, in input order (empty when all ok)."""
        return [run for run in self.runs if not run.ok]

    @property
    def total_seconds(self) -> float:
        """Summed per-run mining time (excludes scheduling overhead)."""
        return sum(run.seconds for run in self.runs)

    def summary(self) -> str:
        """One line per run: index, timing, pattern count, DL ratio."""
        lines = [
            f"fit_many: {len(self.runs)} graphs, "
            f"{self.total_seconds:.2f}s mining time"
        ]
        for run in self.runs:
            result = run.result
            if result is None:
                lines.append(
                    f"  [{run.index}] {run.seconds:.2f}s  FAILED: {run.error}"
                )
                continue
            lines.append(
                f"  [{run.index}] {run.seconds:.2f}s  "
                f"{len(result.astars)} a-stars  "
                f"ratio {result.compression_ratio:.3f}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"<BatchResult: {len(self.runs)} runs, "
            f"{self.total_seconds:.2f}s mining time>"
        )


def _fit_one(index: int) -> BatchRun:
    """Worker: mine graph ``index`` of the shared ``(graphs, config)``
    and time it (top-level for pickling).

    A raising run is *isolated*, not fatal: the exception becomes a
    per-run error record and the other graphs in the batch are
    unaffected.  Catching here (``Exception``, never
    ``BaseException`` — a crash or interrupt must stay visible to the
    supervisor) also means a deterministic failure is never re-run
    in-process: only process-level events (crash, hang, pickle) reach
    the supervisor's failure handling.
    """
    from repro.pipeline import MiningPipeline

    graphs, config = shared_state()
    start = clock.perf_counter()
    try:
        result = MiningPipeline.default(config).run(graphs[index])
    except Exception as exc:
        return BatchRun(
            index=index,
            result=None,
            seconds=clock.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback_module.format_exc(),
        )
    return BatchRun(index=index, result=result, seconds=clock.perf_counter() - start)


def fit_many(
    graphs: Sequence[AttributedGraph],
    config: Optional[CSPMConfig] = None,
    n_jobs: int = 1,
    executor: str = "serial",
) -> BatchResult:
    """Mine every graph in ``graphs`` under one config.

    Parameters
    ----------
    graphs:
        The input graphs; results preserve this order.
    config:
        The shared run configuration (default: ``CSPMConfig()``).
    n_jobs:
        Worker-process count for ``executor="process"`` (ignored for
        ``"serial"``).
    executor:
        ``"serial"`` (default) runs in-process; ``"process"`` fans out
        over ``n_jobs`` supervised worker processes
        (:func:`repro.runtime.supervisor.run_supervised`; one job or
        ``n_jobs=1`` runs in-process) — workers inherit the graphs by
        fork where the platform has it, and results come home by
        pickle.
    """
    if executor not in EXECUTORS:
        raise MiningError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if not isinstance(n_jobs, int) or isinstance(n_jobs, bool) or n_jobs < 1:
        raise MiningError(f"n_jobs must be a positive int, got {n_jobs!r}")
    config = config if config is not None else CSPMConfig()
    graphs = list(graphs)

    # Batch-level observation: inherit the caller's active session, or
    # build one from the config knobs.  The supervisor runs each graph
    # under its own span buffer and adopts it as lane ``batch[i]``.
    obs = current()
    if not obs.enabled:
        obs = Observation.from_config(config)
    with activate(obs):
        # Supervised (site "batch", task index = run index): a run
        # whose worker crashed or hung is mined again in-process —
        # per-run *exceptions* never get that far, ``_fit_one``
        # already converts them to error records.
        runs, report = run_supervised(
            "batch",
            range(len(graphs)),
            _fit_one,
            workers=n_jobs if executor == "process" else 1,
            expect_type=BatchRun,
            shared=(graphs, config),
        )
        _emit_batch_observations(obs, runs)
    return BatchResult(
        runs=runs,
        config=config,
        report=report,
        obs=obs if obs.enabled else None,
    )


def _emit_batch_observations(obs: Observation, runs: List[BatchRun]) -> None:
    """Fold per-run durations into the batch session.

    Durations are emitted for *every* run — failed runs included — so
    the histogram matches what ``BatchResult.total_seconds`` sums.
    """
    if obs.metrics.enabled:
        for run in runs:
            obs.metrics.histogram("batch.run_seconds").observe(run.seconds)
            obs.metrics.counter("batch.runs").inc(1)
            if not run.ok:
                obs.metrics.counter("batch.run_failures").inc(1)
    obs.progress.note(
        "batch",
        runs=len(runs),
        failures=sum(1 for run in runs if not run.ok),
    )
