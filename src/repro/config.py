"""Typed run configuration: the single source of truth for CSPM knobs.

Every consumer of the miner — the :class:`repro.CSPM` facade, the
composable :class:`repro.pipeline.MiningPipeline`, the batch runner
:func:`repro.batch.fit_many`, the CLI, the benchmarks — is driven by a
:class:`CSPMConfig`.  The config is

* **frozen**: a run's parameters cannot drift mid-pipeline;
* **validated at construction**: an invalid knob fails immediately with
  :class:`~repro.errors.ConfigError` (a :class:`~repro.errors.MiningError`),
  not deep inside the search;
* **round-trippable**: ``CSPMConfig.from_dict(cfg.to_dict()) == cfg``,
  so configs can travel through JSON job descriptions unchanged.

CSPM remains parameter-free in the paper's sense: the knobs select
*variants* (search strategy, coreset encoder, ablations) and output
post-filters, not data-dependent thresholds.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError

METHODS: Tuple[str, ...] = ("partial", "basic")
ENCODERS: Tuple[str, ...] = ("singleton", "slim", "krimp")
UPDATE_SCOPES: Tuple[str, ...] = ("lazy", "related")
# Canonical backend-name registry; repro.core.masks re-exports it (this
# module imports only repro.errors, so that direction is cycle-free).
MASK_BACKENDS: Tuple[str, ...] = ("auto", "bigint", "chunked")
SEARCHES: Tuple[str, ...] = ("serial", "sharded")
#: The execution-engine fields: they never change the mined output, so
#: :meth:`CSPMConfig.to_dict` omits each one while it holds its
#: declared default.
EXECUTION_FIELDS: Tuple[str, ...] = (
    "mask_backend",
    "search",
    "search_workers",
    "trace",
    "metrics",
    "progress",
)


@dataclass(frozen=True)
class CSPMConfig:
    """The full parameterisation of one CSPM run.

    Attributes
    ----------
    method:
        ``"partial"`` (default, Algorithm 3-4) or ``"basic"``
        (Algorithm 1-2).
    coreset_encoder:
        ``"singleton"`` (default — CTc equals the standard code table,
        Section IV-C), ``"slim"`` or ``"krimp"`` for multi-value
        coresets mined on the vertex-attribute transactions
        (Section IV-F, step 1).
    include_model_cost:
        Whether candidate gains subtract the code-table cost of the new
        leafset (Section IV-E).  ``True`` by default; ablated in the
        benchmarks.
    max_iterations:
        Optional safety cap on the number of merges (``None`` = run to
        convergence, as the paper does).
    partial_update_scope:
        For ``method="partial"``: ``"lazy"`` (default; same merges as
        CSPM-Basic, with stored gains kept as sound upper bounds and
        revalidated only when a dirty pair reaches the queue head) or
        ``"related"`` (the paper's Algorithm 4 rdict heuristic, cheapest
        but may miss late candidates).
    top_k:
        Post-filter: keep only the ``top_k`` best-ranked a-stars in the
        result (``None`` = keep all).  Applied by the RankAndFilter
        pipeline stage after the search terminates — it never changes
        which merges happen.
    min_leafset:
        Post-filter: drop a-stars whose leafset is smaller than this
        (default 1 = keep all).  Applied with ``top_k``.
    mask_backend:
        Position-mask representation for the inverted database
        (:mod:`repro.core.masks`): ``"auto"`` (default — bigint below
        the chunking threshold, chunked at paper scale), ``"bigint"``
        or ``"chunked"``.  Purely an execution-engine choice: every
        backend mines the bit-identical model, so the field is
        serialised only when non-default (schema-v1 result documents
        stay byte-stable).
    search:
        How the greedy search runs: ``"serial"`` (default — one
        process) or ``"sharded"`` (connected components of the
        shares-a-coreset relation mined in parallel worker processes
        and interleaved into the identical result,
        :mod:`repro.core.search_shard`).  Another pure
        execution-engine choice — the mined model, trace and result
        document are bit-identical — so it is serialised only when
        non-default.  Applies to ``method="partial"`` runs without an
        iteration cap; other runs fall back to the serial path.
    search_workers:
        Worker-process count for ``search="sharded"`` (``None`` = one
        per CPU the process may run on, capped by the component
        count).  Ignored under serial search.
    trace:
        Record nestable spans for every pipeline stage, construction
        phase, worker task and supervisor event (:mod:`repro.obs`),
        mergeable into one Chrome-trace timeline (``mine --trace``).
        Recording never perturbs the mined output — merge sequences
        and DL floats are ``==`` an untraced run.  Serialised only
        when enabled.
    metrics:
        Record named counters/gauges/histograms (the ``RunTrace``
        perf counters, mask memory, supervisor degrade/timeout
        telemetry, per-run batch durations) into a
        :class:`repro.obs.MetricsRegistry` (``mine --metrics``).
        Serialised only when enabled.
    progress:
        Emit throttled heartbeat lines for long phases on stderr
        (``mine --progress``).  Serialised only when enabled.
    """

    method: str = "partial"
    coreset_encoder: str = "singleton"
    include_model_cost: bool = True
    max_iterations: Optional[int] = None
    partial_update_scope: str = "lazy"
    top_k: Optional[int] = None
    min_leafset: int = 1
    mask_backend: str = "auto"
    search: str = "serial"
    search_workers: Optional[int] = None
    trace: bool = False
    metrics: bool = False
    progress: bool = False

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(
                f"method must be one of {METHODS}, got {self.method!r}"
            )
        if self.coreset_encoder not in ENCODERS:
            raise ConfigError(
                f"coreset_encoder must be one of {ENCODERS}, "
                f"got {self.coreset_encoder!r}"
            )
        if self.partial_update_scope not in UPDATE_SCOPES:
            raise ConfigError(
                f"partial_update_scope must be one of {UPDATE_SCOPES}, "
                f"got {self.partial_update_scope!r}"
            )
        if not isinstance(self.include_model_cost, bool):
            raise ConfigError(
                f"include_model_cost must be a bool, "
                f"got {self.include_model_cost!r}"
            )
        if self.max_iterations is not None and not (
            isinstance(self.max_iterations, int)
            and not isinstance(self.max_iterations, bool)
            and self.max_iterations >= 0
        ):
            raise ConfigError(
                f"max_iterations must be None or a non-negative int, "
                f"got {self.max_iterations!r}"
            )
        if self.top_k is not None and not (
            isinstance(self.top_k, int)
            and not isinstance(self.top_k, bool)
            and self.top_k >= 1
        ):
            raise ConfigError(
                f"top_k must be None or a positive int, got {self.top_k!r}"
            )
        if not (
            isinstance(self.min_leafset, int)
            and not isinstance(self.min_leafset, bool)
            and self.min_leafset >= 1
        ):
            raise ConfigError(
                f"min_leafset must be a positive int, got {self.min_leafset!r}"
            )
        if self.mask_backend not in MASK_BACKENDS:
            raise ConfigError(
                f"mask_backend must be one of {MASK_BACKENDS}, "
                f"got {self.mask_backend!r}"
            )
        if self.search not in SEARCHES:
            raise ConfigError(
                f"search must be one of {SEARCHES}, got {self.search!r}"
            )
        if self.search_workers is not None and not (
            isinstance(self.search_workers, int)
            and not isinstance(self.search_workers, bool)
            and self.search_workers >= 1
        ):
            raise ConfigError(
                f"search_workers must be None or a positive int, "
                f"got {self.search_workers!r}"
            )
        if not isinstance(self.trace, bool):
            raise ConfigError(f"trace must be a bool, got {self.trace!r}")
        if not isinstance(self.metrics, bool):
            raise ConfigError(f"metrics must be a bool, got {self.metrics!r}")
        if not isinstance(self.progress, bool):
            raise ConfigError(
                f"progress must be a bool, got {self.progress!r}"
            )

    # ------------------------------------------------------------------
    # Derivation and serialisation
    # ------------------------------------------------------------------

    def replace(self, **changes: Any) -> "CSPMConfig":
        """A new config with ``changes`` applied (re-validated)."""
        try:
            return dataclasses.replace(self, **changes)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping of the config.

        The :data:`EXECUTION_FIELDS` (``mask_backend``,
        ``search``/``search_workers``, and the observability knobs
        ``trace``/``metrics``/``progress``) are included only when they
        differ from their declared defaults: they never change the mined
        output, and omitting the defaults keeps existing schema-v1
        result documents (including the CLI golden file) byte-identical.
        :meth:`from_dict` round-trips either way.
        """
        document = dataclasses.asdict(self)
        defaults = {field.name: field.default for field in dataclasses.fields(self)}
        for name in EXECUTION_FIELDS:
            if document[name] == defaults[name]:
                del document[name]
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "CSPMConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Anything but a mapping, and unknown keys, are rejected so that
        typos in job descriptions fail loudly instead of silently
        running with defaults.
        """
        if not isinstance(document, Mapping):
            raise ConfigError(
                f"config must be an object, got {type(document).__name__}"
            )
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(document) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {unknown}")
        return cls(**dict(document))

    def describe(self) -> str:
        """The non-default fields as ``key=value`` text (or ``defaults``)."""
        parts = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                parts.append(f"{field.name}={value!r}")
        return ", ".join(parts) if parts else "defaults"
