"""The CSPM facade: a parameter-free miner of attribute-stars.

``CSPM().fit(graph)`` runs the default
:class:`~repro.pipeline.MiningPipeline` of Algorithm 1/3:

1. encode coresets (singleton values by default; optionally multi-value
   coresets discovered by SLIM or Krimp on the vertex-attribute
   transactions — Section IV-F, step 1);
2. build the inverted database (step 2);
3. greedily merge leafsets by MDL gain (steps 3-4), with either the
   basic or the partial-update search — the latter defaulting to the
   lazy bound-driven refresh scope (``update_scope="lazy"``), which
   mines the exact same model as CSPM-Basic while revalidating stored
   gains only when a dirty candidate reaches the queue head;
4. return the surviving a-stars ranked by ascending code length.

The facade is configuration-driven: ``CSPM(config=CSPMConfig(...))``
is the canonical spelling, while the legacy keyword form
``CSPM(method="basic", coreset_encoder="slim")`` keeps working as a
thin shim that builds the config for you.  Both run the exact same
pipeline; callers that need custom stages use
:class:`~repro.pipeline.MiningPipeline` directly, and callers with many
graphs use :func:`repro.batch.fit_many`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.config import CSPMConfig
from repro.core.result import CSPMResult
from repro.errors import ConfigError
from repro.graphs.attributed_graph import AttributedGraph

__all__ = ["CSPM", "CSPMResult"]

_UNSET: Any = object()


class CSPM:
    """Compressing Star Pattern Miner (paper, Algorithm 1 / 3).

    Parameters
    ----------
    config:
        A :class:`~repro.config.CSPMConfig`.  When omitted, one is
        built from the keyword arguments below (all of which default to
        the paper's settings).  Keywords passed *alongside* ``config``
        override the corresponding config fields.
    method, coreset_encoder, include_model_cost, max_iterations, \
    partial_update_scope, top_k, min_leafset, mask_backend, search, \
    search_workers, trace, metrics, progress:
        Legacy/convenience knobs; see :class:`~repro.config.CSPMConfig`
        for their meaning.
    """

    def __init__(
        self,
        method: str = _UNSET,
        coreset_encoder: str = _UNSET,
        include_model_cost: bool = _UNSET,
        max_iterations: Optional[int] = _UNSET,
        partial_update_scope: str = _UNSET,
        top_k: Optional[int] = _UNSET,
        min_leafset: int = _UNSET,
        mask_backend: str = _UNSET,
        search: str = _UNSET,
        search_workers: Optional[int] = _UNSET,
        trace: bool = _UNSET,
        metrics: bool = _UNSET,
        progress: bool = _UNSET,
        config: Optional[CSPMConfig] = None,
    ) -> None:
        overrides = {
            name: value
            for name, value in (
                ("method", method),
                ("coreset_encoder", coreset_encoder),
                ("include_model_cost", include_model_cost),
                ("max_iterations", max_iterations),
                ("partial_update_scope", partial_update_scope),
                ("top_k", top_k),
                ("min_leafset", min_leafset),
                ("mask_backend", mask_backend),
                ("search", search),
                ("search_workers", search_workers),
                ("trace", trace),
                ("metrics", metrics),
                ("progress", progress),
            )
            if value is not _UNSET
        }
        if config is None:
            config = CSPMConfig(**overrides)
        else:
            if not isinstance(config, CSPMConfig):
                raise ConfigError(
                    f"config must be a CSPMConfig, got {type(config).__name__}"
                )
            if overrides:
                config = config.replace(**overrides)
        self.config = config

    # Legacy attribute access: the seed exposed the knobs as instance
    # attributes; keep them readable (the config itself is frozen).

    @property
    def method(self) -> str:
        return self.config.method

    @property
    def coreset_encoder(self) -> str:
        return self.config.coreset_encoder

    @property
    def include_model_cost(self) -> bool:
        return self.config.include_model_cost

    @property
    def max_iterations(self) -> Optional[int]:
        return self.config.max_iterations

    @property
    def partial_update_scope(self) -> str:
        return self.config.partial_update_scope

    @property
    def mask_backend(self) -> str:
        return self.config.mask_backend

    @property
    def search(self) -> str:
        return self.config.search

    @property
    def search_workers(self) -> Optional[int]:
        return self.config.search_workers

    @property
    def trace(self) -> bool:
        return self.config.trace

    @property
    def metrics(self) -> bool:
        return self.config.metrics

    @property
    def progress(self) -> bool:
        return self.config.progress

    def __repr__(self) -> str:
        return f"CSPM({self.config.describe()})"

    # ------------------------------------------------------------------

    def fit(self, graph: AttributedGraph) -> CSPMResult:
        """Mine a-stars from ``graph`` and return the ranked result."""
        from repro.pipeline import MiningPipeline

        return MiningPipeline.default(self.config).run(graph)
