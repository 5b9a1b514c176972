"""CSPM — mining representative attribute-stars via MDL.

A faithful, from-scratch reproduction of the ICDE 2022 paper
*"Discovering Representative Attribute-stars via Minimum Description
Length"* (Liu, Zhou, Fournier-Viger, Yang, Pan, Nouioua).

The package is organised around the paper's pipeline:

``repro.graphs``
    The attributed-graph substrate: data structure, builders, IO,
    statistics and synthetic generators.
``repro.core``
    The paper's primary contribution: the inverted database, MDL
    accounting, the CSPM-Basic and CSPM-Partial search procedures, and
    the a-star scoring module (Algorithm 5).  Position masks are
    pluggable (``repro.core.masks``): Python-int bitmaps or a sparse
    chunked representation for paper-scale graphs — both mining
    bit-identical models (``CSPMConfig(mask_backend=...)``, default
    ``"auto"``).
``repro.config`` / ``repro.pipeline`` / ``repro.batch``
    The public API surface: the frozen :class:`CSPMConfig`, the
    composable :class:`MiningPipeline` (encode coresets -> inverted DB
    -> search -> rank & filter), and the multi-graph :func:`fit_many`
    batch runner.  ``CSPM`` is a thin facade over the default
    pipeline.
``repro.runtime``
    The supervised parallel runtime: every worker pool (sharded
    search, batch runs) gets a per-task deadline, and each task a pool
    fails is re-run in-process, bit-exact with the serial run;
    reproducible fault injection for tests and CI goes through the
    ``REPRO_FAULT_PLAN`` environment variable — see
    ``docs/RESILIENCE.md``.
``repro.obs``
    The observability layer: nestable spans on an injected clock with
    a merged cross-process timeline (Chrome trace / NDJSON export), a
    metrics registry unifying the run counters and supervisor
    telemetry, and throttled progress heartbeats — all behind
    zero-cost no-op defaults, enabled via
    ``CSPMConfig(trace=..., metrics=..., progress=...)`` or the
    matching ``mine`` flags — see ``docs/OBSERVABILITY.md``.
``repro.itemsets``
    Krimp and SLIM, the MDL itemset miners used both as the multi-value
    coreset encoder (Section IV-F) and as the runtime baseline of
    Table III.
``repro.nn`` / ``repro.completion``
    A numpy autograd substrate with graph neural baselines and the node
    attribute completion task of Table IV.
``repro.alarms``
    The telecom alarm-correlation application of Fig. 8, with a
    synthetic alarm simulator and the ACOR baseline.
``repro.datasets``
    Synthetic analogues of the paper's benchmark datasets.

Quickstart::

    from repro import CSPM, CSPMConfig, AttributedGraph, fit_many

    graph = AttributedGraph.from_edges(
        edges=[(1, 2), (1, 3)],
        attributes={1: {"a"}, 2: {"a", "c"}, 3: {"c"}},
    )

    # One graph, default settings (equivalent: CSPM().fit(graph)).
    config = CSPMConfig(method="partial", top_k=5)
    result = CSPM(config=config).fit(graph)
    for star in result.top(5):
        print(star)
    payload = result.to_json()          # ship it; from_json round-trips

    # Many graphs, one config, optional process-parallel execution.
    batch = fit_many([graph, graph], config, n_jobs=2, executor="process")

    # Custom stages via the explicit pipeline.
    from repro import MiningPipeline
    pipeline = MiningPipeline.default(config).with_stage(
        lambda ctx: print("rows:", ctx.inverted_db.num_rows),
        before="Search",
    )
    result = pipeline.run(graph)
"""

from repro.batch import BatchResult, BatchRun, fit_many
from repro.config import MASK_BACKENDS, SEARCHES, CSPMConfig
from repro.core.astar import AStar
from repro.core.masks import MaskBackend
from repro.core.miner import CSPM
from repro.core.result import CSPMResult
from repro.core.scoring import AStarScorer
from repro.errors import (
    ConfigError,
    GraphError,
    MiningError,
    ReproError,
)
from repro.graphs.attributed_graph import AttributedGraph
from repro.pipeline import MiningPipeline, PipelineContext, PipelineStage

__version__ = "1.20.0"

__all__ = [
    "AStar",
    "AStarScorer",
    "AttributedGraph",
    "BatchResult",
    "BatchRun",
    "CSPM",
    "CSPMConfig",
    "CSPMResult",
    "ConfigError",
    "GraphError",
    "MASK_BACKENDS",
    "MaskBackend",
    "MiningError",
    "MiningPipeline",
    "PipelineContext",
    "PipelineStage",
    "ReproError",
    "SEARCHES",
    "fit_many",
    "__version__",
]
