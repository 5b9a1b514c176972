"""The composable mining pipeline behind ``CSPM.fit``.

The paper's Algorithm 1/3 is already staged internally — (1) encode
coresets, (2) build the inverted database, (3) greedy MDL search,
(4) rank the surviving a-stars.  :class:`MiningPipeline` makes those
stages explicit and first-class:

* every stage is an object with a ``name`` and a ``run(context)``
  method that reads/writes a shared :class:`PipelineContext`;
* ``MiningPipeline.default(config)`` wires the paper's four stages;
* callers can insert custom stages (graph preprocessing,
  instrumentation taps, result post-processors) with
  :meth:`MiningPipeline.with_stage` — plain callables are accepted and
  wrapped automatically;
* the facade ``CSPM.fit`` is a thin wrapper over the default pipeline,
  so the facade, the CLI, the batch runner and any future service layer
  all execute the exact same code path.

Example::

    from repro import CSPMConfig, MiningPipeline

    def tap(context):
        print("rows:", context.inverted_db.num_rows)

    pipeline = MiningPipeline.default(CSPMConfig(top_k=10))
    pipeline = pipeline.with_stage(tap, before="Search")
    result = pipeline.run(graph)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
)

from repro.config import CSPMConfig
from repro.core.astar import AStar
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.collector import paused_collector
from repro.core.cspm_basic import run_basic
from repro.core.cspm_partial import run_partial
from repro.core.instrumentation import RunTrace
from repro.core.inverted_db import InvertedDatabase
from repro.core.masks import resolve_backend
from repro.core.mdl import (
    DescriptionLength,
    description_length,
    rank_rows,
)
from repro.core.result import CSPMResult
from repro.errors import MiningError
from repro.graphs.attributed_graph import AttributedGraph
from repro.obs import Observation, activate, clock, current, emit_run_trace

Value = Hashable
Vertex = Hashable


@dataclass
class PipelineContext:
    """Shared state threaded through the pipeline stages.

    Each default stage fills in the fields it is responsible for;
    custom stages may read anything already populated and stash their
    own data in ``extras``.
    """

    graph: AttributedGraph
    config: CSPMConfig
    standard_table: Optional[StandardCodeTable] = None
    coreset_positions: Optional[Dict[FrozenSet[Value], Set[Vertex]]] = None
    core_table: Optional[CoreCodeTable] = None
    inverted_db: Optional[InvertedDatabase] = None
    initial_dl: Optional[DescriptionLength] = None
    trace: Optional[RunTrace] = None
    final_dl: Optional[DescriptionLength] = None
    astars: Optional[List[AStar]] = None
    result: Optional[CSPMResult] = None
    extras: Dict[str, Any] = field(default_factory=dict)
    #: The observation session the stages ran under — the config-
    #: selected :class:`repro.obs.Observation` (or the session already
    #: active at the call site); callers export its trace/metrics
    #: after the run.
    obs: Optional[Observation] = None

    def recompute_initial_dl(self) -> DescriptionLength:
        """Refresh ``initial_dl`` from the current database state.

        The Search stage starts its trace DL accounting from
        ``initial_dl``; a custom stage inserted between
        ``BuildInvertedDB`` and ``Search`` that mutates the inverted
        database (pruning rows, pre-merging) must call this afterwards
        so the accounting reflects the mutated state.
        """
        self.initial_dl = description_length(
            self.inverted_db, self.standard_table, self.core_table
        )
        return self.initial_dl


class PipelineStage:
    """Base class for pipeline stages.

    A stage mutates the :class:`PipelineContext` in place; its ``name``
    (the class name by default) addresses it in
    :meth:`MiningPipeline.with_stage`.
    """

    @property
    def name(self) -> str:
        return type(self).__name__

    def run(self, context: PipelineContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FunctionStage(PipelineStage):
    """Adapter wrapping a plain ``callable(context)`` as a stage."""

    def __init__(self, function: Callable[[PipelineContext], Any], name: Optional[str] = None) -> None:
        self._function = function
        self._name = name or getattr(function, "__name__", "FunctionStage")

    @property
    def name(self) -> str:
        return self._name

    def run(self, context: PipelineContext) -> None:
        self._function(context)

    def __repr__(self) -> str:
        return f"FunctionStage({self._name!r})"


class EncodeCoresets(PipelineStage):
    """Step 1 of Algorithm 1: coreset positions + their code table.

    Singleton coresets make CTc coincide with the standard code table
    (Section IV-C); the ``slim``/``krimp`` encoders mine multi-value
    coresets over the vertex-attribute transactions (Section IV-F).
    """

    def run(self, context: PipelineContext) -> None:
        graph = context.graph
        obs = current()
        with obs.span(
            "mine.encode", encoder=context.config.coreset_encoder
        ):
            # One pass over the mapping function serves both tables: a
            # value's frequency is the size of its vertex set.  The keys
            # come in ``value_frequencies``' order (first occurrence),
            # and both tables are read in sorted order anyway.
            value_positions = graph.value_positions()
            frequencies = {
                value: len(vertices) for value, vertices in value_positions.items()
            }
            context.standard_table = StandardCodeTable.from_graph(
                graph, frequencies
            )
            if context.config.coreset_encoder == "singleton":
                context.coreset_positions = {
                    frozenset([value]): vertices
                    for value, vertices in value_positions.items()
                }
                context.core_table = CoreCodeTable.singletons_from_graph(
                    graph, frequencies
                )
            else:
                # Multi-value coresets: mine itemsets over vertex
                # attribute sets and cover each vertex's attribute set
                # with them.
                from repro.itemsets import cover_database, mine_code_table

                vertices = [
                    v for v in graph.vertices() if graph.attributes_of(v)
                ]
                transactions = [graph.attributes_of(v) for v in vertices]
                code_table = mine_code_table(
                    transactions, algorithm=context.config.coreset_encoder
                )
                covers = cover_database(code_table, transactions)
                positions: Dict[FrozenSet[Value], Set[Vertex]] = {}
                usage: Dict[FrozenSet[Value], int] = {}
                for vertex, cover in zip(vertices, covers):
                    for itemset in cover:
                        key = frozenset(itemset)
                        positions.setdefault(key, set()).add(vertex)
                        usage[key] = usage.get(key, 0) + 1
                context.coreset_positions = positions
                context.core_table = CoreCodeTable(usage)
        if obs.metrics.enabled:
            obs.metrics.gauge("encode.num_coresets").set(
                len(context.coreset_positions)
            )


class BuildInvertedDB(PipelineStage):
    """Step 2 of Algorithm 1: the inverted database and the initial DL.

    The position-mask backend comes from ``config.mask_backend``
    (:mod:`repro.core.masks`; ``"auto"`` resolves by graph size —
    bigint for small graphs, chunked sparse bitmaps at paper scale).
    The stage records the construction wall-clock in
    ``context.extras["construction_seconds"]``, which the perf harness
    (``benchmarks/perf_suite.py``) reports.  The initial description
    length is :func:`~repro.core.mdl.description_length` of the fresh
    database.
    """

    def run(self, context: PipelineContext) -> None:
        config = context.config
        obs = current()
        backend = resolve_backend(
            config.mask_backend,
            num_bits_hint=context.graph.num_vertices,
        )
        with obs.span("mine.build"):
            start = clock.perf_counter()
            context.inverted_db = InvertedDatabase.from_graph(
                context.graph,
                context.coreset_positions,
                mask_backend=backend,
            )
            elapsed = clock.perf_counter() - start
            context.extras["construction_seconds"] = elapsed
            context.initial_dl = description_length(
                context.inverted_db, context.standard_table, context.core_table
            )
        db = context.inverted_db
        if obs.metrics.enabled:
            obs.metrics.histogram("build.seconds").observe(elapsed)
            obs.metrics.gauge("build.num_rows").set(db.num_rows)
            obs.metrics.gauge("build.mask_memory_bytes").set(
                db.mask_memory_bytes()
            )
        obs.progress.note(
            "build", rows=db.num_rows, seconds=round(elapsed, 3)
        )


class Search(PipelineStage):
    """Steps 3-4: greedy MDL merging, basic or partial-update.

    ``basic`` is the paper's quadratic pair scan; ``partial`` seeds
    from the overlap-driven generator (:mod:`repro.core.pairgen`) and
    selects the same merge sequence and DL bits.

    The end-of-run description length is *incremental*: the searches
    accumulate ``initial_dl_bits - sum(breakdown.total)`` (and the
    per-component sums) in the trace, so this stage runs no
    ``description_length`` pass.  The component breakdown
    ``CSPMResult.final_dl``, whose serialised floats must be hash-seed-
    and accumulation-order-independent, comes from
    :class:`RankAndFilter`'s canonical row pass; tests validate the
    incremental totals against it.

    ``config.search="sharded"`` routes uncapped partial runs through
    the component-sharded parallel search
    (:mod:`repro.core.search_shard`) — bit-identical trace and result,
    with the search wall-clock and component stats recorded in
    ``context.extras`` (``search_seconds``, ``num_components``,
    ``largest_component_frac``).  Runs the sharded path cannot express
    (basic method, ``max_iterations`` caps) fall back to serial.
    """

    def run(self, context: PipelineContext) -> None:
        config = context.config
        obs = current()
        # BuildInvertedDB already computed the starting DL on the fresh
        # database; hand it to the search instead of recomputing.
        initial_bits = (
            context.initial_dl.total_bits
            if context.initial_dl is not None
            else None
        )
        start = clock.perf_counter()
        with obs.span(
            "mine.search",
            method=config.method,
            search=config.search,
            scope=config.partial_update_scope,
        ):
            self._dispatch(context, config, initial_bits)
        elapsed = clock.perf_counter() - start
        context.extras["search_seconds"] = elapsed
        if obs.metrics.enabled:
            obs.metrics.histogram("search.seconds").observe(elapsed)
            emit_run_trace(obs.metrics, context.trace)
        obs.progress.note(
            "search",
            merges=len(context.trace.iterations),
            seconds=round(elapsed, 3),
        )

    def _dispatch(
        self,
        context: PipelineContext,
        config: CSPMConfig,
        initial_bits: Optional[float],
    ) -> None:
        if config.method == "basic":
            context.trace = run_basic(
                context.inverted_db,
                context.standard_table,
                context.core_table,
                include_model_cost=config.include_model_cost,
                max_iterations=config.max_iterations,
                initial_dl_bits=initial_bits,
            )
        elif config.search == "sharded" and config.max_iterations is None:
            from repro.core.search_shard import run_sharded

            sharded = run_sharded(
                context.inverted_db,
                context.standard_table,
                context.core_table,
                include_model_cost=config.include_model_cost,
                update_scope=config.partial_update_scope,
                initial_dl_bits=initial_bits,
                workers=config.search_workers,
            )
            context.trace = sharded.trace
            context.extras["num_components"] = sharded.num_components
            context.extras["largest_component_frac"] = (
                sharded.largest_component_frac
            )
            if sharded.report is not None:
                context.extras.setdefault("runtime", {})["search"] = (
                    sharded.report.to_dict()
                )
        else:
            context.trace = run_partial(
                context.inverted_db,
                context.standard_table,
                context.core_table,
                include_model_cost=config.include_model_cost,
                max_iterations=config.max_iterations,
                update_scope=config.partial_update_scope,
                initial_dl_bits=initial_bits,
            )


class RankAndFilter(PipelineStage):
    """Rank surviving a-stars and apply the config post-filters.

    Ordering is the paper's: ascending code length, ties broken by
    :meth:`AStar.sort_key`.  The same canonical pass over the rows
    (:func:`repro.core.mdl.rank_rows`) also sums the final
    description length, so the result carries ``final_dl`` eagerly.
    ``min_leafset`` and ``top_k`` only trim the reported list; they
    never influence the search itself.
    """

    def run(self, context: PipelineContext) -> None:
        config = context.config
        obs = current()
        with obs.span(
            "mine.rank", min_leafset=config.min_leafset, top_k=config.top_k
        ):
            self._rank(context, config)
        if obs.metrics.enabled:
            obs.metrics.gauge("rank.num_astars").set(len(context.astars))

    def _rank(self, context: PipelineContext, config: CSPMConfig) -> None:
        db = context.inverted_db
        astars, context.final_dl = rank_rows(
            db, context.standard_table, context.core_table
        )
        if config.min_leafset > 1:
            astars = [
                star for star in astars if len(star.leafset) >= config.min_leafset
            ]
        if config.top_k is not None:
            astars = astars[: config.top_k]
        context.astars = astars
        context.result = CSPMResult(
            astars=astars,
            trace=context.trace,
            initial_dl=context.initial_dl,
            final_dl=context.final_dl,
            standard_table=context.standard_table,
            core_table=context.core_table,
            inverted_db=db,
            config=config,
            runtime=context.extras.get("runtime"),
        )


class MiningPipeline:
    """An ordered list of stages plus the config that drives them.

    Pipelines are immutable in spirit: :meth:`with_stage` and
    :meth:`with_config` return new pipelines, so a default pipeline can
    be shared and specialised per call site.
    """

    def __init__(
        self,
        stages: Sequence[Any],
        config: Optional[CSPMConfig] = None,
    ) -> None:
        if not stages:
            raise MiningError("a pipeline needs at least one stage")
        self.config = config if config is not None else CSPMConfig()
        self._stages: List[PipelineStage] = [
            self._coerce_stage(stage) for stage in stages
        ]

    @staticmethod
    def _coerce_stage(stage: Any) -> PipelineStage:
        if isinstance(stage, type):
            raise MiningError(
                f"pass a stage instance, not the class {stage.__name__}"
            )
        if isinstance(stage, PipelineStage):
            return stage
        if callable(stage) and not hasattr(stage, "run"):
            return FunctionStage(stage)
        if hasattr(stage, "run") and hasattr(stage, "name"):
            return stage
        raise MiningError(
            f"stage {stage!r} is neither a PipelineStage nor a callable"
        )

    @classmethod
    def default(cls, config: Optional[CSPMConfig] = None) -> "MiningPipeline":
        """The paper's four-stage pipeline (Algorithm 1/3)."""
        return cls(
            [EncodeCoresets(), BuildInvertedDB(), Search(), RankAndFilter()],
            config=config,
        )

    # ------------------------------------------------------------------
    # Introspection and composition
    # ------------------------------------------------------------------

    @property
    def stages(self) -> List[PipelineStage]:
        return list(self._stages)

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self._stages]

    def _index_of(self, name: str) -> int:
        for index, stage in enumerate(self._stages):
            if stage.name == name:
                return index
        raise MiningError(
            f"no stage named {name!r}; have {self.stage_names()}"
        )

    def with_stage(
        self,
        stage: Any,
        before: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "MiningPipeline":
        """A new pipeline with ``stage`` inserted.

        ``before``/``after`` name an existing stage; with neither, the
        stage is appended (it then runs after the result is built —
        useful for result taps).

        A stage that mutates ``context.inverted_db`` between
        ``BuildInvertedDB`` and ``Search`` must finish with
        ``context.recompute_initial_dl()`` — the search seeds its trace
        DL accounting from ``context.initial_dl``.

        Every stage, custom ones included, runs with the cyclic
        garbage collector paused (:mod:`repro.core.collector`): no
        collection runs until the run ends, and then every young
        object moves to the oldest generation.  A stage that makes
        reference cycles keeps their memory until the first full
        collection after the run.
        """
        if before is not None and after is not None:
            raise MiningError("pass at most one of before/after")
        stages = list(self._stages)
        if before is not None:
            stages.insert(self._index_of(before), stage)
        elif after is not None:
            stages.insert(self._index_of(after) + 1, stage)
        else:
            stages.append(stage)
        return MiningPipeline(stages, config=self.config)

    def with_config(self, config: CSPMConfig) -> "MiningPipeline":
        """The same stages driven by a different config."""
        return MiningPipeline(list(self._stages), config=config)

    def __repr__(self) -> str:
        return (
            f"MiningPipeline({' -> '.join(self.stage_names())}, "
            f"config=CSPMConfig({self.config.describe()}))"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        graph: AttributedGraph,
        config: Optional[CSPMConfig] = None,
    ) -> CSPMResult:
        """Execute every stage on ``graph`` and return the built result."""
        context = self.run_context(graph, config=config)
        if context.result is None:
            raise MiningError(
                "pipeline finished without producing a result "
                "(is a RankAndFilter stage missing?)"
            )
        return context.result

    def run_context(
        self,
        graph: AttributedGraph,
        config: Optional[CSPMConfig] = None,
    ) -> PipelineContext:
        """Like :meth:`run` but returns the full context (for taps)."""
        if graph.num_vertices == 0:
            raise MiningError("cannot mine an empty graph")
        if not graph.attribute_values():
            raise MiningError("graph has no attribute values")
        context = PipelineContext(
            graph=graph,
            config=config if config is not None else self.config,
        )
        # A run inside an enabled session (the perf suite, a supervised
        # task, a service layer) records into it, so spans land in one
        # timeline; otherwise the config's knobs select the session.
        obs = current()
        if not obs.enabled:
            obs = Observation.from_config(context.config)
        context.obs = obs
        # A mining run makes no cyclic garbage, so the stages run with
        # the collector paused (repro.core.collector).
        with activate(obs), paused_collector():
            for stage in self._stages:
                stage.run(context)
        return context
