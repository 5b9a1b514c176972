"""Seeded input generators and the user-level operation of each workload.

Every generator takes the benchmark seed and returns the graphs the
program receives; nothing else about the workload reaches the program.
``smoke=True`` gives a tiny input of the same shape, for the
benchmark's self-tests.

One operation is what a user waits for:

* single-graph workloads: what ``repro mine --json`` does —
  ``load_json(path)``, ``MiningPipeline.default(config).run_context``,
  ``result.to_json()`` (:func:`mine_file`);
* ``batch-small``: one ``fit_many(...)`` call (:func:`mine_batch`).

:func:`check_single` / :func:`check_batch` turn an operation's output
into an :class:`Outcome` — digests plus final description lengths —
that must equal the run's first operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.batch import BatchResult, fit_many
from repro.config import CSPMConfig
from repro.datasets import load_dataset
from repro.datasets.synthetic import community_attributed_graph
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.io import load_json
from repro.obs import clock
from repro.perf.suite import (
    SPARSE_COMMUNITY_SIZE,
    SPARSE_POOL_SIZE,
    pokec_sparse_graph,
)
from repro.pipeline import MiningPipeline, PipelineContext

#: The seed whose output digests are recorded in ``digests.json``.
DEFAULT_SEED = 0

BATCH_DATASETS = ("dblp", "usflight", "dblp-trend")


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def sparse_serial_graphs(seed: int, smoke: bool = False) -> List[AttributedGraph]:
    """``pokec_sparse_graph`` at 150 communities: 3,750 vertices."""
    return [pokec_sparse_graph(8 if smoke else 150, seed=seed)]


def dense_wide_graphs(seed: int, smoke: bool = False) -> List[AttributedGraph]:
    """The Pokec analogue at ``scale=0.004``: 6,532 vertices, 24 values."""
    return [load_dataset("pokec", scale=0.0005 if smoke else 0.004, seed=seed)]


def tenant_union_graph(
    seed: int, tenants: int = 4, communities: int = 100
) -> AttributedGraph:
    """The disjoint union of ``tenants`` ``pokec_sparse_graph``-shaped
    tenants, each with its own tenant-prefixed vocabulary.

    Vertex ids are renumbered to one contiguous range, tenant by
    tenant.  No edge and no attribute value crosses tenants, so the
    shares-a-coreset graph has one component per tenant.
    """
    edges: List[Tuple[int, int]] = []
    attributes: Dict[int, Any] = {}
    offset = 0
    for tenant in range(tenants):
        pools = [
            [f"t{tenant}c{community}v{value}" for value in range(SPARSE_POOL_SIZE)]
            for community in range(communities)
        ]
        part = community_attributed_graph(
            community_sizes=[SPARSE_COMMUNITY_SIZE] * communities,
            community_pools=pools,
            values_per_vertex=(2, 3),
            intra_degree=2.5,
            inter_degree=0.05,
            seed=seed * tenants + tenant,
        )
        ids = {vertex: offset + i for i, vertex in enumerate(sorted(part.vertices()))}
        edges.extend((ids[u], ids[v]) for u, v in part.edges())
        for vertex, new_id in ids.items():
            attributes[new_id] = part.attributes_of(vertex)
        offset += len(ids)
    return AttributedGraph.from_edges(sorted(edges), attributes)


def fragmented_graphs(seed: int, smoke: bool = False) -> List[AttributedGraph]:
    """Four tenants of 40 communities each: 4,000 vertices."""
    return [tenant_union_graph(seed, communities=3 if smoke else 40)]


def batch_graphs(seed: int, smoke: bool = False) -> List[AttributedGraph]:
    """``dblp``, ``usflight`` and ``dblp-trend`` at ``scale=0.25``, eight
    seeds each (``8 * seed`` to ``8 * seed + 7``): 24 graphs."""
    per_dataset = 2 if smoke else 8
    scale = 0.1 if smoke else 0.25
    return [
        load_dataset(name, scale=scale, seed=seed * per_dataset + index)
        for name in BATCH_DATASETS
        for index in range(per_dataset)
    ]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """A named input family plus the config its operation runs under."""

    name: str
    make_graphs: Callable[[int, bool], List[AttributedGraph]]
    config: CSPMConfig
    #: ``fit_many`` worker count; ``None`` for single-graph workloads.
    batch_jobs: Optional[int] = None

    @property
    def batch(self) -> bool:
        return self.batch_jobs is not None

    @property
    def processes(self) -> int:
        """How many processes an operation keeps busy at once."""
        if self.batch_jobs is not None:
            return self.batch_jobs
        if self.config.search == "sharded":
            return self.config.search_workers
        return 1


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("sparse-serial", sparse_serial_graphs, CSPMConfig()),
        Workload("dense-wide", dense_wide_graphs, CSPMConfig()),
        Workload(
            "fragmented-sharded",
            fragmented_graphs,
            CSPMConfig(search="sharded", search_workers=2),
        ),
        Workload("batch-small", batch_graphs, CSPMConfig(), batch_jobs=2),
    )
}


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


def mine_file(
    path: Path, config: CSPMConfig
) -> Tuple[PipelineContext, str, Tuple[float, float, float]]:
    """``repro mine --json`` on ``path``: load, mine, serialise.

    Returns the pipeline context, the JSON text and the seconds spent
    in ``load_json``, the pipeline and ``to_json``.
    """
    start = clock.perf_counter()
    graph = load_json(path)
    loaded = clock.perf_counter()
    context = MiningPipeline.default(config).run_context(graph)
    mined = clock.perf_counter()
    text = context.result.to_json()
    done = clock.perf_counter()
    return context, text, (loaded - start, mined - loaded, done - mined)


def mine_batch(
    graphs: Sequence[AttributedGraph], config: CSPMConfig, n_jobs: int
) -> BatchResult:
    """One ``fit_many`` call over the process executor."""
    return fit_many(graphs, config, n_jobs=n_jobs, executor="process")


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    """What two correct operations on the same input must agree on.

    ``digest`` covers the whole result document except the
    ``runtime`` telemetry (pool timings differ run to run);
    ``payload`` also drops the ``config`` echo, so it compares runs
    whose configs differ only in execution knobs (traced against
    untraced, sharded against serial).
    """

    digest: str
    payload: str
    final_dl_bits: Tuple[float, ...]


def _sha(document: Dict[str, Any], drop: Sequence[str]) -> str:
    kept = {key: value for key, value in document.items() if key not in drop}
    return hashlib.sha256(json.dumps(kept).encode("utf-8")).hexdigest()


def check_single(text: str, final_dl_bits: float) -> Outcome:
    document = json.loads(text)
    if document["trace"]["final_dl_bits"] != final_dl_bits:
        raise ValueError("serialised final_dl_bits differs from the result's")
    return Outcome(
        digest=_sha(document, ("runtime",)),
        payload=_sha(document, ("runtime", "config")),
        final_dl_bits=(final_dl_bits,),
    )


def check_batch(batch: BatchResult, expected_runs: int) -> Outcome:
    if len(batch.runs) != expected_runs:
        raise ValueError(f"fit_many returned {len(batch.runs)} runs")
    if batch.errors:
        raise ValueError(f"fit_many run failed: {batch.errors[0].error}")
    parts = [check_single(run.result.to_json(), run.result.final_dl_bits) for run in batch.runs]
    return Outcome(
        digest=hashlib.sha256("".join(p.digest for p in parts).encode()).hexdigest(),
        payload=hashlib.sha256("".join(p.payload for p in parts).encode()).hexdigest(),
        final_dl_bits=tuple(p.final_dl_bits[0] for p in parts),
    )


def serial_twin(config: CSPMConfig) -> CSPMConfig:
    """The same config with the serial search path."""
    return dataclasses.replace(config, search="serial", search_workers=None)
