"""Construction-equivalence suite: batched == triples.

The columnar batch builder (``InvertedDatabase.from_graph``) must
reproduce the reference builder (``tests/oracles.py::triples_database``
— one (coreset, vertex, leaf-value) triple at a time) *exactly*:
identical row masks, row frequencies, coreset position lists, interner
ids, each leafset's row-map order, snapshots, leaf unions and initial
``description_length`` floats, on every mask backend including the
64- and 1024-bit-chunk variants, and on the edge-case inputs the
generator never produces.  The vectorised grouping's block boundaries
are pinned too.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import triples_database

from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.core.masks import BigintMaskBackend, ChunkedMaskBackend, get_backend
from repro.core.mdl import description_length
from repro.datasets import load_dataset
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.builders import paper_running_example
from repro.graphs.generators import PlantedAStar, planted_astar_graph

# Production defaults plus the chunk-width variants from
# tests/test_mask_backends.py.
ALL_BACKENDS = [
    BigintMaskBackend(),
    ChunkedMaskBackend(),
    ChunkedMaskBackend(chunk_bits=64),
    ChunkedMaskBackend(chunk_bits=1024),
]


def random_graph(seed, num_vertices=40, num_edges=95):
    graph, _ = planted_astar_graph(
        num_vertices,
        num_edges,
        [
            PlantedAStar("p", ("q", "r"), strength=0.9),
            PlantedAStar("s", ("t",), strength=0.85),
        ],
        noise_values=("n1", "n2", "n3"),
        noise_rate=0.25,
        seed=seed,
    )
    return graph


def explicit_coresets(graph, collapse):
    """``coreset_positions`` as a caller passes them: each value pair's
    common holders, or keys that collapse to one frozenset plus a
    repeated member list."""
    positions = graph.value_positions()
    if collapse:
        return {
            ("p", "q"): list(positions["p"]),
            ("q", "p"): list(positions["q"]),
            ("n1",): list(positions["n1"]) * 2,
        }
    values = sorted(positions, key=repr)
    return {
        (a, b): sorted(set(positions[a]) & set(positions[b]), key=repr)
        for i, a in enumerate(values)
        for b in values[i + 1 :]
    }


# Graphs the generator never produces: string and mixed vertex ids (as
# JSON files load them) and builds with few or no rows.
EDGE_CASES = {
    "string-ids": (
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
        {"a": ["x", "y"], "b": ["x"], "c": ["y", "z"], "d": ["x"]},
    ),
    "mixed-ids": ([(1, "b"), ("b", 2)], {1: ["x", "y"], "b": ["x"], 2: ["y"]}),
    "no-edges": ([], {0: ["a"], 1: ["a"], 2: ["b"]}),
    "no-attributes": ([(0, 1), (1, 2)], {}),
    "unattributed-neighbours": (
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        {0: ["a"], 1: ["b"], 4: ["c"]},
    ),
}


def fingerprint(db):
    """Everything the acceptance criteria pin, in comparable form."""
    backend = db.mask_backend
    return (
        db.snapshot(),
        {key: db.row_frequency(*key) for key in db.snapshot()},
        {core: db.coreset_frequency(core) for core in db.coresets()},
        {
            leaf: db.interner.intern(leaf)
            for leaf in sorted(db.leafsets(), key=repr)
        },
        dict(db.vertex_bit_table()),
        # Each coreset's position list: the vertices its local bits name.
        db._core_members,
        {
            leaf: frozenset(backend.iter_bits(db.leaf_union_mask(leaf)))
            for leaf in db.leafsets()
        },
        # Each leafset's coreset order: gain terms are summed in it.
        {leaf: list(db.rows_of(leaf)) for leaf in db.leafsets()},
        db.coreset_leaf_ids(),
    )


def builders(graph, backend):
    triple = triples_database(graph, mask_backend=backend)
    columnar = InvertedDatabase.from_graph(graph, mask_backend=backend)
    return triple, columnar


@pytest.fixture(params=ALL_BACKENDS, ids=lambda b: repr(b))
def backend(request):
    return request.param


class TestColumnarEquivalence:
    """Batched-vs-triple identity on every backend variant."""

    def test_paper_graph_identical(self, backend):
        graph = paper_running_example()
        triple, columnar = builders(graph, backend)
        assert fingerprint(columnar) == fingerprint(triple)
        columnar.validate(graph)

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_identical(self, backend, seed):
        graph = random_graph(seed)
        triple, columnar = builders(graph, backend)
        assert fingerprint(columnar) == fingerprint(triple)

    def test_initial_description_length_byte_identical(self, backend):
        graph = random_graph(7)
        standard = StandardCodeTable.from_graph(graph)
        core = CoreCodeTable.singletons_from_graph(graph)
        triple, columnar = builders(graph, backend)
        assert description_length(columnar, standard, core) == (
            description_length(triple, standard, core)
        )

    def test_mining_identical_on_all_paths(self):
        graph = random_graph(11)
        standard = StandardCodeTable.from_graph(graph)
        core = CoreCodeTable.singletons_from_graph(graph)
        results = []
        for db in builders(graph, get_backend("chunked")):
            trace = run_partial(db, standard, core)
            results.append(
                (
                    [t.merged_pair for t in trace.iterations],
                    trace.final_dl_bits,
                    trace.total_gain_computations,
                    db.snapshot(),
                )
            )
        assert results[0] == results[1]

    def test_tiny_group_blocks_identical(self, backend, monkeypatch):
        # Force many flushes so block boundaries are exercised.
        graph = random_graph(5)
        reference = fingerprint(
            triples_database(graph, mask_backend=backend)
        )
        monkeypatch.setattr(
            InvertedDatabase, "_GROUP_BLOCK_TRIPLES", 16
        )
        blocked = InvertedDatabase.from_graph(graph, mask_backend=backend)
        assert fingerprint(blocked) == reference

    @pytest.mark.parametrize("name", ["dblp", "usflight", "dblp-trend"])
    def test_dataset_analogues_identical(self, backend, name):
        # The Table II analogues: wider vocabularies than the planted
        # generator, and the graphs Table III and Fig. 5 mine.
        graph = load_dataset(name, scale=0.1, seed=0)
        triple, columnar = builders(graph, backend)
        assert fingerprint(columnar) == fingerprint(triple)

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_edge_case_graphs_identical(self, backend, case):
        graph = AttributedGraph.from_edges(*EDGE_CASES[case])
        triple, columnar = builders(graph, backend)
        assert fingerprint(columnar) == fingerprint(triple)
        columnar.validate(graph)

    @pytest.mark.parametrize(
        "collapse", [False, True], ids=["multi-value", "collapsing-keys"]
    )
    def test_explicit_coreset_positions_identical(self, backend, collapse):
        graph = random_graph(2)
        positions = explicit_coresets(graph, collapse)
        triple = triples_database(
            graph, positions, mask_backend=backend
        )
        columnar = InvertedDatabase.from_graph(
            graph, positions, mask_backend=backend
        )
        assert fingerprint(columnar) == fingerprint(triple)


VALUES = ["a", "b", "c", "d", "e"]


@st.composite
def attributed_graphs(draw, max_vertices=10):
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = AttributedGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
        size = draw(st.integers(min_value=1, max_value=3))
        values = draw(
            st.sets(st.sampled_from(VALUES), min_size=size, max_size=size)
        )
        graph.set_attributes(vertex, values)
    for vertex in range(1, n):
        graph.add_edge(vertex - 1, vertex)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    return graph


@given(graph=attributed_graphs())
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_property_columnar_matches_triples(graph):
    for backend in (BigintMaskBackend(), ChunkedMaskBackend(chunk_bits=64)):
        triple = triples_database(
            graph, mask_backend=backend
        )
        columnar = InvertedDatabase.from_graph(graph, mask_backend=backend)
        assert fingerprint(columnar) == fingerprint(triple)


class TestConfigAndFacade:
    """The build stage's construction telemetry."""

    def test_pipeline_records_construction_seconds(self, paper_graph):
        from repro.pipeline import MiningPipeline

        context = MiningPipeline.default().run_context(paper_graph)
        assert context.extras["construction_seconds"] >= 0.0
