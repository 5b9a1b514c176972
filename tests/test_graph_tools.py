"""Tests for graph generators, IO, statistics and builders."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import per_edge_graph

from repro.errors import DatasetError, GraphError, ReproError
from repro.graphs.builders import paper_running_example, path_graph, star_graph
from repro.graphs.generators import (
    PlantedAStar,
    planted_astar_graph,
    random_attributed_graph,
)
from repro.graphs.io import (
    from_json_dict,
    load_json,
    save_json,
    to_adjacency_text,
    to_json_dict,
)
from repro.graphs.stats import graph_stats, stats_table


class TestBuilders:
    def test_running_example_shape(self):
        graph = paper_running_example()
        assert graph.num_vertices == 5
        assert graph.num_edges == 5
        assert graph.attributes_of(2) == frozenset({"a", "c"})
        assert graph.is_connected()

    def test_star_graph(self):
        graph = star_graph(["x"], [["a"], ["b", "c"]])
        assert graph.degree(0) == 2
        assert graph.neighbor_values(0) == frozenset({"a", "b", "c"})

    def test_star_graph_needs_leaves(self):
        with pytest.raises(GraphError):
            star_graph(["x"], [])

    def test_path_graph(self):
        graph = path_graph([["a"], ["b"], ["c"]])
        assert graph.num_edges == 2
        assert graph.degree(1) == 2

    def test_path_graph_empty(self):
        with pytest.raises(GraphError):
            path_graph([])


class TestGenerators:
    def test_random_graph_connected_and_sized(self):
        graph = random_attributed_graph(30, 60, ["a", "b", "c"], seed=1)
        assert graph.num_vertices == 30
        assert graph.num_edges == 60
        assert graph.is_connected()
        for vertex in graph.vertices():
            assert len(graph.attributes_of(vertex)) == 2

    def test_random_graph_seeded(self):
        first = random_attributed_graph(20, 40, ["a", "b"], seed=5)
        second = random_attributed_graph(20, 40, ["a", "b"], seed=5)
        assert first == second

    def test_random_graph_guards(self):
        with pytest.raises(DatasetError):
            random_attributed_graph(10, 3, ["a"])  # too few edges
        with pytest.raises(DatasetError):
            random_attributed_graph(4, 100, ["a"])  # too many edges
        with pytest.raises(DatasetError):
            random_attributed_graph(4, 4, [])  # no values

    def test_planted_graph_places_cores(self):
        patterns = [PlantedAStar("core", ("l1", "l2"), strength=1.0)]
        graph, truth = planted_astar_graph(
            50, 120, patterns, noise_values=("n",), seed=0
        )
        positions = truth.core_positions["core"]
        assert positions
        for vertex in positions:
            assert "core" in graph.attributes_of(vertex)

    def test_planted_strength_one_means_leaves_nearby(self):
        patterns = [PlantedAStar("core", ("l1",), strength=1.0)]
        graph, truth = planted_astar_graph(40, 100, patterns, seed=3)
        hits = sum(
            1
            for vertex in truth.core_positions["core"]
            if "l1" in graph.neighbor_values(vertex)
        )
        assert hits / len(truth.core_positions["core"]) > 0.9

    def test_planted_guards(self):
        with pytest.raises(DatasetError):
            planted_astar_graph(10, 20, [], noise_rate=2.0)
        with pytest.raises(DatasetError):
            planted_astar_graph(10, 20, [], carrier_fraction=0.0)


VALID_DOCUMENT = {
    "vertices": [1, 2, "c"],
    "edges": [[1, 2], [2, "c"]],
    "attributes": {"1": ["a", "b"], "2": ["a"], "c": ["b", 3]},
}


def _paths(node, prefix=()):
    """Every position in a JSON document, as a key path from the root."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


DOCUMENT_PATHS = list(_paths(VALID_DOCUMENT))
JSON_JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=2), children, max_size=3),
    max_leaves=6,
)


VERTEX_IDS = st.one_of(
    st.integers(min_value=-2, max_value=9),
    st.sampled_from(["a", "b", "7", "x1"]),
)
#: Keys that parse to ints ("05", " 3", "-2") and keys that do not.
ATTRIBUTE_KEYS = st.one_of(
    VERTEX_IDS.map(str), st.sampled_from(["05", " 3", "-2", "1e3", "3.5", "q"])
)


@st.composite
def graph_documents(draw):
    """Valid graph documents: int and string ids, duplicate and reversed
    edges, vertices only in ``vertices``, vertices only in
    ``attributes``."""
    edges = draw(
        st.lists(
            st.lists(VERTEX_IDS, min_size=2, max_size=2).filter(
                lambda edge: edge[0] != edge[1]
            ),
            max_size=20,
        )
    )
    if edges:
        repeated = draw(st.lists(st.sampled_from(edges), max_size=4))
        edges += [edge[::-1] for edge in repeated[::2]] + repeated[1::2]
    keys = draw(st.lists(ATTRIBUTE_KEYS, max_size=8, unique=True))
    return {
        "vertices": draw(st.lists(VERTEX_IDS, max_size=6)),
        "edges": draw(st.permutations(edges)),
        "attributes": {
            key: draw(st.lists(st.sampled_from("abcd"), max_size=3)) for key in keys
        },
    }


class TestIO:
    def test_json_round_trip(self, tmp_path, paper_graph):
        path = tmp_path / "graph.json"
        save_json(paper_graph, path)
        loaded = load_json(path)
        assert loaded == paper_graph

    def test_json_dict_round_trip(self, paper_graph):
        assert from_json_dict(to_json_dict(paper_graph)) == paper_graph

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(GraphError):
            load_json(tmp_path / "missing.json")

    def test_load_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(GraphError):
            load_json(path)

    @pytest.mark.parametrize(
        "document, expected",
        [
            # "1" used to become a fresh int twin, leaving the edge's
            # "1" unattributed.
            ({"edges": [["1", "2"]], "attributes": {"1": ["a"]}}, {"1": {"a"}}),
            ({"vertices": ["7"], "attributes": {"7": ["a"]}}, {"7": {"a"}}),
            ({"edges": [[1, "b"]], "attributes": {"b": ["a"]}}, {"b": {"a"}}),
            # Keys of int-id files still parse to ints, listed or not.
            ({"edges": [[1, 2]], "attributes": {"1": ["a"]}}, {1: {"a"}}),
            ({"vertices": [1], "attributes": {"3": ["c"]}}, {3: {"c"}}),
            ({"vertices": [1], "attributes": {"x": ["c"]}}, {"x": {"c"}}),
        ],
        ids=[
            "string-ids",
            "listed-string-vertex",
            "mixed-ids",
            "int-ids",
            "unlisted-int-key",
            "non-numeric-key",
        ],
    )
    def test_string_vertex_ids_keep_their_attributes(self, document, expected):
        # A key naming an existing vertex is used as-is; any other key
        # parses to an int when it can, and no twin vertex appears.
        graph = from_json_dict(document)
        assert {
            vertex: set(graph.attributes_of(vertex))
            for vertex in graph.vertices()
            if graph.attributes_of(vertex)
        } == expected
        named = set(document.get("vertices", []))
        for edge in document.get("edges", []):
            named.update(edge)
        assert set(graph.vertices()) == named | set(expected)

    def test_string_attribute_value_rejected(self):
        # A bare string is iterable: unchecked, "abc" became a, b and c.
        with pytest.raises(GraphError, match="'1'"):
            from_json_dict({"edges": [[1, 2]], "attributes": {"1": "abc"}})

    @pytest.mark.parametrize("values", [7, None, {"a": 1}, [["a"]]])
    def test_non_array_attribute_values_rejected(self, values):
        with pytest.raises(GraphError, match="vertex '3'"):
            from_json_dict({"edges": [[1, 2]], "attributes": {"3": values}})

    @pytest.mark.parametrize(
        "edge", [[1], [1, 2, 3], [[1], 2], "ab", 5, None, {"u": 1, "v": 2}, [2, 2]]
    )
    def test_malformed_edge_rejected_with_its_index(self, edge):
        with pytest.raises(GraphError, match="edge 1 "):
            from_json_dict({"edges": [[1, 2], edge]})

    @pytest.mark.parametrize(
        "document, field",
        [
            ([], "document"),
            ({"vertices": [{}]}, "'vertices' entry 0"),
            ({"attributes": 1.5}, "'attributes'"),
            ({"vertices": 3}, "'vertices'"),
            ({"edges": 5}, "'edges'"),
            (None, "document"),
            ({"vertices": [1, [2]]}, "'vertices' entry 1"),
            ({"attributes": [["a"]]}, "'attributes'"),
            ({"edges": None}, "'edges'"),
        ],
        ids=[
            "array-document",
            "unhashable-vertex",
            "float-attributes",
            "int-vertices",
            "int-edges",
            "null-document",
            "list-vertex",
            "array-attributes",
            "null-edges",
        ],
    )
    def test_malformed_document_rejected_naming_the_field(self, document, field):
        # Each shape used to escape as a bare AttributeError/TypeError.
        with pytest.raises(GraphError, match=field):
            from_json_dict(document)

    @given(
        path=st.sampled_from(DOCUMENT_PATHS),
        junk=JSON_JUNK,
        drop=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_mutated_documents_raise_only_repro_errors(self, path, junk, drop):
        # Drop one entry of a valid document, or replace it with any
        # JSON value: the loader returns a graph or raises a ReproError.
        document = copy.deepcopy(VALID_DOCUMENT)
        if not path:
            document = junk
        else:
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            if drop:
                del parent[path[-1]]
            else:
                parent[path[-1]] = junk
        try:
            from_json_dict(document)
        except ReproError:
            pass

    @given(document=graph_documents(), int_vertices=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_loader_matches_per_edge_reference(self, document, int_vertices):
        # The bulk pass against add_vertex/add_edge/set_attributes one
        # call at a time: same graph, vertex order and edge count.
        expected = per_edge_graph(document, int_vertices)
        graph = from_json_dict(copy.deepcopy(document), int_vertices)
        assert graph == expected
        assert list(graph.vertices()) == list(expected.vertices())
        assert graph.num_edges == expected.num_edges

    def test_adjacency_text_mentions_all_vertices(self, paper_graph):
        text = to_adjacency_text(paper_graph)
        assert len(text.splitlines()) == paper_graph.num_vertices
        assert "a,c" in text  # v2's values


class TestStats:
    def test_paper_graph_stats(self, paper_graph):
        stats = graph_stats(paper_graph)
        assert stats.num_vertices == 5
        assert stats.num_edges == 5
        assert stats.num_values == 3
        assert stats.num_coresets == 3
        assert stats.avg_values_per_vertex == pytest.approx(7 / 5)
        assert stats.avg_degree == pytest.approx(2.0)

    def test_coresets_require_attributed_neighbours(self):
        from repro.graphs.attributed_graph import AttributedGraph

        graph = AttributedGraph.from_edges(
            [(1, 2)], {1: {"a"}, 2: set(), 3: {"b"}}
        )
        stats = graph_stats(graph)
        # 'a' has only an unattributed neighbour; 'b' is isolated.
        assert stats.num_coresets == 0

    def test_stats_table_format(self, paper_graph):
        text = stats_table([("example", paper_graph)])
        assert "example" in text
        assert "#Nodes" in text
