"""Tests for the benchmark dataset analogues."""

import pytest

from repro.datasets import available_datasets, load_dataset, synthetic
from repro.datasets.synthetic import (
    community_attributed_graph,
    pokec_sparse_graph,
    sparse_scaling_graph,
)
from repro.errors import DatasetError
from repro.graphs.stats import graph_stats


class TestRegistry:
    def test_names(self):
        assert available_datasets() == [
            "citeseer",
            "cora",
            "dblp",
            "dblp-trend",
            "pokec",
            "usflight",
        ]

    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            load_dataset("imagenet")

    def test_seeded_determinism(self):
        first = load_dataset("dblp", scale=0.1, seed=4)
        second = load_dataset("dblp", scale=0.1, seed=4)
        assert first == second

    @pytest.mark.parametrize(
        "scale", [float("nan"), float("inf"), -float("inf"), 0, 0.0, -1, True, "0.5"]
    )
    def test_scale_must_be_a_finite_number_above_zero(self, scale):
        with pytest.raises(DatasetError, match="finite number above 0"):
            load_dataset("usflight", scale=scale)


class TestCommunityGenerator:
    def test_pools_respected(self):
        graph = community_attributed_graph(
            community_sizes=[20, 20],
            community_pools=[["a", "b"], ["x", "y"]],
            global_values=(),
            seed=0,
        )
        values = graph.attribute_values()
        assert values <= {"a", "b", "x", "y"}
        # Vertices of community 0 never carry community-1 values.
        for vertex in range(20):
            assert graph.attributes_of(vertex) <= {"a", "b"}

    def test_every_vertex_attributed(self):
        graph = community_attributed_graph(
            [15, 15], [["a"], ["b"]], values_per_vertex=(1, 1), seed=1
        )
        assert all(graph.attributes_of(v) for v in graph.vertices())

    def test_mismatched_pools_rejected(self):
        with pytest.raises(DatasetError):
            community_attributed_graph([10], [["a"], ["b"]])


class TestShapes:
    def test_dblp_matches_paper_statistics_shape(self):
        stats = graph_stats(load_dataset("dblp"))
        # Paper: 2,723 nodes, 3,464 edges -> sparse citation graph.
        assert 2000 <= stats.num_vertices <= 3500
        assert stats.avg_degree < 8
        assert 20 <= stats.num_coresets <= 200

    def test_dblp_trend_triples_value_universe(self):
        dblp = graph_stats(load_dataset("dblp"))
        trend = graph_stats(load_dataset("dblp-trend"))
        assert trend.num_values > 2 * dblp.num_values
        assert trend.num_vertices == dblp.num_vertices

    def test_usflight_is_small_and_dense(self):
        stats = graph_stats(load_dataset("usflight"))
        assert stats.num_vertices == 280
        assert stats.avg_degree > 10
        assert stats.num_values <= 8

    def test_pokec_default_is_laptop_scale(self):
        stats = graph_stats(load_dataset("pokec"))
        assert 1000 <= stats.num_vertices <= 2500
        assert stats.avg_degree > 8  # dense social graph

    def test_cora_like_vocabulary_breadth(self):
        stats = graph_stats(load_dataset("cora", scale=0.2))
        assert stats.num_values > 150  # hard completion task

    def test_scaling_shrinks(self):
        full = load_dataset("dblp")
        small = load_dataset("dblp", scale=0.25)
        assert small.num_vertices < full.num_vertices / 2

    def test_usflight_plants_departure_coupling(self):
        graph = load_dataset("usflight", seed=0)
        # The planted correlation behind the Section VI-B(2) example:
        # many NbDepart- airports border NbDepart+ ones.
        losing = [
            v
            for v in graph.vertices()
            if "NbDepart-" in graph.attributes_of(v)
        ]
        assert losing
        coupled = sum(
            1 for v in losing if "NbDepart+" in graph.neighbor_values(v)
        )
        assert coupled / len(losing) > 0.5

    def test_pokec_taste_communities_separate(self):
        graph = load_dataset("pokec", seed=0)
        young = {"rap", "rock", "metal", "pop", "sladaky", "hiphop", "punk"}
        older = {"disko", "oldies", "folk", "country", "dychovka"}
        mixed = sum(
            1
            for v in graph.vertices()
            if graph.attributes_of(v) & young and graph.attributes_of(v) & older
        )
        assert mixed == 0  # pools do not mix within a profile


class TestSparseFamilies:
    """The perf harnesses' scaling families."""

    @pytest.mark.parametrize("family", [sparse_scaling_graph, pokec_sparse_graph])
    def test_deterministic(self, family):
        first = family(3)
        second = family(3)
        assert first.num_vertices == second.num_vertices
        assert sorted(first.edges()) == sorted(second.edges())

    def test_scales_value_universe(self):
        small = sparse_scaling_graph(2)
        large = sparse_scaling_graph(4)
        assert len(large.attribute_values()) > len(small.attribute_values())

    def test_perf_suite_module_only_re_exports_them(self):
        # perfbench imports these three names from repro.perf.suite,
        # which holds nothing else.
        import repro.perf.suite as shim

        public = {
            name: value for name, value in vars(shim).items()
            if not name.startswith("_")
        }
        names = ("SPARSE_COMMUNITY_SIZE", "SPARSE_POOL_SIZE", "pokec_sparse_graph")
        assert public == {name: getattr(synthetic, name) for name in names}
        assert shim.pokec_sparse_graph is synthetic.pokec_sparse_graph
