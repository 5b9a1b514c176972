"""The collector pause around a mining run (``repro.core.collector``).

Two contracts:

* the pause itself: a run started with the collector enabled starts no
  collection, leaves no young backlog and hands the collector back
  enabled, also when a stage raises; a caller that disabled the
  collector, or holds frozen objects, finds its state as it left it.
  The other two steps of ``mine --json``, ``load_json`` and
  ``CSPMResult.to_json``, start no collection either;
* the invariant that makes the pause safe: with the collector off, a
  run, a graph load or a result serialisation leaves nothing for
  ``gc.collect()`` to find, on every execution path, so pausing it
  never lets garbage pile up.
"""

import gc
import json
import tempfile
from pathlib import Path

import pytest

from repro import CSPMConfig, MiningPipeline, fit_many
from repro.core import collector
from repro.core.collector import paused_collector
from repro.datasets.synthetic import pokec_sparse_graph, sparse_scaling_graph
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.builders import paper_running_example
from repro.graphs.generators import PlantedAStar, planted_astar_graph
from repro.graphs.io import load_json, save_json, to_json_dict


@pytest.fixture()
def enabled_collector():
    """Start each test with the collector on, and restore it after."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def collections_during(call):
    """``(generations of the collections started by call(), its value)``."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        value = call()
    finally:
        gc.callbacks.remove(record)
    return started, value


def raising_pipeline(config=None):
    def boom(context):
        assert context.inverted_db is not None
        raise RuntimeError("stage failed")

    return MiningPipeline.default(config).with_stage(boom, after="Search")


def two_part_graph(seed=0):
    """Two planted graphs with disjoint vocabularies: two components."""
    graph = AttributedGraph()
    for part in range(2):
        sub, _ = planted_astar_graph(
            40,
            90,
            [PlantedAStar(f"p{part}", (f"q{part}", f"r{part}"), strength=0.9)],
            noise_values=(f"n{part}a", f"n{part}b"),
            noise_rate=0.25,
            seed=seed * 7 + part,
        )
        offset = part * 10_000
        for vertex in sub.vertices():
            graph.add_vertex(vertex + offset)
            graph.set_attributes(vertex + offset, sub.attributes_of(vertex))
        for left, right in sub.edges():
            graph.add_edge(left + offset, right + offset)
    return graph


def batch_graphs():
    graphs = [paper_running_example()]
    for seed in (1, 2):
        graph, _ = planted_astar_graph(
            40,
            90,
            [PlantedAStar("core", ("l1", "l2"), strength=0.9)],
            noise_values=("n1", "n2"),
            noise_rate=0.2,
            seed=seed,
        )
        graphs.append(graph)
    return graphs


def mine_json_steps(tmp_path):
    """The three steps of ``mine --json`` on one graph, as calls.

    The graph is large enough that each step, run with the collector
    on, would start collections.
    """
    graph = pokec_sparse_graph(40)
    path = tmp_path / "graph.json"
    save_json(graph, path)
    pipeline = MiningPipeline.default(CSPMConfig())
    result = pipeline.run_context(graph).result
    return {
        "load_json": lambda: load_json(path).num_vertices,
        "run_context": lambda: pipeline.run_context(graph).result.astars,
        "to_json": result.to_json,
    }


class TestPause:
    @pytest.mark.parametrize("step", ["load_json", "run_context", "to_json"])
    def test_a_run_starts_no_collection(self, enabled_collector, tmp_path, step):
        call = mine_json_steps(tmp_path)[step]
        started, value = collections_during(call)
        assert value
        assert started == []

    def test_a_run_leaves_no_young_backlog(self, enabled_collector):
        graph = pokec_sparse_graph(8)
        context = MiningPipeline.default(CSPMConfig()).run_context(graph)
        assert context.result.astars
        assert gc.isenabled()
        assert gc.get_count()[0] < gc.get_threshold()[0]

    def test_stages_run_paused_and_the_collector_comes_back(self, enabled_collector):
        seen = []
        pipeline = MiningPipeline.default(CSPMConfig()).with_stage(
            lambda context: seen.append(gc.isenabled()), before="Search"
        )
        pipeline.run(paper_running_example())
        assert seen == [False]
        assert gc.isenabled()

    def test_the_collector_comes_back_after_a_raising_stage(self, enabled_collector):
        with pytest.raises(RuntimeError, match="stage failed"):
            raising_pipeline().run(paper_running_example())
        assert gc.isenabled()
        assert gc.get_count()[0] < gc.get_threshold()[0]

    def test_a_disabled_collector_is_left_alone(self, enabled_collector):
        graph = paper_running_example()
        pipeline = MiningPipeline.default(CSPMConfig())
        gc.disable()
        marker = []
        before = gc.get_count()
        pipeline.run(graph)
        after = gc.get_count()
        young = gc.get_objects(generation=0)
        assert not gc.isenabled()
        # No freeze reset the young count or moved the young objects.
        assert after[1:] == before[1:]
        assert after[0] >= before[0]
        assert any(obj is marker for obj in young)

    def test_a_callers_frozen_objects_stay_frozen(self, enabled_collector):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            MiningPipeline.default(CSPMConfig()).run(paper_running_example())
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_the_interpreters_own_frozen_objects_do_not_stop_the_move(
        self, enabled_collector, monkeypatch
    ):
        # CPython 3.12 keeps its static types' immortal tuples in the
        # permanent generation; stand in for them on any version.
        graph = pokec_sparse_graph(8)
        pipeline = MiningPipeline.default(CSPMConfig())
        gc.freeze()
        try:
            monkeypatch.setattr(
                collector, "_INTERPRETER_FROZEN", gc.get_freeze_count()
            )
            started, _ = collections_during(lambda: pipeline.run_context(graph))
            assert started == []
            assert gc.get_count()[0] < gc.get_threshold()[0]
        finally:
            gc.unfreeze()

    def test_nested_pauses_restore_the_outer_state(self, enabled_collector):
        # In-process sharded components run inside the pipeline's pause.
        with paused_collector():
            with paused_collector():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()


def run_pipeline(graph_factory, **config):
    def call():
        MiningPipeline.default(CSPMConfig(**config)).run_context(graph_factory())

    return call


def run_sharded_pool():
    config = CSPMConfig(search="sharded", search_workers=2)
    context = MiningPipeline.default(config).run_context(two_part_graph())
    assert "search" in context.extras["runtime"]  # the supervised pool ran


def run_raising():
    try:
        raising_pipeline().run(paper_running_example())
    except RuntimeError:
        return
    raise AssertionError("the stage did not raise")


def run_batch():
    batch = fit_many(batch_graphs(), CSPMConfig(), n_jobs=2, executor="process")
    assert not batch.errors


def run_load_json():
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "graph.json"
        # Written without ``indent``: the indenting encoder (pure
        # Python) leaves a few closure cycles of its own behind.
        path.write_text(json.dumps(to_json_dict(sparse_scaling_graph(6))))
        assert load_json(path).num_vertices


def run_to_json():
    context = MiningPipeline.default(CSPMConfig()).run_context(
        sparse_scaling_graph(6)
    )
    assert context.result.to_json()


#: One run per execution path; each must leave no cyclic garbage.
RUNS = {
    "paper": run_pipeline(paper_running_example),
    "sparse-scaling": run_pipeline(lambda: sparse_scaling_graph(6)),
    "sharded-pool": run_sharded_pool,
    "basic": run_pipeline(paper_running_example, method="basic"),
    "related": run_pipeline(
        lambda: sparse_scaling_graph(4), partial_update_scope="related"
    ),
    "slim": run_pipeline(lambda: sparse_scaling_graph(4), coreset_encoder="slim"),
    "traced": run_pipeline(lambda: sparse_scaling_graph(4), trace=True, metrics=True),
    "raising-stage": run_raising,
    "fit-many-process": run_batch,
    "load-json": run_load_json,
    "to-json": run_to_json,
}


@pytest.mark.parametrize("path", sorted(RUNS))
def test_a_run_makes_no_cyclic_garbage(path, enabled_collector):
    gc.collect()
    gc.disable()
    try:
        RUNS[path]()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
