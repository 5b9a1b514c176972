"""The component-sharded search must be bit-exact with the serial run.

``run_sharded`` mines the connected components of the coreset-overlap
graph in worker processes, k-way merges their decision logs and adopts
their final rows (:mod:`repro.core.search_shard`).  The contract is
total: the stitched :class:`RunTrace` — merge sequence, every DL float,
every instrumentation counter — and the mutated database, down to its
interner order, epochs and per-leafset coreset order, must equal the
serial :func:`run_partial` outcome exactly (``==``, not approx), on
every update scope, worker count and mask backend, and the lazy run
must reproduce the naive oracle of ``tests/oracles.py``.  The
golden-file test in tests/test_cli_json.py additionally pins that the
serial default's CLI output is byte-identical (the ``search`` knobs are
omitted from ``to_dict`` at their defaults).
"""

import json
import multiprocessing
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import naive_search, outcome

from repro.config import SEARCHES, CSPMConfig
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.core.masks import get_backend
from repro.core.search_shard import connected_components, run_sharded
from repro.errors import ConfigError, MiningError
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.generators import PlantedAStar, planted_astar_graph


def setup(graph, mask_backend=None):
    backend = get_backend(mask_backend) if mask_backend else None
    return (
        InvertedDatabase.from_graph(graph, mask_backend=backend),
        StandardCodeTable.from_graph(graph),
        CoreCodeTable.singletons_from_graph(graph),
    )


def single_component_graph(seed):
    graph, _ = planted_astar_graph(
        50,
        120,
        [
            PlantedAStar("p", ("q", "r"), strength=0.9),
            PlantedAStar("s", ("t",), strength=0.85),
        ],
        noise_values=("n1", "n2"),
        noise_rate=0.2,
        seed=seed,
    )
    return graph


def multi_component_graph(seed, parts=3):
    """A disjoint union of planted graphs with disjoint value pools.

    Parts share no values, hence no coresets, hence the coreset-overlap
    graph splits into (at least) ``parts`` components — the structure
    the sharded search exists to exploit.
    """
    graph = AttributedGraph()
    for part in range(parts):
        sub, _ = planted_astar_graph(
            40,
            90,
            [
                PlantedAStar(
                    f"p{part}", (f"q{part}", f"r{part}"), strength=0.9
                )
            ],
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


def twin_tenant_graph(seed, twins=3):
    """``twins`` copies of one planted graph, values renamed per copy.

    The copies are isomorphic and every renamed vocabulary keeps the
    original's relative order, so each component's run is the same
    run: heads of different components tie on gain exactly, and only
    the global pair key decides which merges first.  Noise values sort
    by twin and pattern values against it, so that key favours the
    first twin on some ties and the last twin on others — never just
    the component order.
    """
    noise = ("na", "nb")
    base, _ = planted_astar_graph(
        40,
        90,
        [PlantedAStar("p", ("q", "r"), strength=0.9)],
        noise_values=noise,
        noise_rate=0.25,
        seed=seed,
    )
    graph = AttributedGraph()
    for twin in range(twins):
        offset = twin * 10_000
        names = {
            value: f"0{twin}{value}"
            if value in noise
            else f"1{twins - 1 - twin}{value}"
            for value in base.attribute_values()
        }
        for vertex in base.vertices():
            graph.add_vertex(vertex + offset)
            graph.set_attributes(
                vertex + offset,
                {names[value] for value in base.attributes_of(vertex)},
            )
        for left, right in base.edges():
            graph.add_edge(left + offset, right + offset)
    return graph


def twin_of(merged_pair, twins=3):
    """The :func:`twin_tenant_graph` twin a traced merge happened in."""
    name = merged_pair[0][0]  # a value repr: "'0<twin>..." or "'1<last - twin>..."
    digit = int(name[2])
    return digit if name[1] == "0" else twins - 1 - digit


def search_state(trace, db):
    """Everything a search leaves behind, keyed for readable diffs.

    Beyond the serialised trace and the rows: the process-local
    counters, the incremental DL component sums, and the database's
    bookkeeping — interner order, merge epochs, per-coreset id lists,
    frequencies, union masks and each leafset's coreset order (the
    order gain terms accumulate in).
    """
    return {
        "trace": trace.to_dict(),
        "counters": (
            trace.refreshes_skipped,
            trace.dirty_revalidations,
            trace.peak_queue_size,
        ),
        "component_sums": (
            trace.data_leaf_gain_bits,
            trace.model_gain_bits,
            trace.data_core_gain_bits,
        ),
        "snapshot": db.snapshot(),
        "interner": [
            db.interner.leafset_of(i) for i in range(len(db.interner))
        ],
        "merge_index": db._merge_index,
        "core_epoch": db._core_epoch,
        "leaf_epoch": db._leaf_epoch,
        "core_leaf_ids": db._core_leaf_ids,
        "core_freq": db._core_freq,
        "leaf_union": db._leaf_union,
        # Rows with their frequencies, each leafset's map in its order.
        "leaf_rows": {
            leaf: list(rows.items()) for leaf, rows in db._leaf_rows.items()
        },
    }


def assert_bit_exact(graph, update_scope="lazy", workers=1, mask_backend=None):
    """Serial and sharded runs on ``graph`` must be indistinguishable."""
    db_serial, standard, core = setup(graph, mask_backend)
    trace_serial = run_partial(
        db_serial, standard, core, update_scope=update_scope
    )
    db_sharded, _, _ = setup(graph, mask_backend)
    sharded = run_sharded(
        db_sharded, standard, core, update_scope=update_scope, workers=workers
    )
    expected = search_state(trace_serial, db_serial)
    got = search_state(sharded.trace, db_sharded)
    for key, value in expected.items():
        assert got[key] == value, key
    db_sharded.validate(graph)
    return sharded


def assert_matches_oracle(graph):
    """The sharded lazy search must reproduce the naive oracle."""
    db_oracle, standard, core = setup(graph)
    expected = outcome(naive_search(db_oracle, standard, core), db_oracle)
    db_sharded, _, _ = setup(graph)
    sharded = run_sharded(db_sharded, standard, core, workers=1)
    assert outcome(sharded.trace, db_sharded) == expected


class TestComponents:
    def test_multi_part_graph_splits(self):
        db, _, _ = setup(multi_component_graph(1, parts=3))
        components = connected_components(db)
        assert len(components) >= 3
        assert sorted(i for c in components for i in c) == list(
            range(len(db.interner))
        )

    def test_components_partition_coresets(self):
        db, _, _ = setup(multi_component_graph(2))
        owner = {}
        for index, component in enumerate(connected_components(db)):
            for leaf_id in component:
                owner[leaf_id] = index
        for ids in db.coreset_leaf_ids().values():
            assert len({owner[i] for i in ids}) == 1

    def test_single_component_when_values_shared(self, paper_graph):
        db, _, _ = setup(paper_graph)
        components = connected_components(db)
        assert all(len(c) >= 1 for c in components)
        # Components are listed by ascending smallest id.
        firsts = [c[0] for c in components]
        assert firsts == sorted(firsts)


class TestBitExact:
    @pytest.mark.parametrize("scope", ["lazy", "related"])
    @pytest.mark.parametrize("seed", range(4))
    def test_multi_component_in_process(self, seed, scope):
        assert_bit_exact(multi_component_graph(seed), update_scope=scope)

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_component_matches_oracle(self, seed):
        assert_matches_oracle(multi_component_graph(seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_single_component_degenerate(self, seed):
        # One component: the sharded path runs in-process and must
        # still reproduce the serial trace through the stitch.
        sharded = assert_bit_exact(single_component_graph(seed))
        assert sharded.num_components >= 1

    @pytest.mark.parametrize("workers", [2, 3])
    def test_real_worker_pools(self, workers):
        # Fork-pool path: results cross a process boundary.
        sharded = assert_bit_exact(multi_component_graph(3), workers=workers)
        assert sharded.num_components >= 3

    def test_spawned_worker_pool(self, monkeypatch):
        # Where the platform has no fork, the supervisor spawns the
        # workers and its pool initializer hands them the database.
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
        )
        sharded = assert_bit_exact(multi_component_graph(3), workers=2)
        assert sharded.report.tasks >= 3
        assert sharded.report.degraded_tasks == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("scope", ["lazy", "related"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cross_component_ties(self, seed, scope, workers):
        # Equal-gain heads of different components must break ties on
        # the global pair key exactly as the serial queue does.
        graph = twin_tenant_graph(seed)
        sharded = assert_bit_exact(graph, update_scope=scope, workers=workers)
        assert sharded.num_components >= 3
        steps = sharded.trace.iterations
        tied = {
            (twin_of(left.merged_pair), twin_of(right.merged_pair))
            for left, right in zip(steps, steps[1:])
            if left.gain == right.gain
        }
        # Ties go both ways round: the key, not the component order.
        assert any(a < b for a, b in tied) and any(a > b for a, b in tied)

    @pytest.mark.parametrize("backend", ["bigint", "chunked"])
    def test_mask_backends(self, backend):
        assert_bit_exact(multi_component_graph(4), mask_backend=backend)

    def test_component_stats(self):
        sharded = assert_bit_exact(multi_component_graph(5, parts=4))
        assert sharded.num_components >= 4
        assert 0.0 < sharded.largest_component_frac <= 1.0

    def test_no_merges_edge_case(self):
        # Every vertex carries a unique value: no positive-gain pair
        # exists and no coreset is shared, so every leafset is its own
        # component and the stitched trace has zero iterations.
        graph = AttributedGraph()
        for vertex in range(8):
            graph.add_vertex(vertex)
            graph.set_attributes(vertex, {f"v{vertex}"})
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        graph.add_edge(4, 5)
        graph.add_edge(6, 7)
        sharded = assert_bit_exact(graph)
        assert sharded.trace.num_iterations == 0
        assert sharded.num_components == len(connected_components(
            setup(graph)[0]
        ))

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        parts=st.integers(min_value=1, max_value=3),
        scope=st.sampled_from(["lazy", "related"]),
    )
    def test_randomized_equivalence(self, seed, parts, scope):
        graph = multi_component_graph(seed, parts=parts)
        assert_bit_exact(graph, update_scope=scope)
        if scope == "lazy":
            assert_matches_oracle(graph)


class TestPipelineAndConfig:
    def test_config_rejects_unknown_search(self):
        with pytest.raises(ConfigError, match="search"):
            CSPMConfig(search="threaded")

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_config_rejects_bad_workers(self, workers):
        with pytest.raises(ConfigError, match="search_workers"):
            CSPMConfig(search_workers=workers)

    def test_to_dict_omits_defaults(self):
        document = CSPMConfig().to_dict()
        assert "search" not in document
        assert "search_workers" not in document
        explicit = CSPMConfig(search="sharded", search_workers=2).to_dict()
        assert explicit["search"] == "sharded"
        assert explicit["search_workers"] == 2
        assert CSPMConfig.from_dict(explicit).search == "sharded"

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        # A process pinned to one CPU (taskset, a cgroup cpuset) mines
        # in-process by default, however many CPUs the host has.
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 64)
        db, standard, core = setup(multi_component_graph(2))
        sharded = run_sharded(db, standard, core)
        assert sharded.num_components >= 3
        assert sharded.report is None

    def test_run_sharded_validates_arguments(self, paper_graph):
        db, standard, core = setup(paper_graph)
        with pytest.raises(MiningError, match="update_scope"):
            run_sharded(db, standard, core, update_scope="bogus")
        db, _, _ = setup(paper_graph)
        with pytest.raises(MiningError, match="search_workers"):
            run_sharded(db, standard, core, workers=0)

    def test_facade_exposes_search_knobs(self):
        from repro.core.miner import CSPM

        miner = CSPM(search="sharded", search_workers=3)
        assert miner.search == "sharded"
        assert miner.search_workers == 3
        assert "sharded" in SEARCHES

    def test_fit_results_identical(self):
        from repro.core.miner import CSPM

        graph = multi_component_graph(6)
        serial = CSPM(partial_update_scope="lazy").fit(graph)
        sharded = CSPM(
            partial_update_scope="lazy", search="sharded", search_workers=2
        ).fit(graph)
        assert sharded.astars == serial.astars
        assert sharded.final_dl == serial.final_dl
        assert sharded.trace.to_dict() == serial.trace.to_dict()
        left = json.loads(serial.to_json())
        right = json.loads(sharded.to_json())
        # Everything but the recorded search knobs is identical; the
        # supervised-runtime telemetry stays on the result object.
        assert right["config"].pop("search") == "sharded"
        assert right["config"].pop("search_workers") == 2
        assert left == right
        assert serial.runtime is None
        assert set(sharded.runtime) == {"search"}
        assert sharded.runtime["search"]["degraded_tasks"] == []
        assert sharded.runtime["search"]["failures"] == []

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_fit_many_runs_a_sharded_search_in_each_task(self, executor):
        # Each batch task opens the search site's own pool; the search
        # restores the batch's shared state for the task after it.
        from repro.batch import fit_many

        graphs = [multi_component_graph(seed) for seed in (8, 9)]
        plain = fit_many(graphs)
        sharded = fit_many(
            graphs,
            CSPMConfig(search="sharded", search_workers=2),
            n_jobs=2,
            executor=executor,
        )
        for left, right in zip(plain, sharded):
            assert right.result.astars == left.result.astars
            assert right.result.trace.to_dict() == left.result.trace.to_dict()
            assert right.result.final_dl == left.result.final_dl
            assert right.result.runtime["search"]["tasks"] >= 3

    def test_max_iterations_falls_back_to_serial(self):
        from repro.core.miner import CSPM

        graph = multi_component_graph(7)
        capped_serial = CSPM(max_iterations=2).fit(graph)
        capped_sharded = CSPM(max_iterations=2, search="sharded").fit(graph)
        assert capped_sharded.astars == capped_serial.astars
        assert capped_sharded.trace.num_iterations == 2

    def test_pipeline_records_component_extras(self):
        from repro.pipeline import (
            BuildInvertedDB,
            EncodeCoresets,
            PipelineContext,
            Search,
        )

        context = PipelineContext(
            graph=multi_component_graph(8),
            config=CSPMConfig(search="sharded"),
        )
        EncodeCoresets().run(context)
        BuildInvertedDB().run(context)
        Search().run(context)
        assert context.extras["num_components"] >= 3
        assert 0.0 < context.extras["largest_component_frac"] <= 1.0
        assert context.extras["search_seconds"] >= 0.0
