"""Proof-of-equivalence suite for CSPM-Partial's lazy refresh scope.

The lazy scope defers the post-merge neighbourhood refresh: stored
gains stay in the queue as sound upper bounds (merges not involving a
pair's leafsets only shrink ``fe``), refreshes provably unchanged by
the merge are skipped via union-mask tests, and revalidation happens
only when a dirty pair reaches the queue head.  Everything here pins
the headline guarantee — the mined model, the merge sequence and the
incremental DL accounting are *bit-identical* to CSPM-Basic, the
naive Algorithm 1-2 oracle (``tests/oracles.py``) — plus the counter
semantics the perf suite records
(``refreshes_skipped``/``dirty_revalidations``).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import naive_search, outcome

from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_basic import run_basic
from repro.core.cspm_partial import UPDATE_SCOPES, run_partial
from repro.core.gain import GainEngine
from repro.core.inverted_db import InvertedDatabase
from repro.core.mdl import description_length
from repro.datasets import load_dataset
from repro.graphs.generators import PlantedAStar, planted_astar_graph


def setup(graph):
    return (
        InvertedDatabase.from_graph(graph),
        StandardCodeTable.from_graph(graph),
        CoreCodeTable.singletons_from_graph(graph),
    )


def random_graph(seed, num_vertices=50, num_edges=120):
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


class TestScopeRegistry:
    def test_lazy_is_a_scope_and_the_default(self):
        from repro.config import CSPMConfig
        from repro.config import UPDATE_SCOPES as CONFIG_SCOPES

        assert UPDATE_SCOPES == ("lazy", "related")
        assert UPDATE_SCOPES is CONFIG_SCOPES
        assert CSPMConfig().partial_update_scope == "lazy"

    def test_default_run_partial_scope_is_lazy(self, paper_graph):
        trace = run_partial(*setup(paper_graph))
        assert trace.algorithm == "cspm-partial/lazy"


class TestBitExactEquivalence:
    """Lazy must reproduce the naive oracle bit-for-bit."""

    @pytest.mark.parametrize("seed", range(8))
    def test_lazy_matches_oracle(self, seed):
        graph = random_graph(seed)
        db_oracle, standard, core = setup(graph)
        expected = outcome(naive_search(db_oracle, standard, core), db_oracle)
        db_lazy, _, _ = setup(graph)
        trace_lazy = run_partial(db_lazy, standard, core, update_scope="lazy")

        # Identical merge sequence, gains, DL floats, component sums and
        # final database (clean-head merges reuse stored breakdowns, so
        # every subtracted float must be the very same one).
        assert outcome(trace_lazy, db_lazy) == expected

    @pytest.mark.parametrize("name", ["dblp", "usflight"])
    def test_lazy_matches_oracle_on_dataset_analogues(self, name):
        graph = load_dataset(name, scale=0.1, seed=0)
        db_oracle, standard, core = setup(graph)
        expected = outcome(naive_search(db_oracle, standard, core), db_oracle)
        db_lazy, _, _ = setup(graph)
        trace_lazy = run_partial(db_lazy, standard, core, update_scope="lazy")
        assert outcome(trace_lazy, db_lazy) == expected

    def test_lazy_tracked_dl_matches_reference_recompute(self):
        graph = random_graph(3)
        db, standard, core = setup(graph)
        trace = run_partial(db, standard, core, update_scope="lazy")
        reference = description_length(db, standard, core).total_bits
        assert trace.final_dl_bits == pytest.approx(reference, abs=1e-6)
        db.validate(graph)


VALUES = ["a", "b", "c", "d", "e"]


@st.composite
def attributed_graphs(draw, max_vertices=10):
    from repro.graphs.attributed_graph import AttributedGraph

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
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_property_lazy_matches_oracle(graph):
    """Lazy reproduces the naive oracle exactly on arbitrary small
    graphs; the related heuristic follows its own merge path (it may
    stop earlier or even luck into a better model), so it is only held
    to internally-consistent DL accounting."""
    db_oracle, standard, core = setup(graph)
    expected = outcome(naive_search(db_oracle, standard, core), db_oracle)
    db_lazy, _, _ = setup(graph)
    trace_lazy = run_partial(db_lazy, standard, core, update_scope="lazy")
    db_rel, _, _ = setup(graph)
    trace_rel = run_partial(db_rel, standard, core, update_scope="related")

    assert outcome(trace_lazy, db_lazy) == expected
    assert math.isclose(
        trace_rel.final_dl_bits,
        description_length(db_rel, standard, core).total_bits,
        rel_tol=1e-9,
        abs_tol=1e-6,
    )


class TestCounters:
    def test_lazy_records_skips_and_revalidations(self):
        graph = random_graph(2)
        db, standard, core = setup(graph)
        trace = run_partial(db, standard, core, update_scope="lazy")
        assert trace.refreshes_skipped > 0
        assert trace.dirty_revalidations >= 0
        # Every merge was accounted: skips + computations >= pops.
        assert trace.total_gain_computations > 0

    @pytest.mark.parametrize("scope", ["related"])
    def test_counters_zero_for_eager_scopes(self, scope):
        graph = random_graph(2)
        db, standard, core = setup(graph)
        trace = run_partial(db, standard, core, update_scope=scope)
        assert trace.refreshes_skipped == 0
        assert trace.dirty_revalidations == 0

    def test_counters_zero_for_basic(self):
        graph = random_graph(2)
        trace = run_basic(*setup(graph))
        assert trace.refreshes_skipped == 0
        assert trace.dirty_revalidations == 0

    def test_lazy_computes_fewer_gains_than_oracle(self):
        graph = random_graph(4)
        db_l, standard, core = setup(graph)
        trace_l = run_partial(db_l, standard, core, update_scope="lazy")
        db_o, _, _ = setup(graph)
        trace_o = naive_search(db_o, standard, core)
        assert trace_l.total_gain_computations < trace_o.total_gain_computations
        # The skipped work is exactly what the counters claim: the
        # lazy run evaluated fewer pairs, not different ones.
        assert trace_l.num_iterations == trace_o.num_iterations


class TestStaleness:
    """GainEngine.stale_since drives the clean-head fast path."""

    def test_fresh_pairs_are_clean_and_merges_dirty_them(self):
        graph = random_graph(1)
        db, standard, core = setup(graph)
        engine = GainEngine(db, standard, core)
        leafsets = db.interner.order(db.leafsets())
        leaf_x, leaf_y = None, None
        for i, a in enumerate(leafsets):
            for b in leafsets[i + 1 :]:
                if db.common_coresets(a, b):
                    leaf_x, leaf_y = a, b
                    break
            if leaf_x is not None:
                break
        assert leaf_x is not None, "graph should have a sharing pair"
        at = db.merge_epoch
        assert not engine.stale_since(leaf_x, leaf_y, at)
        db.merge(leaf_x, leaf_y)
        assert engine.stale_since(leaf_x, leaf_y, at)
        # A gain validated *after* the merge is clean again.
        assert not engine.stale_since(leaf_x, leaf_y, db.merge_epoch)

    def test_unrelated_pair_stays_clean(self):
        from repro.graphs.attributed_graph import AttributedGraph

        graph = AttributedGraph.from_edges(
            edges=[(0, 1), (2, 3)],
            attributes={0: {"a"}, 1: {"b", "c"}, 2: {"x"}, 3: {"y", "z"}},
        )
        db, standard, core = setup(graph)
        engine = GainEngine(db, standard, core)
        at = db.merge_epoch
        db.merge(frozenset(["b"]), frozenset(["c"]))
        # The (y, z) pair lives in the other component: no common
        # coreset was touched, its stored gain would still be exact.
        assert not engine.stale_since(frozenset(["y"]), frozenset(["z"]), at)

    def test_epochs_exposed_by_database(self):
        graph = random_graph(0)
        db, _standard, _core = setup(graph)
        assert db.merge_epoch == 0
        leafsets = db.interner.order(db.leafsets())
        pair = None
        for i, a in enumerate(leafsets):
            for b in leafsets[i + 1 :]:
                cores = db.common_coresets(a, b)
                if cores:
                    pair = (a, b, cores)
                    break
            if pair:
                break
        a, b, cores = pair
        outcome = db.merge(a, b)
        assert db.merge_epoch == 1
        for core_key in outcome.touched_coresets:
            assert db.core_epoch(core_key) == 1
        if outcome.touched_coresets:
            assert db.leaf_epoch(outcome.new_leafset) == 1


class TestGainEngineMemoisation:
    def test_gain_is_orientation_independent(self):
        graph = random_graph(6)
        db, standard, core = setup(graph)
        engine = GainEngine(db, standard, core)
        leafsets = db.interner.order(db.leafsets())
        checked = 0
        for i, a in enumerate(leafsets):
            for b in leafsets[i + 1 :]:
                forward = engine.gain(a, b)
                backward = engine.gain(b, a)
                assert forward == backward  # exact float equality
                checked += 1
        assert checked > 0

    def test_gain_matches_pair_gain_reference(self):
        from repro.core.gain import pair_gain

        graph = random_graph(9)
        db, standard, core = setup(graph)
        engine = GainEngine(db, standard, core)
        leafsets = db.interner.order(db.leafsets())
        for i, a in enumerate(leafsets[:8]):
            for b in leafsets[i + 1 : 8]:
                fast = engine.gain(a, b)
                reference = pair_gain(db, a, b, standard, core)
                assert fast.net(True) == pytest.approx(
                    reference.net(True), abs=1e-9
                )
                assert fast.total == pytest.approx(reference.total, abs=1e-9)


class TestIncrementalFinalDL:
    """The search tracks the end-of-run DL total incrementally; the rank
    pass sums the component breakdown."""

    def test_result_carries_final_dl_from_rank_pass(self, paper_graph):
        from repro import CSPM

        result = CSPM().fit(paper_graph)
        assert result.final_dl_bits == result.trace.final_dl_bits
        # The breakdown arrives with the result, sorted and
        # reference-exact.
        reference = description_length(
            result.inverted_db, result.standard_table, result.core_table
        )
        assert result.final_dl == reference

    @pytest.mark.parametrize("seed", range(4))
    def test_incremental_total_matches_recompute(self, seed):
        from repro import CSPM

        result = CSPM().fit(random_graph(seed, num_vertices=30, num_edges=70))
        recomputed = description_length(
            result.inverted_db, result.standard_table, result.core_table
        )
        assert result.final_dl_bits == pytest.approx(
            recomputed.total_bits, abs=1e-6
        )
        # Component-wise incremental sums track the recompute too.
        trace = result.trace
        initial = result.initial_dl
        assert initial.model_core_bits == pytest.approx(
            recomputed.model_core_bits, abs=1e-9
        )
        assert initial.model_leaf_bits - trace.model_gain_bits == pytest.approx(
            recomputed.model_leaf_bits, abs=1e-6
        )
        assert initial.data_leaf_bits - trace.data_leaf_gain_bits == pytest.approx(
            recomputed.data_leaf_bits, abs=1e-6
        )
        assert initial.data_core_bits - trace.data_core_gain_bits == pytest.approx(
            recomputed.data_core_bits, abs=1e-6
        )

    def test_deserialised_result_carries_final_dl_explicitly(self, paper_graph):
        from repro import CSPM, CSPMResult

        mined = CSPM().fit(paper_graph)
        restored = CSPMResult.from_json(mined.to_json())
        assert restored.inverted_db is None
        assert restored.final_dl == mined.final_dl
