"""Tests of the two search procedures and their equivalence.

The headline invariants:

* both variants converge to a state where no pair has positive gain;
* CSPM-Basic is the paper's loop (every pair scored every iteration),
  and CSPM-Partial (lazy scope) reproduces it exactly;
* every accepted merge strictly decreases the tracked DL, and the
  incremental DL equals a from-scratch recomputation at termination.
"""

import pytest
from oracles import naive_search, outcome, pair_gain

from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_basic import run_basic
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.core.mdl import description_length
from repro.errors import MiningError
from repro.graphs.generators import PlantedAStar, planted_astar_graph


def setup(graph):
    return (
        InvertedDatabase.from_graph(graph),
        StandardCodeTable.from_graph(graph),
        CoreCodeTable.singletons_from_graph(graph),
    )


def random_graph(seed):
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


class TestBasic:
    def test_paper_graph_final_dl(self, paper_graph):
        db, standard, core = setup(paper_graph)
        trace = run_basic(db, standard, core)
        assert trace.num_iterations == 2
        assert trace.final_dl_bits == pytest.approx(55.201097653, abs=1e-6)

    def test_dl_strictly_decreases(self, paper_graph):
        db, standard, core = setup(paper_graph)
        trace = run_basic(db, standard, core)
        dls = [trace.initial_dl_bits] + [t.total_dl_bits for t in trace.iterations]
        assert all(later < earlier for earlier, later in zip(dls, dls[1:]))

    def test_tracked_dl_matches_reference(self, paper_graph):
        db, standard, core = setup(paper_graph)
        trace = run_basic(db, standard, core)
        reference = description_length(db, standard, core).total_bits
        assert trace.final_dl_bits == pytest.approx(reference, abs=1e-6)

    def test_no_positive_pair_remains(self, paper_graph):
        db, standard, core = setup(paper_graph)
        run_basic(db, standard, core)
        leafsets = db.leafsets()
        for i, leaf_x in enumerate(leafsets):
            for leaf_y in leafsets[i + 1 :]:
                gain = pair_gain(db, leaf_x, leaf_y, standard, core)
                assert gain.net(True) <= 1e-9

    def test_max_iterations_caps_merges(self, paper_graph):
        db, standard, core = setup(paper_graph)
        trace = run_basic(db, standard, core, max_iterations=1)
        assert trace.num_iterations == 1

    def test_initial_dl_bits_is_taken_as_given(self, paper_graph):
        db, standard, core = setup(paper_graph)
        fresh = run_basic(db, standard, core)
        db_given, _, _ = setup(paper_graph)
        reused = run_basic(
            db_given, standard, core, initial_dl_bits=fresh.initial_dl_bits
        )
        assert outcome(reused, db_given) == outcome(fresh, db)
        db_shifted, _, _ = setup(paper_graph)
        shifted = run_basic(db_shifted, standard, core, initial_dl_bits=100.0)
        assert shifted.initial_dl_bits == 100.0
        assert outcome(shifted, db_shifted)["snapshot"] == db.snapshot()

    def test_one_gain_threshold(self):
        # Every search accepts a merge against the same GAIN_EPS.
        from repro.core import cspm_basic, cspm_partial, gain

        assert cspm_basic.GAIN_EPS is gain.GAIN_EPS
        assert cspm_partial.GAIN_EPS is gain.GAIN_EPS


class TestPartial:
    @pytest.mark.parametrize("seed", range(5))
    def test_model_preserving_searches_match_oracle(self, seed):
        graph = random_graph(seed)
        db_o, standard, core = setup(graph)
        expected = outcome(naive_search(db_o, standard, core), db_o)
        db, _, _ = setup(graph)
        assert outcome(run_partial(db, standard, core), db) == expected

    def test_related_scope_never_beats_basic(self):
        graph = random_graph(7)
        db_b, standard, core = setup(graph)
        trace_b = run_basic(db_b, standard, core)
        db_r, _, _ = setup(graph)
        trace_r = run_partial(db_r, standard, core, update_scope="related")
        assert trace_r.final_dl_bits >= trace_b.final_dl_bits - 1e-6

    def test_partial_dl_matches_reference(self):
        graph = random_graph(3)
        db, standard, core = setup(graph)
        trace = run_partial(db, standard, core)
        reference = description_length(db, standard, core).total_bits
        assert trace.final_dl_bits == pytest.approx(reference, abs=1e-6)

    def test_invalid_scope_rejected(self, paper_graph):
        db, standard, core = setup(paper_graph)
        with pytest.raises(MiningError):
            run_partial(db, standard, core, update_scope="bogus")

    def test_database_valid_after_search(self):
        graph = random_graph(11)
        db, standard, core = setup(graph)
        run_partial(db, standard, core)
        db.validate(graph)

    def test_without_model_cost_compresses_at_least_as_much_data(
        self, paper_graph
    ):
        db_with, standard, core = setup(paper_graph)
        run_partial(db_with, standard, core, include_model_cost=True)
        db_without, _, _ = setup(paper_graph)
        run_partial(db_without, standard, core, include_model_cost=False)
        with_bits = description_length(db_with, standard, core).data_leaf_bits
        without_bits = description_length(db_without, standard, core).data_leaf_bits
        assert without_bits <= with_bits + 1e-9


class TestInstrumentation:
    def test_partial_updates_fewer_gains_than_basic(self):
        graph = random_graph(5)
        db_b, standard, core = setup(graph)
        trace_b = run_basic(db_b, standard, core)
        db_p, _, _ = setup(graph)
        trace_p = run_partial(db_p, standard, core)
        assert trace_p.total_gain_computations < trace_b.total_gain_computations

    def test_update_ratios_within_unit_interval(self):
        graph = random_graph(6)
        db, standard, core = setup(graph)
        trace = run_partial(db, standard, core)
        ratios = trace.update_ratios()
        assert ratios
        assert all(0.0 <= ratio <= 1.0 for ratio in ratios)

    @pytest.mark.parametrize("which", ["paper", "random"])
    def test_basic_full_scan_ratio_is_one(self, which, paper_graph):
        # Basic is the paper's loop and the oracle: it scores every
        # pair of the current database on every iteration, so Fig. 5's
        # Basic curve is exactly 1.0.  An "optimisation" that skips
        # pairs would change the oracle; this pins it.
        graph = paper_graph if which == "paper" else random_graph(9)
        db, standard, core = setup(graph)
        n = db.num_leafsets
        trace = run_basic(db, standard, core)
        assert trace.iterations
        assert trace.initial_candidate_gains == n * (n - 1) // 2
        for step in trace.iterations:
            assert step.gains_computed == step.possible_pairs
            assert step.update_ratio == 1.0

    def test_partial_records_peak_queue_size(self):
        graph = random_graph(4)
        db, standard, core = setup(graph)
        trace = run_partial(db, standard, core)
        assert trace.peak_queue_size >= 1
        basic_trace = run_basic(*setup(graph))
        assert basic_trace.peak_queue_size == 0  # no queue in basic

    def test_compression_ratio_below_one(self):
        graph = random_graph(8)
        db, standard, core = setup(graph)
        trace = run_partial(db, standard, core)
        assert 0.0 < trace.compression_ratio < 1.0
