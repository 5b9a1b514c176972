"""Tests of the two search procedures and their equivalence.

The headline invariants:

* both variants converge to a state where no pair has positive gain;
* CSPM-Basic and CSPM-Partial (lazy scope) reproduce the naive
  Algorithm 1-2 oracle (``tests/oracles.py``) exactly;
* every accepted merge strictly decreases the tracked DL, and the
  incremental DL equals a from-scratch recomputation at termination.
"""

import pytest
from oracles import naive_search, outcome

from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_basic import run_basic
from repro.core.cspm_partial import run_partial
from repro.core.gain import pair_gain
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


class TestPartial:
    @pytest.mark.parametrize(
        "search", [run_partial, run_basic], ids=["lazy", "basic"]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_model_preserving_searches_match_oracle(self, seed, search):
        graph = random_graph(seed)
        db_o, standard, core = setup(graph)
        expected = outcome(naive_search(db_o, standard, core), db_o)
        db, _, _ = setup(graph)
        assert outcome(search(db, standard, core), db) == expected

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

    def test_basic_full_scan_ratio_is_one(self, paper_graph):
        # The reference configuration: the naive oracle's quadratic
        # re-scan-everything loop touches every pair.
        db, standard, core = setup(paper_graph)
        trace = naive_search(db, standard, core)
        assert all(t.update_ratio == 1.0 for t in trace.iterations)

    def test_basic_restricted_rescan_never_exceeds_full(self, paper_graph):
        # The touched-neighbourhood rescan computes at most as many
        # gains per iteration as the full re-enumeration.
        trace = run_basic(*setup(paper_graph))
        full = naive_search(*setup(paper_graph))
        for restricted_it, full_it in zip(trace.iterations, full.iterations):
            assert restricted_it.gains_computed <= full_it.gains_computed

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_basic_restricted_rescan_bit_exact(self, seed):
        # Satellite regression: the touched-neighbourhood rescan must
        # reproduce the full re-enumeration bit-for-bit — identical
        # merge sequence, DL floats and final database — with only the
        # per-iteration gain-computation counters allowed to differ.
        graph = random_graph(seed)
        db, standard, core = setup(graph)
        restricted = run_basic(db, standard, core)
        db_full, _, _ = setup(graph)
        full = naive_search(db_full, standard, core)
        assert outcome(restricted, db) == outcome(full, db_full)
        assert restricted.initial_dl_bits == full.initial_dl_bits
        assert restricted.initial_candidate_gains <= full.initial_candidate_gains
        assert len(restricted.iterations) == len(full.iterations)
        for left, right in zip(restricted.iterations, full.iterations):
            assert left.gains_computed <= right.gains_computed

    def test_basic_overlap_scan_never_exceeds_full(self, paper_graph):
        # Overlap-driven generation touches at most all possible pairs.
        db, standard, core = setup(paper_graph)
        trace = run_basic(db, standard, core)
        assert all(t.gains_computed <= t.possible_pairs for t in trace.iterations)
        assert all(0.0 < t.update_ratio <= 1.0 for t in trace.iterations)

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
