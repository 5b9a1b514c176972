"""Overlap-driven candidate generation: equivalence and maintenance.

The headline guarantee: CSPM-Partial, seeded by the sparse-aware
generator (:func:`repro.core.pairgen.overlap_pairs`), is *bit-exact*
with CSPM-Basic's quadratic full scan, the naive oracle
(``tests/oracles.py``) — identical merge sequences, DL floats and
final databases — on many randomized graphs.  Alongside: unit tests of
the incremental adjacency/id-list maintenance in
:class:`InvertedDatabase.merge` (row-vanishing and partial-survivor
cases) and of the generator's ordering contract.
"""

import pytest
from oracles import naive_search, outcome

from repro.core.candidates import enumerate_pairs, pack, unpack
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_partial import run_partial
from repro.core.gain import pair_gain
from repro.core.inverted_db import InvertedDatabase
from repro.core.pairgen import overlap_pairs
from repro.datasets.synthetic import community_attributed_graph
from repro.graphs.builders import star_graph
from repro.graphs.generators import PlantedAStar, planted_astar_graph


def fs(*values):
    return frozenset(values)


def setup(graph):
    return (
        InvertedDatabase.from_graph(graph),
        StandardCodeTable.from_graph(graph),
        CoreCodeTable.singletons_from_graph(graph),
    )


def packed(db, pairs):
    """The packed keys of leafset ``pairs`` under ``db``'s interner."""
    ids = db.interner.ids
    return [pack(ids[leaf_x], ids[leaf_y]) for leaf_x, leaf_y in pairs]


def leaf_pair(db, key):
    """The leafsets of a packed key, in id order."""
    return tuple(map(db.interner.leafset_of, unpack(key)))


def adjacency(db):
    """coreset -> leafsets, derived from each leafset's coresets."""
    leaves_of = {}
    for leaf in db.leafsets():
        for core in db.coresets_of(leaf):
            leaves_of.setdefault(core, set()).add(leaf)
    return leaves_of


def planted_graph(seed, noise_rate=0.2):
    graph, _ = planted_astar_graph(
        40,
        90,
        [
            PlantedAStar("p", ("q", "r"), strength=0.9),
            PlantedAStar("s", ("t", "u"), strength=0.8),
        ],
        noise_values=("n1", "n2", "n3"),
        noise_rate=noise_rate,
        seed=seed,
    )
    return graph


def community_graph(seed, communities=6, pool=5):
    pools = [[f"c{c}v{i}" for i in range(pool)] for c in range(communities)]
    return community_attributed_graph(
        [12] * communities,
        pools,
        values_per_vertex=(2, 3),
        intra_degree=2.5,
        inter_degree=0.2,
        seed=seed,
    )


class TestGeneratorContract:
    def test_sorted_by_interned_ids(self, paper_db):
        keys = overlap_pairs(paper_db)
        assert keys and keys == sorted(keys)
        id_pairs = [unpack(key) for key in keys]
        assert id_pairs == sorted(id_pairs)
        assert all(id_x < id_y for id_x, id_y in id_pairs)

    def test_subset_of_full_scan(self):
        db, _, _ = setup(community_graph(0))
        full = set(packed(db, enumerate_pairs(db.leafsets(), interner=db.interner)))
        overlap = set(overlap_pairs(db))
        assert overlap <= full

    @pytest.mark.parametrize("seed", range(4))
    def test_omitted_pairs_have_zero_gain(self, seed):
        graph = community_graph(seed)
        db, standard, core = setup(graph)
        overlap = set(overlap_pairs(db))
        pairs = list(enumerate_pairs(db.leafsets(), interner=db.interner))
        for pair, key in zip(pairs, packed(db, pairs)):
            if key not in overlap:
                gain = pair_gain(db, *pair, standard, core)
                assert gain.data_leaf_gain == 0.0
                assert gain.data_core_gain == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_union_mask_brute_force(self, seed):
        # Both enumeration strategies must equal the exact overlap
        # predicate: union masks intersect.  community_graph picks the
        # adjacency walk, planted_graph (small value universe) the mask
        # sweep; the predicate is strategy-independent.
        for graph in (community_graph(seed), planted_graph(seed)):
            db, _, _ = setup(graph)
            expected = [
                pair
                for pair in enumerate_pairs(db.leafsets(), interner=db.interner)
                if db.leaf_union_mask(pair[0]) & db.leaf_union_mask(pair[1])
            ]
            assert overlap_pairs(db) == packed(db, expected)

    def test_still_exact_after_merges(self):
        db, standard, core = setup(community_graph(1))
        run_partial(db.copy(), standard, core)  # sanity: converges
        for _ in range(5):
            pairs = [leaf_pair(db, key) for key in overlap_pairs(db)]
            best = None
            for pair in pairs:
                gain = pair_gain(db, *pair, standard, core).net(True)
                if gain > 1e-9 and (best is None or gain > best[1]):
                    best = (pair, gain)
            if best is None:
                break
            db.merge(*best[0])
            expected = [
                pair
                for pair in enumerate_pairs(db.leafsets(), interner=db.interner)
                if db.leaf_union_mask(pair[0]) & db.leaf_union_mask(pair[1])
            ]
            assert overlap_pairs(db) == packed(db, expected)

    def test_disjoint_leafsets_yield_nothing(self):
        # {x} lives only at the core vertex, {c} only at the leaves:
        # no shared coreset, disjoint unions, no candidates.
        db, _, _ = setup(star_graph(["c"], [["x"], ["x"]]))
        assert len(db.leafsets()) == 2
        assert overlap_pairs(db) == []


class TestSearchEquivalence:
    """Overlap-driven search is bit-exact with the full scan."""

    @pytest.mark.parametrize("seed", range(10))
    def test_partial_same_merges_and_dl(self, seed):
        graph = community_graph(seed) if seed % 2 else planted_graph(seed)
        db_full, standard, core = setup(graph)
        trace_full = naive_search(db_full, standard, core)
        db_overlap, _, _ = setup(graph)
        trace_overlap = run_partial(db_overlap, standard, core)
        assert outcome(trace_overlap, db_overlap) == outcome(trace_full, db_full)

    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_partial_related_scope_seeds_like_the_full_scan(self, seed):
        # The related scope follows its own merge path (it may miss
        # late candidates), but its overlap-seeded queue must surface
        # the full scan's first merge, with the very same gain and DL.
        graph = community_graph(seed)
        db_full, standard, core = setup(graph)
        trace_full = naive_search(db_full, standard, core)
        db_overlap, _, _ = setup(graph)
        trace_overlap = run_partial(
            db_overlap, standard, core, update_scope="related"
        )
        first = outcome(trace_overlap, db_overlap)["merges"][0]
        assert first == outcome(trace_full, db_full)["merges"][0]

    def test_sparse_seeding_is_cheaper(self):
        db, standard, core = setup(community_graph(2, communities=10))
        trace_full = naive_search(db.copy(), standard, core)
        trace_overlap = run_partial(db.copy(), standard, core)
        assert (
            trace_overlap.initial_candidate_gains
            < trace_full.initial_candidate_gains / 2
        )


class TestIncrementalAdjacency:
    """merge() keeps the coreset id-lists and interner in sync."""

    def test_initial_index_matches_adjacency(self, paper_db):
        paper_db.validate()
        index = paper_db.coreset_leaf_ids()
        leaves_of = adjacency(paper_db)
        assert set(index) == set(leaves_of)
        for core, leaves in leaves_of.items():
            assert index[core] == sorted(
                paper_db.interner.intern(leaf) for leaf in leaves
            )

    def test_partial_survivor_keeps_ids(self, paper_db):
        # Fig. 4: merging {b} and {c} leaves survivors under some
        # coresets; the merged leafset id must appear exactly where the
        # new row exists and survivors stay listed where rows remain.
        outcome = paper_db.merge(fs("b"), fs("c"))
        paper_db.validate()
        new_id = paper_db.interner.intern(outcome.new_leafset)
        for core, leaves in adjacency(paper_db).items():
            ids = paper_db.coreset_leaf_ids()[core]
            assert (new_id in ids) == (outcome.new_leafset in leaves)

    def test_row_vanishing_removes_ids(self):
        # Total merge: every x-row and y-row disappears, so both ids
        # must vanish from every coreset list.
        graph = star_graph(["c"], [["x", "y"], ["x", "y"]])
        db, _, _ = setup(graph)
        outcome = db.merge(fs("x"), fs("y"))
        assert outcome.removed_leafsets == {fs("x"), fs("y")}
        db.validate()
        id_x = db.interner.intern(fs("x"))
        id_y = db.interner.intern(fs("y"))
        for ids in db.coreset_leaf_ids().values():
            assert id_x not in ids
            assert id_y not in ids
        assert not db.has_leafset(fs("x"))

    def test_coreset_disappears_with_last_row(self):
        # One coreset whose only two rows merge totally: the coreset
        # keeps exactly the merged row's id.
        graph = star_graph(["c"], [["x"], ["y"]])
        db, _, _ = setup(graph)
        # x and y co-occur at the core vertex, so that pair (and only
        # that pair) is generated.
        assert overlap_pairs(db) == packed(db, [(fs("x"), fs("y"))])
        db.merge(fs("x"), fs("y"))
        db.validate()
        index = db.coreset_leaf_ids()
        assert index[fs("c")] == [db.interner.intern(fs("x", "y"))]
        assert index[fs("x")] == [db.interner.intern(fs("c"))]
        assert fs("x") not in db.leafsets()

    @pytest.mark.parametrize("seed", range(5))
    def test_validate_after_random_merge_storm(self, seed):
        graph = community_graph(seed, communities=4)
        db, standard, core = setup(graph)
        run_partial(db, standard, core)
        db.validate(graph)

    def test_copy_isolates_index_and_interner(self, paper_db):
        clone = paper_db.copy()
        clone.merge(fs("b"), fs("c"))
        clone.validate()
        paper_db.validate()
        assert fs("b", "c") not in paper_db.interner
        assert all(
            fs("b", "c") not in leaves
            for leaves in adjacency(paper_db).values()
        )
