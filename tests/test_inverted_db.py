"""Unit tests for the inverted database, including the Fig. 2 golden
values and the Fig. 4 worked merge."""

import pytest
from oracles import merge_stats

from repro.core.inverted_db import InvertedDatabase
from repro.errors import MiningError
from repro.graphs.attributed_graph import AttributedGraph


def fs(*values):
    return frozenset(values)


class TestConstruction:
    def test_paper_rows_match_fig2(self, paper_db):
        # Fig. 2(b): the record (SL={a}, Sc={c}) appears at {v2, v3}.
        assert paper_db.positions(fs("c"), fs("a")) == fs(1 * 2, 3)
        # Spot-check the remaining rows of the running example.
        assert paper_db.positions(fs("a"), fs("b")) == fs(1, 5)
        assert paper_db.positions(fs("a"), fs("c")) == fs(1, 5)
        assert paper_db.positions(fs("b"), fs("b")) == fs(4, 5)
        assert paper_db.num_rows == 8

    def test_initial_rows_are_single_leaf_values(self, paper_db):
        assert all(len(leaf) == 1 for _c, leaf, _p in paper_db.rows())

    def test_coreset_frequency_is_row_sum(self, paper_db):
        for core in paper_db.coresets():
            total = sum(
                paper_db.row_frequency(core, leaf)
                for leaf in paper_db.leafsets()
            )
            assert total == paper_db.coreset_frequency(core)

    def test_total_frequency(self, paper_db):
        assert paper_db.total_frequency() == 13

    def test_validates_against_graph(self, paper_db, paper_graph):
        paper_db.validate(paper_graph)

    def test_empty_coreset_rejected(self, paper_graph):
        with pytest.raises(MiningError):
            InvertedDatabase.from_graph(
                paper_graph, coreset_positions={frozenset(): [1]}
            )

    def test_isolated_vertices_produce_no_rows(self):
        graph = AttributedGraph.from_edges([(1, 2)], {1: {"a"}, 2: {"b"}, 3: {"c"}})
        db = InvertedDatabase.from_graph(graph)
        assert db.positions(fs("c"), fs("a")) == frozenset()
        assert {core for core, _l, _p in db.rows()} == {fs("a"), fs("b")}


class TestIndexes:
    def test_common_coresets(self, paper_db):
        common = set(paper_db.common_coresets(fs("b"), fs("c")))
        assert common == {fs("a"), fs("b")}

    def test_leafsets_of_coreset(self, paper_db):
        assert paper_db.leafsets_of(fs("c")) == fs(fs("a"), fs("b"))

    def test_related_leafsets(self, paper_db):
        related = paper_db.related_leafsets(fs("a"))
        assert related == fs(fs("b"), fs("c"))

    def test_leaf_union_mask_matches_rows(self, paper_db):
        for leaf in paper_db.leafsets():
            union = 0
            for core in paper_db.coresets_of(leaf):
                vertices = paper_db.positions(core, leaf)
                for vertex in vertices:
                    union |= 1 << paper_db._vertex_bit[vertex]
            assert union == paper_db.leaf_union_mask(leaf)


class TestMerge:
    def test_fig4_merge_of_b_and_c(self, paper_db, paper_graph):
        """The paper's worked example: merging leafsets {b} and {c}."""
        outcome = paper_db.merge(fs("b"), fs("c"))
        # Coreset {a}: totally merged at positions {v1, v5}.
        assert paper_db.positions(fs("a"), fs("b", "c")) == fs(1, 5)
        assert paper_db.row_frequency(fs("a"), fs("b")) == 0
        assert paper_db.row_frequency(fs("a"), fs("c")) == 0
        # Coreset {b}: one line totally merged; ({b},{b}) keeps {v4}.
        assert paper_db.positions(fs("b"), fs("b", "c")) == fs(5)
        assert paper_db.positions(fs("b"), fs("b")) == fs(4)
        assert paper_db.row_frequency(fs("b"), fs("c")) == 0
        # Leafset {c} is gone entirely.
        assert outcome.removed_leafsets == {fs("c")}
        assert outcome.partly_merged_leafsets == {fs("b")}
        paper_db.validate(paper_graph)

    def test_merge_stats_cases(self, paper_db):
        stats = {s.coreset: s for s in merge_stats(paper_db, fs("b"), fs("c"))}
        assert stats[fs("a")].case == "total"
        assert stats[fs("b")].case == "one-total"

    def test_merge_updates_coreset_frequencies(self, paper_db):
        before_a = paper_db.coreset_frequency(fs("a"))
        before_b = paper_db.coreset_frequency(fs("b"))
        paper_db.merge(fs("b"), fs("c"))
        assert paper_db.coreset_frequency(fs("a")) == before_a - 2
        assert paper_db.coreset_frequency(fs("b")) == before_b - 1

    def test_merge_with_self_rejected(self, paper_db):
        with pytest.raises(MiningError):
            paper_db.merge(fs("b"), fs("b"))

    def test_merge_unknown_leafset_rejected(self, paper_db):
        with pytest.raises(MiningError):
            paper_db.merge(fs("b"), fs("zzz"))

    def test_disjoint_leafsets_merge_is_noop(self):
        # x and y live under the same coreset {a} but at different
        # core positions, so xye == 0 and the merge must change nothing.
        graph = AttributedGraph.from_edges(
            [(1, 2), (3, 4)],
            {1: {"a"}, 2: {"x"}, 3: {"a"}, 4: {"y"}},
        )
        db = InvertedDatabase.from_graph(graph)
        snapshot = db.snapshot()
        stats = merge_stats(db, fs("x"), fs("y"))
        assert [stat.coreset for stat in stats] == [fs("a")]
        assert stats[0].xye == 0
        outcome = db.merge(fs("x"), fs("y"))
        assert outcome.touched_coresets == []
        assert db.snapshot() == snapshot

    def test_copy_isolated_from_merges(self, paper_db):
        clone = paper_db.copy()
        paper_db.merge(fs("b"), fs("c"))
        assert clone.num_rows == 8
        clone.validate()


def _bump_row_frequency(db):
    mask, frequency = db._leaf_rows[fs("a")][fs("c")]
    db._leaf_rows[fs("a")][fs("c")] = (mask, frequency + 1)


def _empty_row_mask(db):
    db._leaf_rows[fs("a")][fs("c")] = (db.mask_backend.empty(), 2)


def _empty_row_map(db):
    db._leaf_rows[fs("zzz")] = {}


def _drop_id(db):
    db._core_leaf_ids[fs("a")].pop()


def _extra_id(db):
    db._core_leaf_ids[fs("c")].append(db.interner.intern(fs("c")))


def _unsorted_ids(db):
    db._core_leaf_ids[fs("a")].reverse()


def _forget_interned(db):
    del db._interner._ids[fs("b")]


def _orphan_union(db):
    db._leaf_union[fs("zzz")] = db.leaf_union_mask(fs("a"))


class TestValidation:
    def test_validate_detects_frequency_corruption(self, paper_db):
        core = next(iter(paper_db.coresets()))
        paper_db._core_freq[core] += 1
        with pytest.raises(MiningError):
            paper_db.validate()

    def test_validate_detects_stale_union(self, paper_db):
        leaf = next(iter(paper_db.leafsets()))
        paper_db._leaf_union[leaf] ^= 1
        with pytest.raises(MiningError):
            paper_db.validate()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (_bump_row_frequency, "stale row frequency"),
            (_empty_row_mask, "empty row"),
            (_empty_row_map, "has no rows"),
            (_drop_id, "stale sorted id list"),
            (_extra_id, "stale sorted id list"),
            (_unsorted_ids, "stale sorted id list"),
            (_forget_interned, "missing from interner"),
            (_orphan_union, "union mask kept for leafset"),
        ],
        ids=lambda value: getattr(value, "__name__", "")[1:] or None,
    )
    def test_validate_catches_each_corruption(self, paper_db, corrupt, message):
        """One corruption per remaining check, each caught by its message."""
        paper_db.validate()
        corrupt(paper_db)
        with pytest.raises(MiningError, match=message):
            paper_db.validate()
