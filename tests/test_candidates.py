"""Tests for candidate pair enumeration and the gain priority queue."""

from repro.core.candidates import (
    CandidateQueue,
    LeafsetInterner,
    enumerate_pairs,
    leafset_sort_key,
)


def fs(*values):
    return frozenset(values)


def abc_interner():
    """An interner holding {a}, {b}, {c} with ids 0, 1, 2."""
    interner = LeafsetInterner()
    interner.intern_all([fs("a"), fs("b"), fs("c")])
    return interner


class TestLeafsetInterner:
    def test_ids_are_stable_first_sight(self):
        interner = LeafsetInterner()
        assert interner.intern(fs("b")) == 0
        assert interner.intern(fs("a")) == 1
        assert interner.intern(fs("b")) == 0  # unchanged on re-intern
        assert interner.leafset_of(1) == fs("a")
        assert len(interner) == 2 and fs("a") in interner

    def test_canonical_pair_follows_ids_not_repr(self):
        interner = LeafsetInterner()
        interner.intern_all([fs("z"), fs("a")])
        # z was seen first, so it sorts first regardless of repr order.
        assert interner.canonical_pair(fs("a"), fs("z")) == (fs("z"), fs("a"))
        assert interner.pair_key((fs("z"), fs("a"))) == (0, 1)

    def test_order_sorts_by_id(self):
        interner = LeafsetInterner()
        interner.intern_all([fs("c"), fs("a"), fs("b")])
        assert interner.order([fs("b"), fs("a"), fs("c")]) == [
            fs("c"),
            fs("a"),
            fs("b"),
        ]

    def test_copy_is_independent(self):
        interner = LeafsetInterner()
        interner.intern(fs("a"))
        clone = interner.copy()
        clone.intern(fs("b"))
        assert fs("b") in clone and fs("b") not in interner

    def test_scoped_ordering_no_module_state(self):
        # Two registries assign ids independently: ordering state is
        # per-database, not leaked through a module-level cache.
        first = LeafsetInterner()
        second = LeafsetInterner()
        first.intern_all([fs("a"), fs("b")])
        second.intern_all([fs("b"), fs("a")])
        assert first.intern(fs("a")) == 0
        assert second.intern(fs("a")) == 1


class TestOrdering:
    def test_leafset_sort_key_deterministic(self):
        assert leafset_sort_key(fs("b", "a")) == ("'a'", "'b'")

    def test_enumerate_pairs_count_and_order(self):
        interner = abc_interner()
        pairs = list(enumerate_pairs([fs("c"), fs("a"), fs("b")], interner))
        assert pairs == [
            (fs("a"), fs("b")),
            (fs("a"), fs("c")),
            (fs("b"), fs("c")),
        ]
        assert all(pair == interner.canonical_pair(*pair) for pair in pairs)

    def test_enumerate_pairs_follows_ids_not_repr(self):
        interner = LeafsetInterner()
        interner.intern_all([fs("z"), fs("a")])
        pairs = list(enumerate_pairs([fs("a"), fs("z")], interner))
        assert pairs == [(fs("z"), fs("a"))]


class TestCandidateQueue:
    def test_pop_returns_best_gain(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        queue.set(interner.canonical_pair(fs("a"), fs("b")), 1.0)
        queue.set(interner.canonical_pair(fs("a"), fs("c")), 3.0)
        queue.set(interner.canonical_pair(fs("b"), fs("c")), 2.0)
        pair, gain = queue.pop()
        assert gain == 3.0
        assert pair == interner.canonical_pair(fs("a"), fs("c"))
        assert len(queue) == 2

    def test_update_replaces_gain(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        pair = interner.canonical_pair(fs("a"), fs("b"))
        queue.set(pair, 1.0)
        queue.set(pair, 5.0)
        assert queue.gain_of(pair) == 5.0
        popped_pair, gain = queue.pop()
        assert popped_pair == pair and gain == 5.0
        assert queue.pop() is None

    def test_discard_removes_lazily(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        best = interner.canonical_pair(fs("a"), fs("b"))
        other = interner.canonical_pair(fs("a"), fs("c"))
        queue.set(best, 9.0)
        queue.set(other, 1.0)
        queue.discard(best)
        assert best not in queue
        pair, gain = queue.pop()
        assert pair == other and gain == 1.0

    def test_peek_does_not_remove(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        pair = interner.canonical_pair(fs("a"), fs("b"))
        queue.set(pair, 2.0)
        assert queue.peek() == (pair, 2.0)
        assert len(queue) == 1

    def test_tie_break_is_deterministic(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        first = interner.canonical_pair(fs("a"), fs("b"))
        second = interner.canonical_pair(fs("a"), fs("c"))
        queue.set(second, 1.0)
        queue.set(first, 1.0)
        pair, _gain = queue.pop()
        assert pair == first  # (0, 1) beats (0, 2) on equal gain

    def test_empty_queue(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        assert queue.pop() is None
        assert queue.pop_entry() is None
        assert queue.peek() is None
        assert len(queue) == 0

    def test_payload_travels_with_entry(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        pair = interner.canonical_pair(fs("a"), fs("b"))
        queue.set(pair, 2.0, payload=("breakdown", 7))
        assert queue.payload_of(pair) == ("breakdown", 7)
        popped_pair, gain, payload = queue.pop_entry()
        assert popped_pair == pair and gain == 2.0
        assert payload == ("breakdown", 7)
        assert queue.payload_of(pair) is None

    def test_payload_replaced_on_update(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        pair = interner.canonical_pair(fs("a"), fs("b"))
        queue.set(pair, 2.0, payload="old")
        queue.set(pair, 3.0, payload="new")
        assert queue.payload_of(pair) == "new"
        assert queue.pop_entry() == (pair, 3.0, "new")

    def test_payload_defaults_to_none(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        pair = interner.canonical_pair(fs("a"), fs("b"))
        queue.set(pair, 1.0)
        assert queue.payload_of(pair) is None
        assert queue.pop_entry() == (pair, 1.0, None)

    def test_interner_tiebreak_follows_ids(self):
        interner = LeafsetInterner()
        interner.intern_all([fs("z"), fs("a"), fs("m")])
        queue = CandidateQueue(interner)
        first = interner.canonical_pair(fs("z"), fs("m"))
        second = interner.canonical_pair(fs("a"), fs("m"))
        queue.set(second, 1.0)
        queue.set(first, 1.0)
        pair, _gain = queue.pop()
        assert pair == first  # (0, 2) beats (1, 2) on equal gain

    def test_peak_size_tracks_high_water_mark(self):
        interner = abc_interner()
        queue = CandidateQueue(interner)
        queue.set(interner.canonical_pair(fs("a"), fs("b")), 1.0)
        queue.set(interner.canonical_pair(fs("a"), fs("c")), 2.0)
        queue.pop()
        queue.pop()
        queue.set(interner.canonical_pair(fs("b"), fs("c")), 3.0)
        assert len(queue) == 1
        assert queue.peak_size == 2
