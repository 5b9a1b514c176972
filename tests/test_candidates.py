"""Tests for candidate pair enumeration, packed pair keys and the gain
priority queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    CandidateQueue,
    LeafsetInterner,
    enumerate_pairs,
    leafset_sort_key,
    pack,
    unpack,
)

#: Every id a packed key can hold.
IDS = st.integers(min_value=0, max_value=2**32 - 1)


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

    def test_pack_follows_ids_not_repr(self):
        interner = LeafsetInterner()
        interner.intern_all([fs("z"), fs("a")])
        # z was seen first, so it packs first regardless of repr order.
        ids = interner.ids
        key = pack(ids[fs("a")], ids[fs("z")])
        assert key == pack(ids[fs("z")], ids[fs("a")]) == 1
        assert unpack(key) == (0, 1)

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
        ids = interner.ids
        assert all(ids[leaf_x] < ids[leaf_y] for leaf_x, leaf_y in pairs)

    def test_enumerate_pairs_follows_ids_not_repr(self):
        interner = LeafsetInterner()
        interner.intern_all([fs("z"), fs("a")])
        pairs = list(enumerate_pairs([fs("a"), fs("z")], interner))
        assert pairs == [(fs("z"), fs("a"))]


class TestPackedKeys:
    @given(IDS, IDS)
    def test_unpack_inverts_pack(self, id_a, id_b):
        key = pack(id_a, id_b)
        assert key == pack(id_b, id_a)
        assert unpack(key) == (min(id_a, id_b), max(id_a, id_b))

    @given(st.tuples(IDS, IDS), st.tuples(IDS, IDS))
    def test_packed_order_is_tuple_order(self, first, second):
        first, second = tuple(sorted(first)), tuple(sorted(second))
        assert (pack(*first) < pack(*second)) == (first < second)
        assert (pack(*first) == pack(*second)) == (first == second)


#: Packed keys of the pairs of ids 0, 1, 2.
AB, AC, BC = pack(0, 1), pack(0, 2), pack(1, 2)


class TestCandidateQueue:
    def test_pop_returns_best_gain(self):
        queue = CandidateQueue()
        queue.set(AB, 1.0)
        queue.set(AC, 3.0)
        queue.set(BC, 2.0)
        assert queue.pop_entry() == (AC, 3.0, None)
        assert len(queue) == 2

    def test_update_replaces_gain(self):
        queue = CandidateQueue()
        queue.set(AB, 1.0)
        queue.set(AB, 5.0)
        assert len(queue) == 1
        assert queue.peek() == (AB, 5.0)
        assert queue.pop_entry() == (AB, 5.0, None)
        assert queue.pop_entry() is None

    def test_discard_removes_lazily(self):
        queue = CandidateQueue()
        queue.set(AB, 9.0)
        queue.set(AC, 1.0)
        queue.discard(AB)
        queue.discard(BC)  # absent: a no-op
        assert AB not in queue and AC in queue
        assert queue.pop_entry() == (AC, 1.0, None)

    def test_peek_does_not_remove(self):
        queue = CandidateQueue()
        queue.set(AB, 2.0)
        assert queue.peek() == (AB, 2.0)
        assert len(queue) == 1 and AB in queue

    def test_tie_break_is_deterministic(self):
        queue = CandidateQueue()
        queue.set(AC, 1.0)
        queue.set(AB, 1.0)
        key, _gain, _payload = queue.pop_entry()
        assert key == AB  # (0, 1) beats (0, 2) on equal gain

    def test_interner_tiebreak_follows_ids(self):
        queue = CandidateQueue()
        queue.set(pack(1, 2), 1.0)
        queue.set(pack(0, 2), 1.0)
        queue.set(pack(0, 3), 1.0)
        popped = [queue.pop_entry()[0] for _ in range(3)]
        assert popped == [pack(0, 2), pack(0, 3), pack(1, 2)]

    def test_empty_queue(self):
        queue = CandidateQueue()
        assert queue.pop_entry() is None
        assert queue.peek() is None
        assert len(queue) == 0

    def test_payload_travels_with_entry(self):
        queue = CandidateQueue()
        queue.set(AB, 2.0, payload=("breakdown", 7))
        assert queue.pop_entry() == (AB, 2.0, ("breakdown", 7))
        assert AB not in queue

    def test_payload_replaced_on_update(self):
        queue = CandidateQueue()
        queue.set(AB, 2.0, payload="old")
        queue.set(AB, 3.0, payload="new")
        assert queue.pop_entry() == (AB, 3.0, "new")

    def test_payload_defaults_to_none(self):
        queue = CandidateQueue()
        queue.set(AB, 1.0)
        queue.set_many([(AC, 0.5, "kept")])
        assert queue.pop_entry() == (AB, 1.0, None)
        assert queue.pop_entry() == (AC, 0.5, "kept")

    def test_set_many_equals_sets_in_order(self):
        entries = [(AB, 1.0, "a"), (AC, 2.0, "b"), (AB, 4.0, "c"), (BC, 4.0, None)]
        batched, single = CandidateQueue(), CandidateQueue()
        batched.set_many(entries)
        for entry in entries:
            single.set(*entry)
        assert batched.peak_size == single.peak_size == 3
        assert [batched.pop_entry() for _ in range(4)] == [
            single.pop_entry() for _ in range(4)
        ]

    def test_peak_size_tracks_high_water_mark(self):
        queue = CandidateQueue()
        queue.set(AB, 1.0)
        queue.set(AC, 2.0)
        queue.pop_entry()
        queue.pop_entry()
        queue.set(BC, 3.0)
        assert len(queue) == 1
        assert queue.peak_size == 2


#: One queue operation: ``("set", id_a, id_b, gain)``, ``("set_many",
#: [(id_a, id_b, gain), ...])``, ``("discard", id_a, id_b)`` or
#: ``("pop",)``.  Few ids and gains, so keys repeat and gains tie;
#: pairs of one id twice are skipped.
SMALL_IDS = st.integers(min_value=0, max_value=5)
GAINS = st.sampled_from([0.5, 1.0, 2.0, 2.5])
QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), SMALL_IDS, SMALL_IDS, GAINS),
        st.tuples(
            st.just("set_many"),
            st.lists(st.tuples(SMALL_IDS, SMALL_IDS, GAINS), max_size=4),
        ),
        st.tuples(st.just("discard"), SMALL_IDS, SMALL_IDS),
        st.tuples(st.just("pop")),
    ),
    max_size=40,
)


class TestQueueAgainstReference:
    @staticmethod
    def reference_pop(live):
        """Pop the live entry first by (-gain, id_x, id_y), as a queue entry."""
        if not live:
            return None
        pair = min(live, key=lambda pair: (-live[pair][0], *pair))
        gain, payload = live.pop(pair)
        return pack(*pair), gain, payload

    @settings(max_examples=300, deadline=None)
    @given(QUEUE_OPS)
    def test_pops_follow_gain_then_id_order(self, ops):
        queue = CandidateQueue()
        live = {}  # (id_x, id_y) -> (gain, payload)
        peak = 0
        for op in ops:
            if op[0] == "pop":
                assert queue.pop_entry() == self.reference_pop(live)
            elif op[0] == "discard":
                if op[1] != op[2]:
                    queue.discard(pack(op[1], op[2]))
                    live.pop(unpack(pack(op[1], op[2])), None)
            else:
                entries = [op[1:]] if op[0] == "set" else op[1]
                batch = []
                for payload, (id_a, id_b, gain) in enumerate(entries):
                    if id_a != id_b:
                        batch.append((pack(id_a, id_b), gain, payload))
                        live[unpack(pack(id_a, id_b))] = (gain, payload)
                        peak = max(peak, len(live))
                if op[0] == "set":
                    for entry in batch:
                        queue.set(*entry)
                else:
                    queue.set_many(batch)
            assert len(queue) == len(live)
        assert queue.peak_size == peak
        while live:
            assert queue.pop_entry() == self.reference_pop(live)
        assert queue.pop_entry() is None
