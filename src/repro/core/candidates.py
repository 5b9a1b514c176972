"""Candidate pairs of leafsets and the priority queue over their gains.

A *candidate* is an unordered pair of leafsets with a positive merge
gain (Algorithm 2).  :class:`CandidateQueue` keeps candidates ordered
by descending gain with deterministic tie-breaking, supporting the
update/discard operations needed by CSPM-Partial (Algorithm 4).

Ordering strategy
-----------------
Canonical pair order and queue tie-breaking need a deterministic,
hash-seed-independent total order over leafsets.  The seed derived one
from ``repr`` strings, which made every comparison a tuple-of-strings
comparison and cached the keys in an unbounded module-level
``lru_cache`` (leaking leafsets across runs in long-lived processes).
Ordering is now provided by :class:`LeafsetInterner`, a *per-database*
registry that assigns each leafset a stable integer id at first sight:
comparisons become integer ops and all ordering state dies with the
database that owns it.  The repr-based :func:`leafset_sort_key` remains
(uncached) for serialisation paths that must stay stable across
processes regardless of interning order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Tuple

LeafKey = FrozenSet[Hashable]
Pair = Tuple[LeafKey, LeafKey]


def leafset_sort_key(leaf: LeafKey) -> Tuple[str, ...]:
    """Deterministic, hash-independent (repr-based) key for a leafset.

    Process-independent, so it anchors serialisation order (MDL sums,
    code-table export, trace records).  Hot-path ordering uses
    :class:`LeafsetInterner` ids instead.
    """
    return tuple(sorted(map(repr, leaf)))


class LeafsetInterner:
    """Per-database registry of stable integer leafset ids.

    Ids are assigned at first sight and never change, so any fixed
    intern order yields a deterministic, hash-seed-independent total
    order over leafsets.  :meth:`repro.core.inverted_db.InvertedDatabase`
    interns its initial leafsets in repr-sorted order (matching the
    seed's ordering exactly at seeding time) and each merged leafset at
    merge time, keeping every downstream comparison an integer op.
    """

    __slots__ = ("_ids", "_leafsets")

    def __init__(self) -> None:
        self._ids: Dict[LeafKey, int] = {}
        self._leafsets: List[LeafKey] = []

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, leaf: LeafKey) -> bool:
        return leaf in self._ids

    def intern(self, leaf: LeafKey) -> int:
        """The id of ``leaf``, assigning the next free id at first sight."""
        ids = self._ids
        found = ids.get(leaf)
        if found is None:
            found = len(self._leafsets)
            ids[leaf] = found
            self._leafsets.append(leaf)
        return found

    def intern_all(self, leafsets: Iterable[LeafKey]) -> None:
        """Intern ``leafsets`` in the given order."""
        for leaf in leafsets:
            self.intern(leaf)

    def leafset_of(self, leaf_id: int) -> LeafKey:
        """The leafset registered under ``leaf_id``."""
        return self._leafsets[leaf_id]

    def canonical_pair(self, leaf_x: LeafKey, leaf_y: LeafKey) -> Pair:
        """The unordered pair in canonical (ascending-id) order."""
        if self.intern(leaf_x) <= self.intern(leaf_y):
            return (leaf_x, leaf_y)
        return (leaf_y, leaf_x)

    def pair_key(self, pair: Pair) -> Tuple[int, int]:
        """Integer sort key of a canonical pair."""
        return (self.intern(pair[0]), self.intern(pair[1]))

    def order(self, leafsets: Iterable[LeafKey]) -> List[LeafKey]:
        """``leafsets`` sorted by interned id."""
        return sorted(leafsets, key=self.intern)

    def copy(self) -> "LeafsetInterner":
        clone = LeafsetInterner()
        clone._ids = dict(self._ids)
        clone._leafsets = list(self._leafsets)
        return clone

    def __repr__(self) -> str:
        return f"LeafsetInterner({len(self._ids)} leafsets)"


def enumerate_pairs(
    leafsets: Iterable[LeafKey], interner: LeafsetInterner
) -> Iterator[Pair]:
    """All unordered pairs in interned-id order (Alg. 2, line 2).

    This is the quadratic full scan of CSPM-Basic; the sparse-aware
    generator is :func:`repro.core.pairgen.overlap_pairs`.
    """
    return itertools.combinations(interner.order(leafsets), 2)


class CandidateQueue:
    """Max-gain priority queue with lazy deletion and entry payloads.

    Entries are ``(-gain, tiebreak, version, pair)`` in a binary heap;
    a side table maps each pair to its current gain, version and an
    opaque payload so stale heap entries are skipped on pop.  The
    tiebreak is the pair's ``(id, id)`` key under ``interner``.

    The payload carries whatever the caller needs to revalidate an
    entry lazily — CSPM-Partial's lazy scope stores the full gain
    breakdown plus the merge epoch it was computed at, so a pair that
    reaches the queue head with no common coreset touched since then is
    merged without recomputing anything (its stored gain is exact), and
    every other entry remains a sound upper bound until it surfaces.
    ``peak_size`` records the high-water mark of live candidates (read
    by the perf harness).
    """

    def __init__(self, interner: LeafsetInterner) -> None:
        self._heap: List[Tuple[float, Tuple, int, Pair]] = []
        self._current: Dict[Pair, Tuple[float, int, object]] = {}
        self._version = 0
        self._pair_key = interner.pair_key
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._current)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._current

    def gain_of(self, pair: Pair) -> Optional[float]:
        entry = self._current.get(pair)
        return entry[0] if entry else None

    def payload_of(self, pair: Pair) -> object:
        """The payload stored with ``pair`` (``None`` if absent)."""
        entry = self._current.get(pair)
        return entry[2] if entry else None

    def pairs(self) -> List[Pair]:
        return list(self._current)

    def set(self, pair: Pair, gain: float, payload: object = None) -> None:
        """Insert ``pair`` or update its gain (and payload)."""
        self._version += 1
        self._current[pair] = (gain, self._version, payload)
        heapq.heappush(self._heap, (-gain, self._pair_key(pair), self._version, pair))
        if len(self._current) > self.peak_size:
            self.peak_size = len(self._current)

    def set_many(
        self, entries: Iterable[Tuple[Pair, float, object]]
    ) -> None:
        """Insert or update a batch of ``(pair, gain, payload)`` entries.

        Equivalent to calling :meth:`set` once per entry in order —
        versions, heap content and the peak-size high-water mark come
        out identical — but the refresh loops hand the queue one batch
        per merge instead of one call per pair, keeping per-call
        dispatch out of the hot path.
        """
        heap = self._heap
        current = self._current
        pair_key = self._pair_key
        version = self._version
        push = heapq.heappush
        for pair, gain, payload in entries:
            version += 1
            current[pair] = (gain, version, payload)
            push(heap, (-gain, pair_key(pair), version, pair))
            if len(current) > self.peak_size:
                self.peak_size = len(current)
        self._version = version

    def discard(self, pair: Pair) -> None:
        """Remove ``pair`` if present (lazy: heap entry becomes stale)."""
        self._current.pop(pair, None)

    def peek(self) -> Optional[Tuple[Pair, float]]:
        """The best live candidate without removing it."""
        self._drop_stale()
        if not self._heap:
            return None
        neg_gain, _key, _version, pair = self._heap[0]
        return pair, -neg_gain

    def pop(self) -> Optional[Tuple[Pair, float]]:
        """Remove and return the best live candidate, or ``None``."""
        entry = self.pop_entry()
        if entry is None:
            return None
        return entry[0], entry[1]

    def pop_entry(self) -> Optional[Tuple[Pair, float, object]]:
        """Like :meth:`pop` but also returns the entry's payload."""
        self._drop_stale()
        if not self._heap:
            return None
        neg_gain, _key, _version, pair = heapq.heappop(self._heap)
        payload = self._current.pop(pair)[2]
        return pair, -neg_gain, payload

    def _drop_stale(self) -> None:
        while self._heap:
            neg_gain, _key, version, pair = self._heap[0]
            entry = self._current.get(pair)
            if entry is not None and entry[1] == version:
                return
            heapq.heappop(self._heap)
