"""Candidate pairs of leafsets and the priority queue over their gains.

A *candidate* is an unordered pair of leafsets with a positive merge
gain (Algorithm 2).  :class:`CandidateQueue` keeps candidates ordered
by descending gain with deterministic tie-breaking, supporting the
update/discard operations needed by CSPM-Partial (Algorithm 4).

Ordering strategy
-----------------
Pair orientation and queue tie-breaking need a deterministic,
hash-seed-independent total order over leafsets.  The seed derived one
from ``repr`` strings, which made every comparison a tuple-of-strings
comparison and cached the keys in an unbounded module-level
``lru_cache`` (leaking leafsets across runs in long-lived processes).
Ordering is now provided by :class:`LeafsetInterner`, a *per-database*
registry that assigns each leafset a stable integer id at first sight:
comparisons become integer ops and all ordering state dies with the
database that owns it.  The search names a pair by one int,
``pack(id_x, id_y) == id_x << 32 | id_y`` with ``id_x < id_y``: for ids
below 2**32 packed keys order exactly like the ``(id_x, id_y)`` tuples,
so the queue, the related-leafset index and the refresh sets all key
on it and orienting a pair is one compare.  The repr-based
:func:`leafset_sort_key` remains (uncached) for serialisation paths
that must stay stable across processes regardless of interning order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Tuple

LeafKey = FrozenSet[Hashable]
Pair = Tuple[LeafKey, LeafKey]

#: Bits of the larger id in a packed pair key.
PAIR_SHIFT = 32
_LOW = (1 << PAIR_SHIFT) - 1


def pack(id_a: int, id_b: int) -> int:
    """The packed key of the unordered id pair: lower id high, higher low."""
    if id_a < id_b:
        return id_a << PAIR_SHIFT | id_b
    return id_b << PAIR_SHIFT | id_a


def unpack(key: int) -> Tuple[int, int]:
    """``(id_x, id_y)``, ``id_x < id_y``, of a packed pair key."""
    return key >> PAIR_SHIFT, key & _LOW


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

    @property
    def ids(self) -> Dict[LeafKey, int]:
        """The live leafset -> id table (do not mutate)."""
        return self._ids

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
    """Max-gain priority queue of packed pair keys, with lazy deletion
    and entry payloads.

    Entries are ``(-gain, key, version)`` in a binary heap, so equal
    gains pop in ascending key order (:func:`pack`); a side table maps
    each key to its current gain, version and an opaque payload so
    stale heap entries are skipped on pop.

    The payload carries whatever the caller needs to revalidate an
    entry lazily — CSPM-Partial's lazy scope stores the full gain
    breakdown plus the merge epoch it was computed at, so a pair that
    reaches the queue head with no common coreset touched since then is
    merged without recomputing anything (its stored gain is exact), and
    every other entry remains a sound upper bound until it surfaces.
    ``peak_size`` records the high-water mark of live candidates (read
    by the perf harness).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int]] = []
        self._current: Dict[int, Tuple[float, int, object]] = {}
        self._version = 0
        self.peak_size = 0

    def __len__(self) -> int:
        return len(self._current)

    def __contains__(self, key: int) -> bool:
        return key in self._current

    def set(self, key: int, gain: float, payload: object = None) -> None:
        """Insert ``key`` or update its gain (and payload)."""
        self.set_many(((key, gain, payload),))

    def set_many(self, entries: Iterable[Tuple[int, float, object]]) -> None:
        """Insert or update a batch of ``(key, gain, payload)`` entries,
        in order.

        The refresh loops hand the queue one batch per merge instead of
        one call per pair, keeping per-call dispatch out of the hot
        path.
        """
        heap = self._heap
        current = self._current
        version = self._version
        push = heapq.heappush
        for key, gain, payload in entries:
            version += 1
            current[key] = (gain, version, payload)
            push(heap, (-gain, key, version))
            if len(current) > self.peak_size:
                self.peak_size = len(current)
        self._version = version

    def discard(self, key: int) -> None:
        """Remove ``key`` if present (lazy: heap entry becomes stale)."""
        self._current.pop(key, None)

    def peek(self) -> Optional[Tuple[int, float]]:
        """The best live ``(key, gain)`` without removing it."""
        self._drop_stale()
        if not self._heap:
            return None
        neg_gain, key, _version = self._heap[0]
        return key, -neg_gain

    def pop_entry(self) -> Optional[Tuple[int, float, object]]:
        """Remove and return the best live ``(key, gain, payload)``."""
        self._drop_stale()
        if not self._heap:
            return None
        neg_gain, key, _version = heapq.heappop(self._heap)
        return key, -neg_gain, self._current.pop(key)[2]

    def _drop_stale(self) -> None:
        while self._heap:
            _neg_gain, key, version = self._heap[0]
            entry = self._current.get(key)
            if entry is not None and entry[1] == version:
                return
            heapq.heappop(self._heap)
