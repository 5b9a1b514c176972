"""The ``chunked`` mask backend: sparse dict-of-int-chunk bitmaps.

The bit order is sharded into fixed-width blocks
(:attr:`ChunkedMaskBackend.chunk_bits`, default 256) and a mask stores
only its *non-empty* chunks in a ``{chunk_index: int}`` dict.  A sparse
mask holding ``k`` bits costs ``O(k)`` memory and its AND/popcount
walks the smaller chunk map — independent of the span, which is what
makes paper-scale graphs (pokec, 1.6M vertices) feasible: a
whole-graph bigint mask costs ~200 KB per leafset union there.

Locality matters: row masks are coreset-local, so a coreset of at most
``chunk_bits`` positions keeps each of its rows in one chunk, and
``InvertedDatabase.from_graph`` assigns vertex bits in first-touch
order over repr-sorted coresets, so a community-structured leafset's
union covers few chunks — intersections then touch few dict slots.

All counts are exact, so mining output is bit-identical to the bigint
backend (asserted by the equivalence suite).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List

from repro.core.masks.base import (
    IntColumn,
    MaskBackend,
    int_value_bytes,
    iter_int_bits,
    run_column,
)

ChunkMask = Dict[int, int]

# Estimated bookkeeping bytes: a small dict's base cost and the
# per-entry cost of one (small-int key -> chunk int) slot.
_DICT_HEADER_BYTES = 64
_SLOT_BYTES = 24


class ChunkedMaskBackend(MaskBackend):
    """Sparse chunked bitmasks over fixed-width int blocks."""

    name = "chunked"

    def __init__(self, chunk_bits: int = 256) -> None:
        if chunk_bits < 64 or chunk_bits & (chunk_bits - 1):
            raise ValueError("chunk_bits must be a power of two >= 64")
        self.chunk_bits = chunk_bits
        self._shift = chunk_bits.bit_length() - 1
        self._low = chunk_bits - 1

    def __repr__(self) -> str:
        return f"{type(self).__name__}(chunk_bits={self.chunk_bits})"

    def empty(self) -> ChunkMask:
        return {}

    def make(self, bits: Iterable[int]) -> ChunkMask:
        mask: ChunkMask = {}
        shift = self._shift
        low = self._low
        for bit in bits:
            chunk = bit >> shift
            mask[chunk] = mask.get(chunk, 0) | (1 << (bit & low))
        return mask

    def make_runs(
        self, bits: IntColumn, starts: IntColumn, counts: IntColumn
    ) -> List[ChunkMask]:
        # Ascending runs mean each chunk's bits are consecutive: one
        # dict store per chunk run instead of a get+set per bit.  The
        # dominant construction case — a community row inside a single
        # chunk — skips the per-bit chunk bookkeeping entirely.
        column = run_column(bits)
        shift = self._shift
        low = self._low
        out: List[ChunkMask] = []
        append = out.append
        for start, count in zip(run_column(starts), run_column(counts)):
            if not count:
                append({})
                continue
            run = column[start : start + count]
            first = run[0] >> shift
            if run[-1] >> shift == first:
                word = 0
                for bit in run:
                    word |= 1 << (bit & low)
                append({first: word})
                continue
            mask: ChunkMask = {}
            current = first
            word = 0
            for bit in run:
                chunk = bit >> shift
                if chunk != current:
                    mask[current] = word
                    current = chunk
                    word = 0
                word |= 1 << (bit & low)
            mask[current] = word
            append(mask)
        return out

    def is_empty(self, mask: ChunkMask) -> bool:
        return not mask

    def union_overlaps(self, a: ChunkMask, b: ChunkMask) -> bool:
        if len(a) > len(b):
            a, b = b, a
        get = b.get
        for chunk, word in a.items():
            other = get(chunk)
            if other is not None and word & other:
                return True
        return False

    def or_(self, a: ChunkMask, b: ChunkMask) -> ChunkMask:
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for chunk, word in b.items():
            have = out.get(chunk)
            out[chunk] = word if have is None else have | word
        return out

    def and_(self, a: ChunkMask, b: ChunkMask) -> ChunkMask:
        if len(a) > len(b):
            a, b = b, a
        get = b.get
        out: ChunkMask = {}
        for chunk, word in a.items():
            other = get(chunk)
            if other is not None:
                inter = word & other
                if inter:
                    out[chunk] = inter
        return out

    def andnot(self, a: ChunkMask, b: ChunkMask) -> ChunkMask:
        get = b.get
        out: ChunkMask = {}
        for chunk, word in a.items():
            other = get(chunk)
            if other is not None:
                word = word & ~other
                if not word:
                    continue
            out[chunk] = word
        return out

    def popcount(self, mask: ChunkMask) -> int:
        total = 0
        for word in mask.values():
            total += word.bit_count()
        return total

    def and_count(self, a: ChunkMask, b: ChunkMask) -> int:
        if len(a) > len(b):
            a, b = b, a
        get = b.get
        total = 0
        for chunk, word in a.items():
            other = get(chunk)
            if other is not None:
                total += (word & other).bit_count()
        return total

    def iter_bits(self, mask: ChunkMask) -> Iterator[int]:
        chunk_bits = self.chunk_bits
        for chunk in sorted(mask):
            yield from iter_int_bits(mask[chunk], offset=chunk * chunk_bits)

    def bit_span(self, mask: ChunkMask) -> int:
        if not mask:
            return 0
        top = max(mask)
        return top * self.chunk_bits + mask[top].bit_length()

    def mask_bytes(self, mask: ChunkMask) -> int:
        total = _DICT_HEADER_BYTES
        for word in mask.values():
            total += _SLOT_BYTES + int_value_bytes(word)
        return total
