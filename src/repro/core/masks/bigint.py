"""The ``bigint`` mask backend: one Python int per mask.

The seed's representation, extracted behind the backend protocol with
zero behavioural change: a mask is a plain non-negative ``int`` over
the whole vertex order, and every operation is a single big-int machine
op.  This stays the default for graphs below the auto-selection
threshold — Python ints beat any chunked layout while ``|V|`` fits in a
few machine words.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence

from repro.core.masks.base import MaskBackend, int_value_bytes, iter_int_bits


def _int_from_sorted_bits(bits: Sequence[int]) -> int:
    """A whole-graph int with the ascending ``bits`` set.

    Packs the spanned byte range into a ``bytearray`` (one small-int
    byte op per bit) and converts with a single ``int.from_bytes`` plus
    one accumulate shift — O(n + span/8) instead of n big-int
    shift-and-OR round trips, and the span is measured from the lowest
    set bit so a sparse mask far up the vertex order stays cheap.
    """
    if not bits:
        return 0
    base = bits[0] >> 3
    buffer = bytearray((bits[-1] >> 3) - base + 1)
    for bit in bits:
        buffer[(bit >> 3) - base] |= 1 << (bit & 7)
    return int.from_bytes(buffer, "little") << (base << 3)


class BigintMaskBackend(MaskBackend):
    """Whole-graph Python-int bitmasks (the zero-regression default)."""

    name = "bigint"

    def empty(self) -> int:
        return 0

    def make(self, bits: Iterable[int]) -> int:
        mask = 0
        for bit in bits:
            mask |= 1 << bit
        return mask

    def make_batch(self, bit_lists: Sequence[Sequence[int]]) -> List[int]:
        return [_int_from_sorted_bits(bits) for bits in bit_lists]

    def is_empty(self, mask: int) -> bool:
        return not mask

    def union_overlaps(self, a: int, b: int) -> bool:
        return bool(a & b)

    def or_(self, a: int, b: int) -> int:
        return a | b

    def and_(self, a: int, b: int) -> int:
        return a & b

    def andnot(self, a: int, b: int) -> int:
        return a & ~b

    def popcount(self, mask: int) -> int:
        return mask.bit_count()

    def and_count(self, a: int, b: int) -> int:
        return (a & b).bit_count()

    def iter_bits(self, mask: int) -> Iterator[int]:
        return iter_int_bits(mask)

    def bit_span(self, mask: int) -> int:
        return mask.bit_length()

    def mask_bytes(self, mask: int) -> int:
        return int_value_bytes(mask)
