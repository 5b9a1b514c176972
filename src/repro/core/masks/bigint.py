"""The ``bigint`` mask backend: one Python int per mask.

The seed's representation, extracted behind the backend protocol with
zero behavioural change: a mask is a plain non-negative ``int`` over
its bit order (a coreset's positions for a row, the vertex order for a
leafset union), and every operation is a single big-int machine op.
This stays the default for graphs below the auto-selection threshold —
Python ints beat any chunked layout while ``|V|`` fits in a few machine
words.  Construction is vectorised: :meth:`BigintMaskBackend.make_runs`
packs every run of a build block with numpy and pays one
``int.from_bytes`` per mask.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

import numpy as np

from repro.core.masks.base import (
    IntColumn,
    MaskBackend,
    int_value_bytes,
    iter_int_bits,
)


#: Packed bytes per :meth:`BigintMaskBackend.make_runs` group: its
#: scratch holds eight times as many one-byte bit slots (1 MB).
_PACK_BYTES = 1 << 17


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

    def make_runs(
        self, bits: IntColumn, starts: IntColumn, counts: IntColumn
    ) -> List[int]:
        # Runs' spanned bytes are laid end to end, and each group of
        # runs gets one byte slot per bit of its bytes: one scatter sets
        # them (idempotent, so a duplicate bit is harmless) and
        # ``packbits`` packs them eight to a byte.  Then one
        # ``int.from_bytes`` per run, shifted up to the run's lowest
        # byte, so a sparse run far up the order stays cheap.  Groups
        # keep the slot scratch under ``_PACK_BYTES * 8`` however wide
        # the runs (a leafset union spans its whole vertex range).
        bits = np.asarray(bits, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        masks = [0] * len(counts)
        full = np.flatnonzero(counts)
        if not len(full):
            return masks
        counts = counts[full]
        starts = np.asarray(starts, dtype=np.int64)[full]
        low = bits[starts] >> 3
        sizes = (bits[starts + counts - 1] >> 3) - low + 1
        offsets = np.cumsum(sizes) - sizes
        heads = np.cumsum(counts) - counts
        gathered = np.arange(int(counts.sum()))
        gathered += np.repeat(starts - heads, counts)
        slots = bits[gathered] + np.repeat((offsets - low) << 3, counts)
        del gathered
        ends = offsets + sizes
        firsts = np.flatnonzero(np.diff(offsets // _PACK_BYTES, prepend=-1))
        bounds = firsts.tolist() + [len(full)]
        from_bytes = int.from_bytes
        for first, stop in zip(bounds, bounds[1:]):
            base = int(offsets[first])
            scratch = np.zeros((int(ends[stop - 1]) - base) << 3, dtype=bool)
            scratch[
                slots[int(heads[first]) : int(heads[stop - 1] + counts[stop - 1])]
                - (base << 3)
            ] = True
            data = np.packbits(scratch, bitorder="little").tobytes()
            del scratch
            for run, offset, end, shift in zip(
                full[first:stop].tolist(),
                (offsets[first:stop] - base).tolist(),
                (ends[first:stop] - base).tolist(),
                (low[first:stop] << 3).tolist(),
            ):
                masks[run] = from_bytes(data[offset:end], "little") << shift
        return masks

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
