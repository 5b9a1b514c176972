"""The position-mask backend protocol.

The inverted database (paper, Section IV-B) stores every row's position
set as a bitmask over its coreset's positions and every leafset's
union over a fixed vertex order, and all of Section V's machinery —
gain terms (``xye`` co-occurrence counts), overlap-driven candidate
generation, the lazy refresh's touched-row tests — reduces to
AND/OR/popcount on those masks.  The *representation* of a mask is a
backend choice:

``bigint``
    One Python integer per mask (the seed's representation).
    Simplest and fastest on small graphs, but a mask pays memory and
    AND cost up to its highest set bit regardless of how few positions
    it holds: ``O(|V|)`` for a union mask.
``chunked``
    The bit order is sharded into fixed-width blocks; a mask stores
    only its non-empty chunks in a dict.  Sparse masks touch only their
    chunks, so memory and AND cost follow ``O(set bits)`` instead of
    the span.

A backend is a *stateless* strategy object: masks are plain values
(``int`` / ``dict``) interpreted through the backend that made them,
and two databases built with the same backend class can share one
instance.  Mutation discipline: no operation mutates ``self`` or a
mask it is given.  The two construction ops, :meth:`MaskBackend.make`
and :meth:`MaskBackend.make_runs`, build fresh values (and only they
may build one in place); every other operation is pure, which is what
lets ``InvertedDatabase.copy`` share mask values between copies.

All backends are **bit-exact** interchangeable: every mining-visible
quantity (popcounts, intersection counts, overlap booleans, decoded bit
sets) is an exact integer/boolean, so merge sequences, snapshots and DL
floats are identical across backends — the equivalence suite in
``tests/test_mask_backends.py`` asserts it.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Sequence, Union

import numpy as np

Mask = Any
#: A one-dimensional integer column: a numpy array or a sequence of ints.
IntColumn = Union[np.ndarray, Sequence[int]]

# CPython's int layout: ~28-byte header plus one 4-byte digit per 30
# bits of payload.  This is the per-mask cost a whole-graph bigint
# bitmap pays *regardless of sparsity* — the reference the perf suite's
# mask-memory reduction ratios are measured against.
_INT_HEADER_BYTES = 28
_BITS_PER_DIGIT = 30
_DIGIT_BYTES = 4


def bigint_mask_bytes(num_bits: int) -> int:
    """Estimated bytes of a whole-graph bigint mask over ``num_bits``."""
    digits = max(1, -(-num_bits // _BITS_PER_DIGIT))
    return _INT_HEADER_BYTES + digits * _DIGIT_BYTES


def int_value_bytes(value: int) -> int:
    """Estimated bytes of a Python int holding ``value`` (>= 0)."""
    return bigint_mask_bytes(max(1, value.bit_length())) if value else _INT_HEADER_BYTES


class MaskBackend:
    """Abstract strategy for one position-mask representation.

    Subclasses define the mask value type and implement every
    operation; the database and the search layers only ever talk to
    masks through these methods (plus truth-valued results), never
    through the raw representation.
    """

    #: Registry name (``"bigint"`` / ``"chunked"``).
    name: str = "abstract"

    # -- construction --------------------------------------------------

    def empty(self) -> Mask:
        """A mask with no bits set."""
        raise NotImplementedError

    def make(self, bits: Iterable[int]) -> Mask:
        """A fresh mask with exactly ``bits`` set."""
        raise NotImplementedError

    def make_runs(
        self, bits: IntColumn, starts: IntColumn, counts: IntColumn
    ) -> List[Mask]:
        """One fresh mask per run of one flat bit column, in one bulk call.

        Run ``i`` is ``bits[starts[i] : starts[i] + counts[i]]``; the
        three columns are one-dimensional integer arrays (numpy arrays
        or sequences of ints).  Each run must be ascending; duplicates
        are allowed (setting a bit twice is idempotent), runs may be
        empty, and different runs may share bits.  This is the columnar
        builder's primitive: the database collects every row of a
        block, and every leafset union, as runs of one column, so
        backends can vectorise the whole batch — the bigint backend
        packs all runs with numpy and converts each with one
        ``int.from_bytes``, the chunked backend groups consecutive bits
        by chunk index instead of re-hashing the chunk key per bit.
        The default implementation falls back to :meth:`make` per run.
        """
        column = run_column(bits)
        return [
            self.make(column[start : start + count])
            for start, count in zip(run_column(starts), run_column(counts))
        ]

    # -- predicates ----------------------------------------------------

    def is_empty(self, mask: Mask) -> bool:
        raise NotImplementedError

    def union_overlaps(self, a: Mask, b: Mask) -> bool:
        """Whether the two masks share at least one set bit.

        The single-AND test behind the Section V observation: overlap
        generation, the gain prefilter and the lazy refresh's
        touched-row skips all reduce to this.
        """
        raise NotImplementedError

    # -- combination ---------------------------------------------------

    def or_(self, a: Mask, b: Mask) -> Mask:
        """``a | b`` as a value (never mutates either argument)."""
        raise NotImplementedError

    def and_(self, a: Mask, b: Mask) -> Mask:
        """``a & b`` as a value."""
        raise NotImplementedError

    def andnot(self, a: Mask, b: Mask) -> Mask:
        """``a & ~b`` as a value."""
        raise NotImplementedError

    # -- counting / decoding -------------------------------------------

    def popcount(self, mask: Mask) -> int:
        raise NotImplementedError

    def and_count(self, a: Mask, b: Mask) -> int:
        """``popcount(a & b)`` — the hot ``xye`` co-occurrence count."""
        raise NotImplementedError

    def iter_bits(self, mask: Mask) -> Iterator[int]:
        """Set bit indices in ascending order."""
        raise NotImplementedError

    def bit_span(self, mask: Mask) -> int:
        """Index of the highest set bit plus one (0 when empty).

        The width a big-int holding this mask would actually occupy —
        what makes the bigint memory reference honest instead of an
        O(|V|)-per-mask overstatement.
        """
        raise NotImplementedError

    # -- accounting ----------------------------------------------------

    def mask_bytes(self, mask: Mask) -> int:
        """Estimated resident bytes of ``mask`` (payload + overhead).

        An analytic estimate (not ``sys.getsizeof`` walks) so the perf
        suite's recorded numbers are machine-independent.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def iter_int_bits(value: int, offset: int = 0) -> Iterator[int]:
    """Ascending set-bit indices of a non-negative int, plus ``offset``."""
    while value:
        low = value & -value
        yield offset + low.bit_length() - 1
        value ^= low


def run_column(column: IntColumn) -> List[int]:
    """An integer column as a list of Python ints (numpy ints would
    overflow in ``1 << bit``)."""
    if isinstance(column, np.ndarray):
        return column.tolist()
    return [int(value) for value in column]
