"""Incremental merge gain: Eq. 9-15 of the paper.

The gain of merging two leafsets ``SLx`` and ``SLy`` is

    dL = P1 - P2                                   (Eq. 9)

where, over the common coresets ``C`` with co-occurrence ``xye > 0``:

    P1 = sum_e [ fe*lg(fe) - (fe - xye)*lg(fe - xye) ]        (Eq. 10)
    P2 = sum_e Pe                                             (Eq. 11)
    Pe = xe*lg(xe) + ye*lg(ye)
         - [ (xe-xye)*lg(xe-xye) + (ye-xye)*lg(ye-xye)
             + xye*lg(xye) ]

The single ``Pe`` above (with ``0*lg 0 = 0``) subsumes the paper's
three cases: *partly merged* (Eq. 12), *totally merged* (Eq. 13) and
*one line totally merged* (Eq. 14/15).

On top of the data gain, Section IV-E notes the model-cost side: the
new row's leafset must be materialised in ``CTL`` (priced by the
standard code table) while fully-merged rows disappear.  This is the
``model_gain`` component; the CSPM facade subtracts it by default
(``include_model_cost=True``) and exposes it for ablation.
"""

from __future__ import annotations

from math import log2
from typing import Dict, FrozenSet, Hashable, NamedTuple, Optional

from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.inverted_db import InvertedDatabase
from repro.core.mdl import xlog2x

LeafKey = FrozenSet[Hashable]


class GainBreakdown(NamedTuple):
    """All components of a candidate merge's gain, in bits (saved).

    ``data_leaf_gain``
        Eq. 9 — the reduction of the conditional-entropy data cost.
    ``model_gain``
        Reduction of the model (code table) cost; usually negative
        because the new leafset must be stored.
    ``data_core_gain``
        Reduction of the coreset-pointer data cost (each merged
        position emits one coreset code instead of two).  Always >= 0.
    """

    data_leaf_gain: float
    model_gain: float
    data_core_gain: float

    def net(self, include_model_cost: bool = True) -> float:
        """The gain used to rank candidates.

        Follows Algorithm 2 (Eq. 9) with the Section IV-E model-cost
        correction when ``include_model_cost`` is set.
        """
        if include_model_cost:
            return self.data_leaf_gain + self.model_gain
        return self.data_leaf_gain

    @property
    def total(self) -> float:
        """Full DL delta including every tracked component."""
        return self.data_leaf_gain + self.model_gain + self.data_core_gain


ZERO_GAIN = GainBreakdown(0.0, 0.0, 0.0)

#: The smallest net gain a search accepts as positive: a pair merges
#: only when its gain is strictly above this, in every search.
GAIN_EPS = 1e-9


class _DirectXlogx:
    """:func:`~repro.core.mdl.xlog2x` behind the xlogx table's indexing.

    Serves a term whose ``fe`` is past :attr:`GainEngine._XLOGX_CAP`;
    its values equal the table's bit for bit, since both compute
    ``x * log2(x)``.
    """

    __slots__ = ()

    def __getitem__(self, x: int) -> float:
        return xlog2x(x)


_DIRECT_XLOGX = _DirectXlogx()


class GainEngine:
    """Fast gain evaluation bound to one database and its code tables.

    Semantically identical to the test oracle
    ``tests/oracles.py::pair_gain``, which evaluates the module
    docstring's formulas with :func:`~repro.core.mdl.xlog2x` (tests
    assert this), but avoids per-call overhead: ``x*log2(x)`` values
    are served from a lazily-grown lookup table, leafset standard-code
    costs and coreset pointer lengths are cached, and row frequencies
    are read from the database's row maps (one mask ``and_count`` per
    common coreset instead of three popcounts).  All mask arithmetic goes through the
    database's :mod:`~repro.core.masks` backend, so the engine is
    representation-agnostic and exact on every backend.

    :meth:`gain` walks the row map
    (:meth:`~repro.core.inverted_db.InvertedDatabase.rows_of`) of the
    pair's leafset with fewer coresets and probes the other's, so the
    common-coreset intersection and the term loop are one pass.  The
    engine caches nothing about rows: it reads the database's own row
    maps, which every merge keeps current.

    Float contract: the terms are visited in the row-map order of the
    leafset with fewer coresets (the lower interned id's on a tie),
    skipping coresets absent from the other map; each term is the
    Eq. 10-15 expression of the oracle ``pair_gain``, and the four
    accumulators are updated in the same order (model: new row, then x
    total, then y total).  Arguments are oriented to interned-id order
    (one read of the interner's id table per side) before any
    arithmetic, making the returned floats independent of call
    orientation — CSPM-Partial's lazy scope relies on this to reuse
    stored breakdowns bit-for-bit.

    The xlogx table grows geometrically on demand, so it ends up sized
    to the largest coreset frequency actually encountered (every
    Eq. 10-15 argument is bounded by its term's ``fe``, so one bound
    check per term covers all seven lookups) rather than the
    database's total frequency — tiny graphs in ``fit_many`` batches
    do not each allocate a table proportional to ``total_frequency()``.
    A term whose ``fe`` is beyond ``_XLOGX_CAP`` falls back to direct
    computation instead of materialising an extreme-scale table.
    """

    _XLOGX_CAP = 4_000_000

    def __init__(
        self,
        db: InvertedDatabase,
        standard_table: Optional[StandardCodeTable] = None,
        core_table: Optional[CoreCodeTable] = None,
    ) -> None:
        self.db = db
        self.standard_table = standard_table
        self.core_table = core_table
        self._ids = db.interner.ids
        self._leaf_cost = {}
        self._pointer = {}
        self._xlogx = [0.0, 0.0]
        # Bound mask ops of the database's backend: the hot loop's xye
        # count and the disjoint-union prefilter (repro.core.masks).
        self._and_count = db.mask_backend.and_count
        self._overlaps = db.mask_backend.union_overlaps

    def cache_stats(self) -> Dict[str, int]:
        """Current sizes of the engine's memo structures.

        Observability-only (``gain.cache_size`` gauges at the end of a
        search); reads nothing but ``len``, so calling it can never
        perturb gains.
        """
        return {
            "xlogx_table": len(self._xlogx),
            "leaf_cost": len(self._leaf_cost),
            "pointer": len(self._pointer),
        }

    def _xlogx_upto(self, bound: int):
        """An indexable ``t`` with ``t[x] == xlog2x(x)`` for ``0 <= x <= bound``."""
        table = self._xlogx
        size = len(table)
        if bound < size:
            return table
        if bound > self._XLOGX_CAP:
            return _DIRECT_XLOGX
        new_size = min(max(bound + 1, 2 * size), self._XLOGX_CAP + 1)
        table.extend(i * log2(i) for i in range(size, new_size))
        return table

    def stale_since(
        self, leaf_x: LeafKey, leaf_y: LeafKey, validated_at: int
    ) -> bool:
        """Whether the pair's gain may have changed after ``validated_at``.

        Every gain term is a function of per-coreset state (row masks,
        frequencies, row existence) over the pair's common coresets, so
        the stored value is exact while no common coreset's merge epoch
        passed the validation point.  Endpoint participation in a later
        merge is checked first — O(1), and it also vouches that the two
        row maps the coreset walk reads hold the validated rows.
        """
        db = self.db
        if (
            db.leaf_epoch(leaf_x) > validated_at
            or db.leaf_epoch(leaf_y) > validated_at
        ):
            return True
        rows_x = db.rows_of(leaf_x)
        rows_y = db.rows_of(leaf_y)
        if len(rows_x) > len(rows_y):
            rows_x, rows_y = rows_y, rows_x
        core_epoch = db._core_epoch
        for core in rows_x:
            if core in rows_y and core_epoch.get(core, 0) > validated_at:
                return True
        return False

    def leaf_cost(self, leaf: LeafKey) -> float:
        cost = self._leaf_cost.get(leaf)
        if cost is None:
            cost = self.standard_table.set_cost(leaf)
            self._leaf_cost[leaf] = cost
        return cost

    def pointer(self, core) -> float:
        length = self._pointer.get(core)
        if length is None:
            length = self.core_table.code_length(core) if self.core_table else 0.0
            self._pointer[core] = length
        return length

    def gain(self, leaf_x: LeafKey, leaf_y: LeafKey) -> GainBreakdown:
        """The :class:`GainBreakdown` of merging the two leafsets.

        Symmetric up to float identity: the arguments are oriented to
        interned-id order, so ``gain(x, y)`` and ``gain(y, x)`` return
        the exact same floats.  Every search evaluates gains through
        this one method.
        """
        db = self.db
        # Prefilter: if the leafsets' position unions are disjoint, no
        # coreset can have a non-empty intersection and the gain is 0.
        union = db._leaf_union
        union_x = union.get(leaf_x)
        union_y = union.get(leaf_y)
        if (
            union_x is None
            or union_y is None
            or not self._overlaps(union_x, union_y)
        ):
            return ZERO_GAIN
        ids = self._ids
        if ids[leaf_x] > ids[leaf_y]:
            leaf_x, leaf_y = leaf_y, leaf_x
        # Both leafsets carry a union mask, so both have a row map.
        leaf_rows = db._leaf_rows
        rows_x = leaf_rows[leaf_x]
        rows_y = leaf_rows[leaf_y]
        # Sum the terms in the smaller map's coreset order (x on a tie).
        walk_x = len(rows_x) <= len(rows_y)
        walk, probe = (rows_x, rows_y) if walk_x else (rows_y, rows_x)
        price_model = self.standard_table is not None
        if price_model:
            new_leaf = leaf_x | leaf_y
            new_rows = leaf_rows.get(new_leaf, ())
            # A cache hit is one dict get; ``leaf_cost`` fills a miss
            # (and serves a cached 0.0, which reads as falsy).
            costs = self._leaf_cost
            new_leaf_cost = costs.get(new_leaf) or self.leaf_cost(new_leaf)
            cost_x = costs.get(leaf_x) or self.leaf_cost(leaf_x)
            cost_y = costs.get(leaf_y) or self.leaf_cost(leaf_y)
        freq = db._core_freq
        pointers = self._pointer
        and_count = self._and_count
        xlogx = self._xlogx
        limit = len(xlogx)
        p1 = 0.0
        p2 = 0.0
        model_gain = 0.0
        data_core_gain = 0.0
        for core, walk_row in walk.items():
            probe_row = probe.get(core)
            if probe_row is None:
                continue
            if walk_x:
                mask_x, xe = walk_row
                mask_y, ye = probe_row
            else:
                mask_x, xe = probe_row
                mask_y, ye = walk_row
            xye = and_count(mask_x, mask_y)
            if not xye:
                continue
            fe = freq[core]
            if fe < limit:
                xl = xlogx
            else:
                xl = self._xlogx_upto(fe)
                limit = len(xlogx)
            p1 += xl[fe] - xl[fe - xye]
            p2 += xl[xe] + xl[ye] - (xl[xe - xye] + xl[ye - xye] + xl[xye])
            pointer = pointers.get(core)
            if pointer is None:
                pointer = self.pointer(core)
            if price_model:
                if core not in new_rows:
                    model_gain -= new_leaf_cost + pointer
                if xye == xe:
                    model_gain += cost_x + pointer
                if xye == ye:
                    model_gain += cost_y + pointer
            data_core_gain += xye * pointer
        if p1 == 0.0 and p2 == 0.0 and model_gain == 0.0 and data_core_gain == 0.0:
            return ZERO_GAIN
        return GainBreakdown(p1 - p2, model_gain, data_core_gain)

