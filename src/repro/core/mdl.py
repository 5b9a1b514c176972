"""MDL accounting: Eq. 1-8 of the paper, as a *reference* implementation.

The search procedures use the incremental gain of
:mod:`repro.core.gain`; this module recomputes description lengths from
scratch so tests can assert that the incremental bookkeeping matches
the definitions exactly.  :func:`rank_rows` is the one production pass
over the final rows: the ranked a-stars and the final breakdown,
pinned ``==`` to :func:`description_length`.

Cost model
----------

``L(M, I) = L(M) + L(I|M)`` (Eq. 1) with:

* ``L(M) = L(CTc|I) + L(CTL|I)`` (Eq. 2).  Each CTc entry costs the ST
  codes of its core values plus its own code ``Code_c``.  Each CTL row
  costs the ST codes of its leaf values plus the pointer to its coreset
  (``Code_c``).  Following the paper's gain derivation (Section IV-E),
  the code-*column* lengths (``Code_L``) are not charged to the model —
  they are fully determined by ``fL/fc`` and accounted on the data side.
* ``L(I|M)`` is the conditional-entropy data cost of Eq. 8:
  ``sum_j c_j log2 c_j - sum_ij l_ij log2 l_ij`` (the ``Code_L`` part of
  Eq. 3), plus the coreset-code part ``sum_rows fL * Code_c(Sc)``
  reported separately as ``data_core_bits``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro.core.astar import AStar, _sorted_values, tie_key
from repro.core.candidates import leafset_sort_key
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.inverted_db import CoreKey, InvertedDatabase, LeafKey


def xlog2x(x: float) -> float:
    """``x * log2(x)`` with the standard convention ``0 * log 0 = 0``."""
    if x <= 0:
        return 0.0
    return x * math.log2(x)


@dataclass(frozen=True)
class DescriptionLength:
    """A breakdown of the total description length, in bits."""

    model_core_bits: float
    model_leaf_bits: float
    data_leaf_bits: float
    data_core_bits: float

    @property
    def model_bits(self) -> float:
        """``L(M)`` (Eq. 2)."""
        return self.model_core_bits + self.model_leaf_bits

    @property
    def data_bits(self) -> float:
        """``L(I|M)`` (Eq. 3)."""
        return self.data_leaf_bits + self.data_core_bits

    @property
    def total_bits(self) -> float:
        """``L(M, I)`` (Eq. 1)."""
        return self.model_bits + self.data_bits

    def to_dict(self) -> Dict[str, Any]:
        """The four component fields, JSON-ready."""
        return asdict(self)

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "DescriptionLength":
        """Rebuild a breakdown from :meth:`to_dict` output."""
        return cls(
            model_core_bits=document["model_core_bits"],
            model_leaf_bits=document["model_leaf_bits"],
            data_leaf_bits=document["data_leaf_bits"],
            data_core_bits=document["data_core_bits"],
        )

    def __str__(self) -> str:
        return (
            f"L(M,I)={self.total_bits:.2f} bits "
            f"[model={self.model_bits:.2f} (core={self.model_core_bits:.2f}, "
            f"leaf={self.model_leaf_bits:.2f}), data={self.data_bits:.2f} "
            f"(leaf={self.data_leaf_bits:.2f}, core={self.data_core_bits:.2f})]"
        )


def canonical_order(db: InvertedDatabase) -> List[Tuple[CoreKey, List[LeafKey]]]:
    """The live rows in canonical order, grouped by coreset.

    Coresets in :func:`leafset_sort_key` order, each with its leafsets
    in the same key's order: rows sorted by (coreset key, leafset key),
    the order every recomputed float sums in.  Set and dict iteration order varies with
    ``PYTHONHASHSEED`` and construction history, so this is what makes
    ``initial_dl``, ``final_dl`` and the per-a-star code lengths
    bit-for-bit reproducible across processes — the serialised results
    and the CLI golden file rely on it.  The key is built once per
    distinct set: the leafsets are sorted once globally, and each
    coreset's leafsets by their integer position in that order.  (The
    per-iteration trace bits accumulate through the unsorted hot gain
    loop and may still differ in the last ulp on large graphs.)
    """
    position = {
        leaf: index
        for index, leaf in enumerate(sorted(db.leafsets(), key=leafset_sort_key))
    }
    return [
        (core, sorted(db.leafsets_of(core), key=position.__getitem__))
        for core in sorted(db.coresets(), key=leafset_sort_key)
    ]


def canonical_rows(db: InvertedDatabase) -> List[Tuple[CoreKey, LeafKey, int]]:
    """``(core, leaf, frequency)`` triples in :func:`canonical_order`."""
    frequency_of = db.row_frequency
    return [
        (core, leaf, frequency_of(core, leaf))
        for core, leaves in canonical_order(db)
        for leaf in leaves
    ]


def data_leaf_bits(db: InvertedDatabase, rows=None) -> float:
    """Eq. 8: ``sum_j c_j log2 c_j - sum_ij l_ij log2 l_ij``.

    ``rows`` may carry an already-sorted row list (from
    :func:`canonical_rows`) to avoid re-sorting.
    """
    total = 0.0
    for core in sorted(db.coresets(), key=leafset_sort_key):
        total += xlog2x(db.coreset_frequency(core))
    for _core, _leaf, frequency in rows if rows is not None else canonical_rows(db):
        total -= xlog2x(frequency)
    return total


def conditional_entropy(db: InvertedDatabase) -> float:
    """``H(Y|X)`` of Eq. 7 over the live inverted database.

    The identity ``L(I|M) == s * H(Y|X)`` (Eq. 8) is covered by tests.
    Rows are summed in the canonical sorted order so the float result
    is identical for any ``PYTHONHASHSEED`` / insertion order (DET001).
    """
    s = db.total_frequency()
    if s == 0:
        return 0.0
    entropy = 0.0
    for core, _leaf, l_ij in canonical_rows(db):
        c_j = db.coreset_frequency(core)
        entropy -= (l_ij / s) * math.log2(l_ij / c_j)
    return entropy


def description_length(
    db: InvertedDatabase,
    standard_table: StandardCodeTable,
    core_table: Optional[CoreCodeTable] = None,
    rows=None,
) -> DescriptionLength:
    """Recompute the full DL breakdown from scratch (Eq. 1-8).

    Sums run in sorted order so the result is identical for any
    ``PYTHONHASHSEED`` — see :func:`canonical_order` and
    :meth:`StandardCodeTable.set_cost`.  ``rows`` may carry the
    ``(core, leaf, frequency)`` triples *already in that canonical
    order* to skip the sort; the summation order — and hence every
    float — is identical either way.  This is also the initial
    description length the pipeline's build stage reports.
    """
    if rows is None:
        rows = canonical_rows(db)
    model_core = 0.0
    if core_table is not None:
        for coreset in sorted(core_table.coresets(), key=leafset_sort_key):
            model_core += standard_table.set_cost(coreset)
            model_core += core_table.code_length(coreset)
    model_leaf = 0.0
    data_core = 0.0
    # Per-leafset/per-coreset cost memos: ``set_cost``/``code_length``
    # are pure, so reusing the exact float per distinct key changes
    # nothing while cutting the dominant per-row cost (initial rows
    # share a handful of singleton leafsets).
    leaf_cost: Dict[Any, float] = {}
    pointer_of: Dict[Any, float] = {}
    for core, leaf, frequency in rows:
        cost = leaf_cost.get(leaf)
        if cost is None:
            cost = leaf_cost[leaf] = standard_table.set_cost(leaf)
        model_leaf += cost
        if core_table is not None:
            pointer = pointer_of.get(core)
            if pointer is None:
                pointer = pointer_of[core] = core_table.code_length(core)
            model_leaf += pointer
            data_core += frequency * pointer
    return DescriptionLength(
        model_core_bits=model_core,
        model_leaf_bits=model_leaf,
        data_leaf_bits=data_leaf_bits(db, rows=rows),
        data_core_bits=data_core,
    )


def row_code_length(db: InvertedDatabase, core, leaf) -> float:
    """``L(Code_L)`` of a row: ``-log2(fL / fc)`` (Eq. 6)."""
    f_l = db.row_frequency(core, leaf)
    f_c = db.coreset_frequency(core)
    if f_l <= 0 or f_c <= 0:
        raise ValueError("row does not exist")
    return -math.log2(f_l / f_c)


def astar_code_length(
    db: InvertedDatabase, core_table: CoreCodeTable, core, leaf
) -> float:
    """``L(Scode) = L(Code_c) + L(Code_L)`` (Eq. 4)."""
    return core_table.code_length(core) + row_code_length(db, core, leaf)


def _tie_positions(sets: Iterable[FrozenSet]) -> Dict[FrozenSet, int]:
    """Each set's position in :func:`~repro.core.astar.tie_key` order."""
    keys = {key: tie_key(_sorted_values(key)) for key in sets}
    ranked = sorted(keys, key=keys.__getitem__)
    return {key: position for position, key in enumerate(ranked)}


def rank_rows(
    db: InvertedDatabase,
    standard_table: StandardCodeTable,
    core_table: CoreCodeTable,
) -> Tuple[List[AStar], DescriptionLength]:
    """Every live row as an a-star, ranked, plus the final DL breakdown.

    One pass over the rows in :func:`canonical_order` yields each row's
    code length (Eq. 4, 6), its :class:`AStar` and its Eq. 1-8 terms.
    The sort work is per distinct set, not per row: one canonical key
    and one :func:`~repro.core.astar.tie_key` position per coreset and
    leafset.  The a-stars come back in :meth:`AStar.sort_key` order:
    code length, then the coreset's and the leafset's tie keys.

    Float contract: the breakdown equals ``description_length(db,
    standard_table, core_table)`` bit for bit — the same terms summed
    in the same order (model-core over the sorted code-table coresets;
    per row the leaf cost, then the pointer, with ``f * pointer`` on
    the data-core side; data-leaf ``sum xlog2x(fc)`` over the sorted
    live coresets, then ``- xlog2x(f)`` per row) — and each code
    length equals :func:`astar_code_length`.
    """
    order = canonical_order(db)
    core_tie = _tie_positions(core for core, _leaves in order)
    leaf_tie = _tie_positions(db.leafsets())
    leaf_cost = {leaf: standard_table.set_cost(leaf) for leaf in leaf_tie}
    model_core = 0.0
    for coreset in sorted(core_table.coresets(), key=leafset_sort_key):
        model_core += standard_table.set_cost(coreset)
        model_core += core_table.code_length(coreset)
    coreset_frequency = db.coreset_frequency
    data_leaf = 0.0
    for core, _leaves in order:
        data_leaf += xlog2x(coreset_frequency(core))
    model_leaf = 0.0
    data_core = 0.0
    frequency_of = db.row_frequency
    log2 = math.log2
    of_row = AStar._of_row
    stride = len(leaf_tie)
    stars: List[AStar] = []
    ties: List[int] = []
    for core, leaves in order:
        pointer = core_table.code_length(core)
        f_c = coreset_frequency(core)
        tie_base = core_tie[core] * stride
        for leaf in leaves:
            f_l = frequency_of(core, leaf)
            model_leaf += leaf_cost[leaf]
            model_leaf += pointer
            data_core += f_l * pointer
            data_leaf -= xlog2x(f_l)
            code = pointer + -log2(f_l / f_c)
            stars.append(of_row(core, leaf, f_l, f_c, code))
            ties.append(tie_base + leaf_tie[leaf])
    # Tie order first, then a stable sort by code length: the
    # AStar.sort_key order with an int and a float compared per row.
    ranked = [stars[i] for i in sorted(range(len(ties)), key=ties.__getitem__)]
    ranked.sort(key=attrgetter("code_length"))
    return ranked, DescriptionLength(
        model_core_bits=model_core,
        model_leaf_bits=model_leaf,
        data_leaf_bits=data_leaf,
        data_core_bits=data_core,
    )
