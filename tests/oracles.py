"""The naive references exact production code is pinned to.

:func:`naive_search` is CSPM-Basic itself
(:func:`repro.core.cspm_basic.run_basic`), which runs Algorithms 1-2 of
the paper verbatim: each iteration evaluates every leafset pair of the
current database and merges the first pair, in interned-id order, with
the strictly greatest gain above ``GAIN_EPS``.  A search whose
:func:`outcome` equals the oracle's reproduces the greedy merge
sequence and every description-length float exactly.

:func:`triples_database` builds the initial inverted database one
``(coreset, vertex, leaf value)`` triple at a time, the reference the
columnar ``InvertedDatabase.from_graph`` is pinned to.

:func:`sorted_rows` is the canonical row order as one global sort with
a key per row, the order ``repro.core.mdl.canonical_order`` builds from
per-set keys.

:func:`pair_gain` computes the merge gain of Eq. 9-15 term by term
from :func:`merge_stats`; ``GainEngine.gain`` is pinned to it.
"""

from dataclasses import dataclass

from repro.core.candidates import leafset_sort_key
from repro.core.cspm_basic import run_basic as naive_search
from repro.core.gain import GainBreakdown
from repro.core.inverted_db import InvertedDatabase
from repro.core.mdl import xlog2x

__all__ = [
    "CoresetMergeStats",
    "merge_stats",
    "naive_search",
    "outcome",
    "pair_gain",
    "sorted_rows",
    "triples_database",
]


def outcome(trace, db):
    """What every exact search must reproduce with ``==``: each merge
    with its gain and running DL, the final DL, the incremental
    component sums, and the final database."""
    return {
        "merges": [(s.merged_pair, s.gain, s.total_dl_bits) for s in trace.iterations],
        "final_dl_bits": trace.final_dl_bits,
        "component_sums": (
            trace.data_leaf_gain_bits,
            trace.model_gain_bits,
            trace.data_core_gain_bits,
        ),
        "snapshot": db.snapshot(),
    }


def triples_database(graph, coreset_positions=None, mask_backend=None):
    """The initial inverted database, built one triple at a time.

    Coresets are walked in ``leafset_sort_key`` order (keys that
    collapse to one frozenset pool their members) and each coreset's
    members in repr order.  A vertex gets the next bit at its first
    encounter, if it has neighbour values.  Every ``(coreset, vertex,
    leaf value)`` triple adds the vertex's bit to a plain set; each row
    and union mask is then made once with ``backend.make``, and each
    leafset's row map receives its coresets in walk order.
    """
    db = InvertedDatabase(mask_backend=mask_backend)
    make = db.mask_backend.make
    if coreset_positions is None:
        coreset_positions = {
            frozenset([value]): vertices
            for value, vertices in graph.value_positions().items()
        }
    plan = {}
    for coreset, vertices in sorted(
        coreset_positions.items(), key=lambda item: leafset_sort_key(item[0])
    ):
        plan.setdefault(frozenset(coreset), []).extend(sorted(vertices, key=repr))
    row_bits = {}
    for core, members in plan.items():
        for vertex in members:
            values = graph.neighbor_values(vertex)
            if not values:
                continue
            bit = db._vertex_bit.setdefault(vertex, len(db._vertex_ids))
            if bit == len(db._vertex_ids):
                db._vertex_ids.append(vertex)
            for value in values:
                row_bits.setdefault((core, frozenset([value])), set()).add(bit)
    union_bits = {}
    core_to_leaves = {}
    for (core, leaf), bits in row_bits.items():
        db._leaf_rows.setdefault(leaf, {})[core] = (make(sorted(bits)), len(bits))
        db._core_freq[core] = db._core_freq.get(core, 0) + len(bits)
        core_to_leaves.setdefault(core, set()).add(leaf)
        union_bits.setdefault(leaf, set()).update(bits)
    for leaf, bits in union_bits.items():
        db._leaf_union[leaf] = make(sorted(bits))
    db._interner.intern_all(sorted(db._leaf_rows, key=leafset_sort_key))
    db._core_leaf_ids = {
        core: sorted(map(db._interner.intern, leaves))
        for core, leaves in core_to_leaves.items()
    }
    return db


def sorted_rows(db):
    """``(core, leaf, frequency)`` rows sorted by (coreset key, leafset key)."""
    return sorted(
        db.row_items(),
        key=lambda item: (leafset_sort_key(item[0]), leafset_sort_key(item[1])),
    )


@dataclass(frozen=True)
class CoresetMergeStats:
    """Per-coreset statistics of one candidate merge, feeding Eq. 10-15.

    ``fe`` is the coreset frequency before the merge, ``xe``/``ye`` the
    frequencies of the two rows, ``xye`` their co-occurrence
    (position-set intersection size).
    """

    coreset: frozenset
    fe: int
    xe: int
    ye: int
    xye: int

    @property
    def case(self):
        """Which of the paper's three merge cases applies (or 'none')."""
        if self.xye == 0:
            return "none"
        if self.xye == self.xe and self.xye == self.ye:
            return "total"
        if self.xye == self.xe or self.xye == self.ye:
            return "one-total"
        return "partial"


def merge_stats(db, leaf_x, leaf_y):
    """Per common coreset ``(fe, xe, ye, xye)``, without mutating ``db``."""
    masks = db.mask_backend
    rows_x = db.rows_of(leaf_x)
    rows_y = db.rows_of(leaf_y)
    stats = []
    for core in db.common_coresets(leaf_x, leaf_y):
        px = rows_x[core][0]
        py = rows_y[core][0]
        stats.append(
            CoresetMergeStats(
                coreset=core,
                fe=db.coreset_frequency(core),
                xe=masks.popcount(px),
                ye=masks.popcount(py),
                xye=masks.and_count(px, py),
            )
        )
    return stats


def pair_gain(db, leaf_x, leaf_y, standard_table=None, core_table=None):
    """Gain of merging ``leaf_x`` and ``leaf_y`` without mutating ``db``.

    When ``standard_table`` is omitted the model component is 0 (pure
    Eq. 9 gain).  ``core_table`` prices row pointers and the
    ``data_core_gain`` component.
    """
    new_leaf = leaf_x | leaf_y
    p1 = 0.0
    p2 = 0.0
    model_gain = 0.0
    data_core_gain = 0.0
    new_leaf_cost = (
        standard_table.set_cost(new_leaf) if standard_table is not None else 0.0
    )
    for stat in merge_stats(db, leaf_x, leaf_y):
        if stat.xye == 0:
            continue
        fe, xe, ye, xye = stat.fe, stat.xe, stat.ye, stat.xye
        p1 += xlog2x(fe) - xlog2x(fe - xye)
        p2 += (
            xlog2x(xe)
            + xlog2x(ye)
            - (xlog2x(xe - xye) + xlog2x(ye - xye) + xlog2x(xye))
        )
        if standard_table is not None:
            pointer = (
                core_table.code_length(stat.coreset) if core_table is not None else 0.0
            )
            if db.row_frequency(stat.coreset, new_leaf) == 0:
                model_gain -= new_leaf_cost + pointer
            if xye == xe:
                model_gain += standard_table.set_cost(leaf_x) + pointer
            if xye == ye:
                model_gain += standard_table.set_cost(leaf_y) + pointer
        if core_table is not None:
            data_core_gain += xye * core_table.code_length(stat.coreset)
    return GainBreakdown(
        data_leaf_gain=p1 - p2,
        model_gain=model_gain,
        data_core_gain=data_core_gain,
    )
