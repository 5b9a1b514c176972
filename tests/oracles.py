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
"""

from repro.core.candidates import leafset_sort_key
from repro.core.cspm_basic import run_basic as naive_search
from repro.core.inverted_db import InvertedDatabase

__all__ = ["naive_search", "outcome", "sorted_rows", "triples_database"]


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
