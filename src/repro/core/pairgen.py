"""Overlap-driven candidate pair generation (the Section V observation).

Only leafset pairs whose position sets overlap under a common coreset
can ever have a positive merge gain: the gain formulas (Eq. 9-15) sum
over common coresets with non-empty position intersections, and every
component vanishes when there are none.  CSPM-Basic, the paper's
baseline, scans all ``O(|SL|^2)`` pairs anyway and pays a gain
*evaluation* per pair; CSPM-Partial seeds its queue from this module
instead.

This module turns the observation into the generator itself.  Two
enumeration strategies produce the identical candidate set:

* **adjacency walk** — enumerate pairs from the per-coreset sorted
  leafset-id lists that :class:`~repro.core.inverted_db.InvertedDatabase`
  maintains incrementally across merges, deduplicating on packed pair
  keys (:func:`repro.core.candidates.pack`), then drop pairs whose
  leaf-union masks are disjoint.  Cost ``~sum_coreset deg(coreset)^2``.
* **mask sweep** — test every leafset pair with a single AND of the
  leaf-union masks.  Cost ``O(|SL|^2)`` cheap word ops.

The two are equivalent by the cover invariant of
:mod:`repro.core.inverted_db` (at a vertex, the leafsets whose rows
contain it are the same under every coreset present there): union
masks overlapping at some vertex ``v`` imply both leafsets have rows
containing ``v`` under each coreset of ``v`` — a common coreset with
positionally overlapping rows — while the converse is immediate.
:func:`overlap_pairs` picks whichever strategy is cheaper for the
current adjacency (sparse many-community graphs -> walk; small dense
value universes -> sweep), so generation cost is
``~min(sum deg^2, |SL|^2)``.

Pairs are returned as ascending packed keys, the exact order
:func:`repro.core.candidates.enumerate_pairs` yields under the same
interner, so greedy tie-breaking is identical to the full scan — the
randomized equivalence tests in ``tests/test_pairgen.py`` assert
CSPM-Partial's merge sequence and DL floats bit-exact against
CSPM-Basic's full scan.
"""

from __future__ import annotations

from typing import List

from repro.core.candidates import PAIR_SHIFT, unpack


def overlap_pairs(db) -> List[int]:
    """Packed keys of the pairs that can have positive gain, ascending.

    Every returned pair shares at least one coreset with overlapping
    positions; every omitted pair provably has zero data gain.  Packed
    keys sort like ``(id_x, id_y)`` — the same total order the
    interner-driven full scan uses — so downstream first-strictly-better
    selection breaks ties identically to ``enumerate_pairs``.
    """
    interner = db.interner
    union_of = db.leaf_union_mask
    overlaps = db.mask_backend.union_overlaps
    leaf_of = interner.leafset_of

    leafsets = db.leafsets()
    n = len(leafsets)
    if n < 2:
        return []
    dense_cost = n * (n - 1) // 2
    index = db.coreset_leaf_ids()
    sparse_cost = sum(
        len(ids) * (len(ids) - 1) // 2 for ids in index.values() if len(ids) > 1
    )

    out: List[int] = []
    if sparse_cost >= dense_cost:
        # Mask sweep: the adjacency holds no sparsity to exploit.
        id_of = interner.ids
        ordered = sorted(id_of[leaf] for leaf in leafsets)
        masks = [union_of(leaf_of(leaf_id)) for leaf_id in ordered]
        for i in range(n - 1):
            mask_i = masks[i]
            base = ordered[i] << PAIR_SHIFT
            for j in range(i + 1, n):
                if overlaps(mask_i, masks[j]):
                    out.append(base | ordered[j])
        return out

    # Adjacency walk over the incrementally-maintained per-coreset
    # sorted id lists, deduplicating on packed keys.
    seen = set()
    add = seen.add
    for ids in index.values():
        if len(ids) < 2:
            continue
        for i, id_x in enumerate(ids):
            base = id_x << PAIR_SHIFT
            for id_y in ids[i + 1 :]:
                add(base | id_y)
    mask_of_id = {}
    for key in sorted(seen):
        id_x, id_y = unpack(key)
        mask_x = mask_of_id.get(id_x)
        if mask_x is None:
            mask_x = mask_of_id[id_x] = union_of(leaf_of(id_x))
        mask_y = mask_of_id.get(id_y)
        if mask_y is None:
            mask_y = mask_of_id[id_y] = union_of(leaf_of(id_y))
        if overlaps(mask_x, mask_y):
            out.append(key)
    return out
