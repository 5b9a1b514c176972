"""Overlap-driven candidate pair generation (the Section V observation).

Only leafset pairs whose position sets overlap under a common coreset
can ever have a positive merge gain: the gain formulas (Eq. 9-15) sum
over common coresets with non-empty position intersections, and every
component vanishes when there are none.  The seed nevertheless seeded
both search variants with the full ``O(|SL|^2)`` pair scan and relied
on the gain engine to short-circuit the disjoint pairs — paying a gain
*evaluation* per pair either way.

This module turns the observation into the generator itself.  Two
enumeration strategies produce the identical candidate set:

* **adjacency walk** — enumerate pairs from the per-coreset sorted
  leafset-id lists that :class:`~repro.core.inverted_db.InvertedDatabase`
  maintains incrementally across merges, deduplicating via packed
  integer pair keys, then drop pairs whose leaf-union masks are
  disjoint.  Cost ``~sum_coreset deg(coreset)^2``.
* **mask sweep** — test every leafset pair with a single AND of the
  leaf-union masks.  Cost ``O(|SL|^2)`` cheap word ops.

The two are equivalent because for databases built by
``InvertedDatabase.from_graph`` the per-vertex cover is identical
across every coreset present at a vertex (initial rows list the whole
neighbourhood for each coreset, and a merge moves a vertex in all of
its coresets simultaneously).  Hence overlapping *union* masks at some
vertex ``v`` imply both leafsets have rows containing ``v`` under each
coreset of ``v`` — a common coreset with positionally overlapping rows
— while the converse is immediate.  :func:`overlap_pairs` picks
whichever strategy is cheaper for the current adjacency (sparse
many-community graphs -> walk; small dense value universes -> sweep),
so generation cost is ``~min(sum deg^2, |SL|^2)``.

Pairs are returned in ascending interned-id order, the exact order
:func:`repro.core.candidates.enumerate_pairs` yields under the same
interner, so greedy tie-breaking is identical to the full scan — the
randomized equivalence tests in ``tests/test_pairgen.py`` assert
merge-sequence and DL bit-exactness of both search variants against
the naive full-scan oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List

from repro.core.candidates import Pair

LeafKey = FrozenSet[Hashable]


def overlap_pairs(db) -> List[Pair]:
    """Candidate pairs that can have positive gain, in canonical order.

    Every returned pair shares at least one coreset with overlapping
    positions; every omitted pair provably has zero data gain.  The
    result is sorted by ``(id_x, id_y)`` — the same total order the
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

    out: List[Pair] = []
    if sparse_cost >= dense_cost:
        # Mask sweep: the adjacency holds no sparsity to exploit.
        ordered = sorted((interner.intern(leaf), leaf) for leaf in leafsets)
        masks = [union_of(leaf) for _id, leaf in ordered]
        for i in range(n - 1):
            mask_i = masks[i]
            leaf_i = ordered[i][1]
            for j in range(i + 1, n):
                if overlaps(mask_i, masks[j]):
                    out.append((leaf_i, ordered[j][1]))
        return out

    # Adjacency walk over the incrementally-maintained per-coreset
    # sorted id lists, deduplicating via packed (id_x, id_y) ints.
    shift = len(interner).bit_length()
    seen = set()
    add = seen.add
    for ids in index.values():
        if len(ids) < 2:
            continue
        for i, id_x in enumerate(ids):
            base = id_x << shift
            for id_y in ids[i + 1 :]:
                add(base | id_y)
    mask_of_id = {}
    low = (1 << shift) - 1
    for key in sorted(seen):
        id_x = key >> shift
        id_y = key & low
        mask_x = mask_of_id.get(id_x)
        if mask_x is None:
            mask_x = mask_of_id[id_x] = union_of(leaf_of(id_x))
        mask_y = mask_of_id.get(id_y)
        if mask_y is None:
            mask_y = mask_of_id[id_y] = union_of(leaf_of(id_y))
        if overlaps(mask_x, mask_y):
            out.append((leaf_of(id_x), leaf_of(id_y)))
    return out

