"""CSPM-Basic: the unoptimised greedy search (Algorithm 1 + 2).

Each iteration recomputes candidate gains, merges the best positive
pair, and repeats until no pair compresses the database further.  This
is deliberately the paper's baseline search loop: its per-iteration
cost is one gain computation per candidate pair, which is what
Table III and Fig. 5 measure against CSPM-Partial.

Candidate generation is overlap-driven
(:func:`repro.core.pairgen.overlap_pairs`): only pairs sharing a
coreset with overlapping positions are generated, since no other pair
can have positive gain.  They are enumerated in the interned-id order
of the paper's quadratic ``O(|SL|^2)`` all-pairs scan, so the merge
sequence (including tie-breaks) is the one the naive Algorithm 1-2
oracle in ``tests/oracles.py`` selects — the equivalence tests assert
it.

Rescan restriction
------------------
The paper re-scans *every* candidate pair each iteration.  A merge
only changes state at its touched coresets (the common coresets with a
non-empty positional intersection): only those coresets' rows and
frequencies move, and every gain term requires a non-empty same-coreset
intersection, so a pair's gain can change **iff both its leafsets hold
rows under some touched coreset**.  The search therefore keeps a store
of exact positive gains, re-evaluates only the pairs inside the touched
coresets' memberships (plus the merge's surviving participants) after
each merge, and selects the winner from the store with the same (max
gain, earliest interned pair) tie-break as the full enumeration —
merges, DL accounting and snapshots are bit-exact with the naive
oracle, while per-iteration ``gains_computed`` drops from *all*
candidates to the touched neighbourhood.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.candidates import LeafKey, Pair
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.gain import GainBreakdown, GainEngine
from repro.core.instrumentation import IterationTrace, RunTrace, merged_pair_record
from repro.core.inverted_db import InvertedDatabase, MergeOutcome
from repro.core.mdl import description_length
from repro.core.pairgen import overlap_pairs

GAIN_EPS = 1e-9

_StoreEntry = Tuple[float, GainBreakdown]


class _GainStore:
    """Exact positive gains of all live candidate pairs.

    A plain dict keyed by canonical pair plus a per-leafset index so
    pairs of a removed leafset can be purged without a full sweep.
    Every entry is exact (recomputed whenever it could have changed),
    so the winner scan reproduces the full enumeration's strictly-
    greater-in-ascending-order selection via the (max gain, smallest
    interned pair key) tie-break.
    """

    __slots__ = ("_entries", "_by_leaf", "_pair_key")

    def __init__(self, pair_key) -> None:
        self._entries: Dict[Pair, _StoreEntry] = {}
        self._by_leaf: Dict[LeafKey, Set[Pair]] = {}
        self._pair_key = pair_key

    def set(self, pair: Pair, gain: float, breakdown: GainBreakdown) -> None:
        if pair not in self._entries:
            self._by_leaf.setdefault(pair[0], set()).add(pair)
            self._by_leaf.setdefault(pair[1], set()).add(pair)
        self._entries[pair] = (gain, breakdown)

    def discard(self, pair: Pair) -> None:
        if self._entries.pop(pair, None) is None:
            return
        for leaf in pair:
            bucket = self._by_leaf.get(leaf)
            if bucket is not None:
                bucket.discard(pair)
                if not bucket:
                    del self._by_leaf[leaf]

    def purge_leafset(self, leaf: LeafKey) -> None:
        """Drop every pair involving ``leaf`` (it left the database)."""
        bucket = self._by_leaf.get(leaf)
        if bucket is None:
            return
        for pair in sorted(bucket, key=self._pair_key):
            self.discard(pair)

    def best(self) -> Optional[Tuple[Pair, float, GainBreakdown]]:
        """The (pair, gain, breakdown) winner, or ``None`` when empty.

        Maximum gain; ties resolved towards the smallest interned pair
        key — the pair the ascending enumeration would have seen first,
        which the seed's strict ``>`` comparison kept.
        """
        pair_key = self._pair_key
        best_pair = None
        best_gain = GAIN_EPS
        best_entry = None
        best_key = None
        for pair, entry in self._entries.items():
            gain = entry[0]
            if gain > best_gain:
                best_pair, best_gain, best_entry = pair, gain, entry
                best_key = pair_key(pair)
            elif gain == best_gain and best_pair is not None:
                key = pair_key(pair)
                if key < best_key:
                    best_pair, best_entry, best_key = pair, entry, key
        if best_pair is None:
            return None
        return best_pair, best_gain, best_entry[1]


def _rescan_pairs(db: InvertedDatabase, outcome: MergeOutcome) -> List[Pair]:
    """The pairs whose gain the last merge could have changed.

    For each touched coreset, all pairs within its current membership
    plus the merge's surviving participants (a survivor may have left a
    coreset's membership when its row there was fully absorbed, yet its
    pairs against the remaining members changed).  Non-participant
    memberships are untouched, so current membership plus the survivors
    reconstructs the pre-merge membership exactly; any pair outside
    every touched coreset has a zero per-coreset intersection at every
    coreset that moved, hence a bit-identical gain.
    """
    interner = db.interner
    survivors = [
        leaf for leaf in (outcome.leaf_x, outcome.leaf_y) if db.has_leafset(leaf)
    ]
    pairs: Set[Pair] = set()
    for core in outcome.touched_coresets:
        pool = set(db.leafsets_of(core))
        pool.update(survivors)
        ordered = interner.order(pool)
        for index, leaf_a in enumerate(ordered):
            for leaf_b in ordered[index + 1 :]:
                pairs.add((leaf_a, leaf_b))
    return sorted(pairs, key=interner.pair_key)


def _rescan_store(
    db: InvertedDatabase,
    engine: GainEngine,
    include_model_cost: bool,
    outcome: MergeOutcome,
    store: "_GainStore",
) -> int:
    """Re-evaluate the touched neighbourhood of ``outcome`` into ``store``.

    Each candidate pair from :func:`_rescan_pairs` passes two exact
    prefilters before paying for a gain computation:

    * disjoint union masks — the gain is provably zero (the same test
      :func:`repro.core.pairgen.overlap_pairs` generates by), so a
      stored entry is dropped without recomputing;
    * no touched coreset where both leafsets' rows positionally
      intersect — every gain term that exists is at a coreset the
      merge did not move, so the stored gain is still exact and the
      pair is skipped outright.  Survivors are tested against their
      *pre-merge* rows (:attr:`MergeOutcome.touched_core_rows`) so a
      term the merge erased still counts as a change.

    Returns the number of gain computations performed.
    """
    backend = db.mask_backend
    overlaps = backend.union_overlaps
    union_of = db.leaf_union_mask
    row_of = db.row_mask
    touched = outcome.touched_coresets
    role_rows = {leaf: dict(rows) for leaf, rows in outcome.touched_core_rows.items()}
    gains = 0
    for pair in _rescan_pairs(db, outcome):
        leaf_a, leaf_b = pair
        if not overlaps(union_of(leaf_a), union_of(leaf_b)):
            store.discard(pair)
            continue
        rows_a = role_rows.get(leaf_a)
        rows_b = role_rows.get(leaf_b)
        for core in touched:
            row_a = rows_a.get(core) if rows_a is not None else row_of(core, leaf_a)
            if row_a is None:
                continue
            row_b = rows_b.get(core) if rows_b is not None else row_of(core, leaf_b)
            if row_b is not None and overlaps(row_a, row_b):
                break
        else:
            continue
        breakdown = engine.gain(leaf_a, leaf_b)
        gains += 1
        gain = breakdown.net(include_model_cost)
        if gain > GAIN_EPS:
            store.set(pair, gain, breakdown)
        else:
            store.discard(pair)
    return gains


def run_basic(
    db: InvertedDatabase,
    standard_table: StandardCodeTable,
    core_table: CoreCodeTable,
    include_model_cost: bool = True,
    max_iterations: Optional[int] = None,
    initial_dl_bits: Optional[float] = None,
) -> RunTrace:
    """Run CSPM-Basic to convergence, mutating ``db`` in place.

    ``initial_dl_bits`` may carry an already-computed starting
    description length to skip the from-scratch pass over the fresh
    database.  The first iteration evaluates every overlapping pair;
    each later one re-evaluates only the touched-coreset neighbourhood
    of the last merge (see the module docstring).  Returns the
    :class:`RunTrace` with one entry per accepted merge.
    """
    trace = RunTrace(algorithm="cspm-basic")
    if initial_dl_bits is None:
        initial_dl_bits = description_length(db, standard_table, core_table).total_bits
    dl = initial_dl_bits
    trace.initial_dl_bits = dl
    engine = GainEngine(db, standard_table, core_table)
    store = _GainStore(db.interner.pair_key)
    outcome: Optional[MergeOutcome] = None
    iteration = 0
    while max_iterations is None or iteration < max_iterations:
        n = db.num_leafsets
        possible = n * (n - 1) // 2
        gains_computed = 0
        if outcome is None:
            # First iteration: seed the store from every overlapping
            # pair — every later iteration only re-touches the merged
            # neighbourhood.
            for leaf_x, leaf_y in overlap_pairs(db):
                breakdown = engine.gain(leaf_x, leaf_y)
                gains_computed += 1
                gain = breakdown.net(include_model_cost)
                if gain > GAIN_EPS:
                    store.set((leaf_x, leaf_y), gain, breakdown)
            trace.initial_candidate_gains = gains_computed
        else:
            gains_computed = _rescan_store(
                db, engine, include_model_cost, outcome, store
            )
        winner = store.best()
        if winner is None:
            break
        best_pair, best_gain, best_breakdown = winner
        outcome = db.merge(*best_pair)
        engine.drop_views(outcome.removed_leafsets)
        store.discard(db.interner.canonical_pair(*best_pair))
        for leaf in db.interner.order(outcome.removed_leafsets):
            store.purge_leafset(leaf)
        dl -= best_breakdown.total
        trace.record_merge_components(best_breakdown)
        iteration += 1
        trace.iterations.append(
            IterationTrace(
                iteration=iteration,
                gains_computed=gains_computed,
                possible_pairs=possible,
                num_leafsets=n,
                merged_pair=merged_pair_record(*best_pair),
                gain=best_gain,
                total_dl_bits=dl,
            )
        )
    trace.final_dl_bits = dl
    return trace
