"""CSPM-Partial: the partial-update optimisation (Algorithm 3 + 4).

Rather than re-enumerating every leafset pair after each merge,
CSPM-Partial maintains a priority queue of positive-gain candidates
and, after a merge, refreshes only the pairs the merge could have
affected.  Seeding is overlap-driven
(:func:`repro.core.pairgen.overlap_pairs`): only pairs sharing a
coreset with overlapping positions are evaluated, since no other pair
can have positive gain, and they are enumerated in the interned-id
order of the paper's full pair scan, so queue tie-breaks are
unchanged.

Two update scopes are provided:

``lazy`` (default used by the facade)
    Refreshes only the pairs a merge can have improved, exploiting
    two monotonicity facts:

    * a pair's gain is a sum of per-coreset terms over its common
      coresets, so a stored gain is *exact* until some common coreset
      is touched by a later merge — per-coreset merge epochs
      (:meth:`~repro.core.inverted_db.InvertedDatabase.core_epoch`)
      make that staleness O(1) per coreset to detect.  A clean pair
      reaching the queue head is merged straight from its stored
      breakdown, skipping the revalidation gain computation entirely;
      merges elsewhere can only *lower* a stored gain (the coreset
      frequency ``fe`` shrinks), so stale stored gains remain sound
      upper bounds and revalidation happens only when a dirty pair
      actually surfaces at the head.
    * a gain can *rise* only for pairs involving a merge participant
      (their rows changed) or pairs whose union's code-table entry
      just materialised, and every gain term requires a non-empty
      positional intersection — so a participant pair whose positions
      are disjoint from the rows the merge touched is provably
      unchanged and its refresh is skipped with one mask AND.

    The result is exactly CSPM-Basic's merge sequence, with
    bit-identical DL accounting — the equivalence suites assert it
    against the naive Algorithm 1-2 oracle in ``tests/oracles.py`` —
    at a fraction of the gain evaluations.

``related`` (the paper's Algorithm 4, literally)
    ``rdict`` maps each leafset to the leafsets it currently forms a
    candidate with.  After merging ``p = (x, y)``: totally merged
    leafsets are dropped, the new leafset is evaluated only against
    ``rdict[x] & rdict[y]``, and pairs involving the partly merged
    survivors are re-evaluated.  This is the cheapest variant but can
    miss pairs whose gain *rises* after a merge (a pair involving a
    survivor that was not a candidate before), so its final model may
    differ slightly from CSPM-Basic's.

The ``related`` scope revalidates every popped pair; ``lazy`` only the
dirty ones.  All canonical ordering (pair orientation, queue
tie-breaks, refresh iteration order) runs on the database's
:class:`~repro.core.candidates.LeafsetInterner` — integer comparisons
instead of the seed's repr-string keys.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.config import UPDATE_SCOPES
from repro.core.candidates import CandidateQueue, LeafsetInterner, Pair
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.gain import GainEngine
from repro.core.instrumentation import IterationTrace, RunTrace, merged_pair_record
from repro.core.inverted_db import InvertedDatabase, MergeOutcome
from repro.core.mdl import description_length
from repro.core.pairgen import overlap_pairs
from repro.errors import MiningError
from repro.obs import current

LeafKey = FrozenSet[Hashable]
GAIN_EPS = 1e-9


class _PartialState:
    """Queue + rdict bookkeeping shared by the update steps."""

    def __init__(self, interner: LeafsetInterner) -> None:
        self.interner = interner
        self.queue = CandidateQueue(interner)
        self.rdict: Dict[LeafKey, Set[LeafKey]] = {}

    def add_candidate(
        self, leaf_x: LeafKey, leaf_y: LeafKey, gain: float, payload=None
    ) -> None:
        self.queue.set(self.interner.canonical_pair(leaf_x, leaf_y), gain, payload)
        self.rdict.setdefault(leaf_x, set()).add(leaf_y)
        self.rdict.setdefault(leaf_y, set()).add(leaf_x)

    def add_candidates(
        self, entries: List[Tuple[LeafKey, LeafKey, float, object]]
    ) -> None:
        """Bulk :meth:`add_candidate`: one queue batch per refresh."""
        rdict = self.rdict
        canonical = self.interner.canonical_pair
        batch = []
        for leaf_x, leaf_y, gain, payload in entries:
            batch.append((canonical(leaf_x, leaf_y), gain, payload))
            rdict.setdefault(leaf_x, set()).add(leaf_y)
            rdict.setdefault(leaf_y, set()).add(leaf_x)
        self.queue.set_many(batch)

    def drop_candidate(self, leaf_x: LeafKey, leaf_y: LeafKey) -> None:
        self.queue.discard(self.interner.canonical_pair(leaf_x, leaf_y))
        self.unlink(leaf_x, leaf_y)
        self.unlink(leaf_y, leaf_x)

    def drop_leafset(self, leaf: LeafKey) -> None:
        """Remove every candidate involving ``leaf`` (Alg. 4, step 1)."""
        for rel in self.rdict.pop(leaf, set()):
            self.queue.discard(self.interner.canonical_pair(leaf, rel))
            self.unlink(rel, leaf)

    def related(self, leaf: LeafKey) -> Set[LeafKey]:
        return set(self.rdict.get(leaf, ()))

    def unlink(self, leaf: LeafKey, rel: LeafKey) -> None:
        bucket = self.rdict.get(leaf)
        if bucket is not None:
            bucket.discard(rel)
            if not bucket:
                del self.rdict[leaf]


def run_partial(
    db: InvertedDatabase,
    standard_table: StandardCodeTable,
    core_table: CoreCodeTable,
    include_model_cost: bool = True,
    max_iterations: Optional[int] = None,
    update_scope: str = "lazy",
    initial_dl_bits: Optional[float] = None,
    recorder=None,
) -> RunTrace:
    """Run CSPM-Partial to convergence, mutating ``db`` in place.

    ``recorder`` (duck-typed, see
    :class:`repro.core.search_shard.ComponentRecorder`) captures every
    queue operation and queue-head decision the run makes, which is
    what lets the component-sharded search replay a worker's run
    through the stitched global queue bit-exactly.  ``None`` (the
    default) records nothing and adds no overhead beyond the ``is
    None`` checks.
    """
    if update_scope not in UPDATE_SCOPES:
        raise MiningError(
            f"update_scope must be one of {UPDATE_SCOPES}, got {update_scope!r}"
        )
    trace = RunTrace(algorithm=f"cspm-partial/{update_scope}")
    if initial_dl_bits is None:
        initial_dl_bits = description_length(db, standard_table, core_table).total_bits
    dl = initial_dl_bits
    trace.initial_dl_bits = dl
    engine = GainEngine(db, standard_table, core_table)
    interner = db.interner
    lazy = update_scope == "lazy"

    def net_gain(leaf_x: LeafKey, leaf_y: LeafKey):
        breakdown = engine.gain(leaf_x, leaf_y)
        return breakdown, breakdown.net(include_model_cost)

    state = _PartialState(interner)
    if recorder is not None:
        state.queue = recorder.make_queue(interner)
    initial_gains = 0
    seed_epoch = db.merge_epoch
    for leaf_x, leaf_y in overlap_pairs(db):
        breakdown, gain = net_gain(leaf_x, leaf_y)
        initial_gains += 1
        if gain > GAIN_EPS:
            state.add_candidate(
                leaf_x,
                leaf_y,
                gain,
                payload=(breakdown, seed_epoch) if lazy else None,
            )
    trace.initial_candidate_gains = initial_gains
    obs = current()

    iteration = 0
    pending_gains = 0
    while max_iterations is None or iteration < max_iterations:
        popped = state.queue.pop_entry()
        if popped is None:
            break
        (leaf_x, leaf_y), stored_gain, payload = popped
        clean = False
        if (
            lazy
            and payload is not None
            and not engine.stale_since(leaf_x, leaf_y, payload[1])
        ):
            # Clean head: no common coreset was merged since this gain
            # was computed, so the stored breakdown is *exact* — and
            # every other entry is at most its stored (upper-bound)
            # gain, so the head is the true maximum.  Merge directly.
            breakdown = payload[0]
            gain = stored_gain
            clean = True
            trace.refreshes_skipped += 1
        else:
            breakdown, gain = net_gain(leaf_x, leaf_y)
            pending_gains += 1
            if lazy:
                trace.dirty_revalidations += 1
            if gain <= GAIN_EPS:
                if recorder is not None:
                    recorder.on_drop(leaf_x, leaf_y)
                state.drop_candidate(leaf_x, leaf_y)
                continue
            # Revalidation: merge the popped pair only while it is still the
            # exact maximum under the queue's (gain, pair-key) order.  Stored
            # gains are upper bounds (merges elsewhere only shrink ``fe``),
            # so if the fresh gain fell below the next stored gain — or ties
            # it with a larger pair key — push the fresh value back and let
            # the true maximum surface.  The strict comparison (no epsilon
            # slack) is what keeps the lazy scope's merge sequence
            # identical to CSPM-Basic's even when candidates tie.
            next_best = state.queue.peek()
            if next_best is not None:
                next_pair, next_gain = next_best
                pair = interner.canonical_pair(leaf_x, leaf_y)
                if gain < next_gain or (
                    gain == next_gain
                    and interner.pair_key(pair) > interner.pair_key(next_pair)
                ):
                    if recorder is not None:
                        recorder.on_push(leaf_x, leaf_y)
                    state.queue.set(
                        pair,
                        gain,
                        (breakdown, db.merge_epoch) if lazy else None,
                    )
                    continue

        if recorder is not None:
            recorder.on_merge(leaf_x, leaf_y, gain, breakdown, clean)
        num_leafsets = db.num_leafsets
        possible = num_leafsets * (num_leafsets - 1) // 2
        related_x = state.related(leaf_x)
        related_y = state.related(leaf_y)
        outcome = db.merge(leaf_x, leaf_y)
        dl -= breakdown.total
        trace.record_merge_components(breakdown)
        iteration += 1
        state.unlink(leaf_x, leaf_y)
        state.unlink(leaf_y, leaf_x)

        gains_computed = pending_gains
        pending_gains = 0
        engine.drop_views(outcome.removed_leafsets)
        for leaf in outcome.removed_leafsets:
            state.drop_leafset(leaf)
        if update_scope == "related":
            refresh_gains = _update_related(
                db, state, outcome, related_x, related_y, net_gain
            )
        else:
            refresh_gains = _update_lazy(db, state, outcome, net_gain, trace)
        gains_computed += refresh_gains
        if recorder is not None:
            recorder.on_refresh_gains(refresh_gains)

        trace.iterations.append(
            IterationTrace(
                iteration=iteration,
                gains_computed=gains_computed,
                possible_pairs=possible,
                num_leafsets=num_leafsets,
                merged_pair=merged_pair_record(leaf_x, leaf_y),
                gain=gain,
                total_dl_bits=dl,
            )
        )
        obs.progress.heartbeat(
            "search", merges=iteration, queue=len(state.queue)
        )
    trace.final_dl_bits = dl
    trace.peak_queue_size = state.queue.peak_size
    if obs.metrics.enabled:
        for stat, size in engine.cache_stats().items():
            obs.metrics.gauge("gain.cache_size").set_max(size, cache=stat)
    return trace


def _update_related(
    db: InvertedDatabase,
    state: _PartialState,
    outcome: MergeOutcome,
    related_x: Set[LeafKey],
    related_y: Set[LeafKey],
    net_gain,
) -> int:
    """Algorithm 4 literally: rdict-scoped updates.  Returns #gains."""
    gains = 0
    interner = state.interner
    new_leaf = outcome.new_leafset
    # (2) Add pairs with the new leafset, scoped to rdict[x] & rdict[y].
    if db.has_leafset(new_leaf):
        for rel in interner.order(related_x & related_y):
            if rel == new_leaf or not db.has_leafset(rel):
                continue
            _breakdown, gain = net_gain(rel, new_leaf)
            gains += 1
            if gain > GAIN_EPS:
                state.add_candidate(rel, new_leaf, gain)
    # (3) Update influenced pairs of the partly merged survivors.
    refreshed = set()
    for leaf in interner.order(outcome.partly_merged_leafsets):
        for rel in interner.order(state.related(leaf)):
            pair = interner.canonical_pair(leaf, rel)
            if pair in refreshed:
                continue
            refreshed.add(pair)
            _breakdown, gain = net_gain(leaf, rel)
            gains += 1
            if gain > GAIN_EPS:
                state.queue.set(pair, gain)
            else:
                state.drop_candidate(leaf, rel)
    return gains


def _refresh_pool(db: InvertedDatabase, outcome: MergeOutcome):
    """The merge's focus leafsets and touched-coreset neighbourhood."""
    focus = set(outcome.partly_merged_leafsets)
    if db.has_leafset(outcome.new_leafset):
        focus.add(outcome.new_leafset)
    rel_pool: Set[LeafKey] = set()
    for core in outcome.touched_coresets:
        rel_pool |= db.leafsets_of(core)
    return focus, rel_pool


def _subset_union_pairs(
    interner: LeafsetInterner, rel_pool: Set[LeafKey], focus, new_leaf: LeafKey
):
    """Pairs of strict subsets of ``new_leaf`` whose union equals it.

    The union's code-table entry now exists, so their model cost
    dropped and their gain may have turned positive.  The pool is
    bounded to the touched-coreset neighbourhood: the model term only
    changes under a common coreset where the ``new_leaf`` row appeared
    — a touched coreset — so both endpoints of an affected pair must
    live under one.
    """
    subsets = interner.order(
        leaf for leaf in rel_pool if leaf < new_leaf and leaf not in focus
    )
    for i, leaf in enumerate(subsets):
        for rel in subsets[i + 1 :]:
            if (leaf | rel) == new_leaf:
                yield leaf, rel


def _update_lazy(
    db: InvertedDatabase,
    state: _PartialState,
    outcome: MergeOutcome,
    net_gain,
    trace: RunTrace,
) -> int:
    """The bound-driven refresh: recompute only pairs that can rise.

    Walks the merge's neighbourhood (:func:`_refresh_pool`: the focus
    leafsets against every leafset under a touched coreset, plus the
    subset-union pairs) but skips the pairs whose gain provably did not
    change for the better.
    The union-level tests are answered in bulk (one
    :meth:`~repro.core.masks.base.MaskBackend.overlaps_many` call per
    focus leafset over all its untested partners), survivors face a
    per-coreset confirmation, and queue insertions are applied as one
    batch per focus leafset:

    * current union masks disjoint — every per-coreset intersection is
      empty, the gain is exactly zero; a queued entry is dropped.
    * the related leafset's positions are disjoint from the rows the
      merge touched (:attr:`MergeOutcome.touched_row_unions`) — every
      gain term that existed before the merge still has the same
      per-coreset state, so the gain is unchanged; a queued entry keeps
      its stored value (still a sound upper bound from its own
      validation epoch), an absent pair stays provably non-positive.
    * the per-coreset refinement of the same test
      (:attr:`MergeOutcome.touched_core_rows`): every gain term is
      gated on a non-empty *same-coreset* intersection, so a pair whose
      partner rows are disjoint from the focus leafset's role rows at
      every touched coreset is unchanged even when the whole-union
      masks collide across coresets (each vertex keeps one global bit,
      so the union test conflates coresets).

    Pairs not involving a merge participant are never refreshed at all:
    their gain can only fall (only ``fe`` shrank), so their stored
    gains remain upper bounds and the queue-head revalidation in
    :func:`run_partial` settles them if they ever surface.  Returns the
    number of gain computations; every skip — union-level or
    per-coreset — is counted on ``trace``.
    """
    gains = 0
    interner = state.interner
    new_leaf = outcome.new_leafset
    epoch = db.merge_epoch
    union_of = db.leaf_union_mask
    backend = db.mask_backend
    overlaps = backend.union_overlaps
    overlaps_many = backend.overlaps_many
    row_of = db.row_mask
    touched_unions = outcome.touched_row_unions
    touched_rows = outcome.touched_core_rows
    focus, rel_pool = _refresh_pool(db, outcome)
    rel_ordered = interner.order(rel_pool)
    queue = state.queue
    refreshed = set()
    for leaf in interner.order(focus):
        if not db.has_leafset(leaf):
            continue
        touched_mask = touched_unions.get(leaf)
        role_rows = touched_rows.get(leaf, ())
        leaf_union = union_of(leaf)
        # Gather this focus leafset's untested partners, then answer
        # both union-level skip tests for the whole batch at once.
        rels: List[LeafKey] = []
        pairs: List[Pair] = []
        for rel in rel_ordered:
            if rel == leaf or not db.has_leafset(rel):
                continue
            pair = interner.canonical_pair(leaf, rel)
            if pair in refreshed:
                continue
            refreshed.add(pair)
            rels.append(rel)
            pairs.append(pair)
        if not rels:
            continue
        rel_unions = [union_of(rel) for rel in rels]
        alive = overlaps_many(leaf_union, rel_unions)
        touched = (
            overlaps_many(touched_mask, rel_unions)
            if touched_mask is not None
            else None
        )
        additions: List[Tuple[LeafKey, LeafKey, float, object]] = []
        for index, rel in enumerate(rels):
            if not alive[index]:
                if pairs[index] in queue:
                    state.drop_candidate(leaf, rel)
                trace.refreshes_skipped += 1
                continue
            if touched is None or not touched[index]:
                trace.refreshes_skipped += 1
                continue
            for core, role_mask in role_rows:
                rel_row = row_of(core, rel)
                if rel_row is not None and overlaps(role_mask, rel_row):
                    break
            else:
                trace.refreshes_skipped += 1
                continue
            breakdown, gain = net_gain(leaf, rel)
            gains += 1
            if gain > GAIN_EPS:
                additions.append((leaf, rel, gain, (breakdown, epoch)))
            elif pairs[index] in queue:
                state.drop_candidate(leaf, rel)
        if additions:
            state.add_candidates(additions)
    if db.has_leafset(new_leaf):
        for leaf, rel in _subset_union_pairs(interner, rel_pool, focus, new_leaf):
            pair = interner.canonical_pair(leaf, rel)
            if pair in refreshed:
                continue
            refreshed.add(pair)
            if not overlaps(union_of(leaf), union_of(rel)):
                if pair in queue:
                    state.drop_candidate(leaf, rel)
                trace.refreshes_skipped += 1
                continue
            breakdown, gain = net_gain(leaf, rel)
            gains += 1
            if gain > GAIN_EPS:
                state.add_candidate(leaf, rel, gain, payload=(breakdown, epoch))
            elif pair in queue:
                state.drop_candidate(leaf, rel)
    return gains
