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
      unchanged and its refresh is skipped with one mask AND per
      touched coreset.

    The result is exactly CSPM-Basic's merge sequence, with
    bit-identical DL accounting — the equivalence suites assert it
    against Basic, the Algorithm 1-2 oracle ``tests/oracles.py``
    re-exports — at a fraction of the gain evaluations.

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
dirty ones.  Both run on interned leafset ids: the queue and the
refresh sets are keyed by packed pair keys
(:func:`~repro.core.candidates.pack`), which order like ``(id_x,
id_y)`` tuples, ``rdict`` maps ids to id sets, and leafsets are looked
up by id only to evaluate a gain or merge rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.config import UPDATE_SCOPES
from repro.core.candidates import CandidateQueue, LeafKey, pack, unpack
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.gain import GAIN_EPS, GainEngine
from repro.core.instrumentation import IterationTrace, RunTrace, merged_pair_record
from repro.core.inverted_db import InvertedDatabase, MergeOutcome
from repro.core.mdl import description_length
from repro.core.pairgen import overlap_pairs
from repro.errors import MiningError
from repro.obs import current

class _PartialState:
    """Queue + rdict bookkeeping shared by the update steps.

    The queue is keyed by packed pair keys, ``rdict`` maps a leafset id
    to the ids it currently forms a candidate with.
    """

    def __init__(self) -> None:
        self.queue = CandidateQueue()
        self.rdict: Dict[int, Set[int]] = {}

    def add_candidate(self, key: int, gain: float, payload=None) -> None:
        self.add_candidates([(key, gain, payload)])

    def add_candidates(self, entries: List[Tuple[int, float, object]]) -> None:
        """Queue ``(key, gain, payload)`` entries as one batch and link
        their ids in ``rdict``."""
        rdict = self.rdict
        for key, _gain, _payload in entries:
            id_x, id_y = unpack(key)
            rdict.setdefault(id_x, set()).add(id_y)
            rdict.setdefault(id_y, set()).add(id_x)
        self.queue.set_many(entries)

    def drop_candidate(self, key: int) -> None:
        self.queue.discard(key)
        id_x, id_y = unpack(key)
        self.unlink(id_x, id_y)
        self.unlink(id_y, id_x)

    def drop_leafset(self, leaf_id: int) -> None:
        """Remove every candidate involving ``leaf_id`` (Alg. 4, step 1)."""
        for rel in self.rdict.pop(leaf_id, ()):
            self.queue.discard(pack(leaf_id, rel))
            self.unlink(rel, leaf_id)

    def unlink(self, leaf_id: int, rel: int) -> None:
        bucket = self.rdict.get(leaf_id)
        if bucket is not None:
            bucket.discard(rel)
            if not bucket:
                del self.rdict[leaf_id]


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
    :class:`repro.core.search_shard.ComponentRecorder`) watches the
    queue and is told every queue-head decision the run makes (by the
    pair's ids), with the popped entry's stored gain, each merge's
    breakdown and its refresh-pass gain count — what lets the
    component-sharded search interleave a worker's run with the other
    components' bit-exactly.
    ``None`` (the default) records nothing and adds no overhead beyond
    the ``is None`` checks.
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
    leafset_of = db.interner.leafset_of
    lazy = update_scope == "lazy"

    def net_gain(leaf_x: LeafKey, leaf_y: LeafKey):
        breakdown = engine.gain(leaf_x, leaf_y)
        return breakdown, breakdown.net(include_model_cost)

    state = _PartialState()
    if recorder is not None:
        recorder.attach(state.queue)
    seed_epoch = db.merge_epoch
    pairs = overlap_pairs(db)
    seeds: List[Tuple[int, float, object]] = []
    for key in pairs:
        id_x, id_y = unpack(key)
        breakdown, gain = net_gain(leafset_of(id_x), leafset_of(id_y))
        if gain > GAIN_EPS:
            seeds.append((key, gain, (breakdown, seed_epoch) if lazy else None))
    state.add_candidates(seeds)
    trace.initial_candidate_gains = len(pairs)
    obs = current()

    iteration = 0
    pending_gains = 0
    while max_iterations is None or iteration < max_iterations:
        popped = state.queue.pop_entry()
        if popped is None:
            break
        key, stored_gain, payload = popped
        id_x, id_y = unpack(key)
        leaf_x = leafset_of(id_x)
        leaf_y = leafset_of(id_y)
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
                    recorder.on_drop(id_x, id_y, stored_gain)
                state.drop_candidate(key)
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
                next_key, next_gain = next_best
                if gain < next_gain or (gain == next_gain and key > next_key):
                    if recorder is not None:
                        recorder.on_push(id_x, id_y, stored_gain)
                    state.queue.set(
                        key,
                        gain,
                        (breakdown, db.merge_epoch) if lazy else None,
                    )
                    continue

        if recorder is not None:
            recorder.on_merge(id_x, id_y, stored_gain, gain, breakdown, clean)
        num_leafsets = db.num_leafsets
        possible = num_leafsets * (num_leafsets - 1) // 2
        # Alg. 4 scopes the new leafset's pairs to rdict[x] & rdict[y],
        # read before the merge rewires rdict.
        shared = None
        if not lazy:
            rdict = state.rdict
            shared = rdict.get(id_x, set()) & rdict.get(id_y, set())
        outcome = db.merge(leaf_x, leaf_y)
        dl -= breakdown.total
        trace.record_merge_components(breakdown)
        iteration += 1
        state.drop_candidate(key)

        gains_computed = pending_gains
        pending_gains = 0
        for leaf in outcome.removed_leafsets:
            state.drop_leafset(id_x if leaf == leaf_x else id_y)
        if lazy:
            refresh_gains = _update_lazy(db, state, outcome, net_gain, trace)
        else:
            refresh_gains = _update_related(db, state, outcome, shared, net_gain)
        gains_computed += refresh_gains
        if recorder is not None:
            recorder.on_refresh(refresh_gains, db.num_leafsets)

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
    shared: Set[int],
    net_gain,
) -> int:
    """Algorithm 4 literally: rdict-scoped updates.  Returns #gains.

    ``shared`` is the merged pair's ``rdict[x] & rdict[y]``."""
    gains = 0
    ids = db.interner.ids
    leafset_of = db.interner.leafset_of
    new_leaf = outcome.new_leafset
    # (2) Add pairs with the new leafset, scoped to rdict[x] & rdict[y].
    if db.has_leafset(new_leaf):
        new_id = ids[new_leaf]
        for rel in sorted(shared):
            rel_leaf = leafset_of(rel)
            if rel == new_id or not db.has_leafset(rel_leaf):
                continue
            _breakdown, gain = net_gain(rel_leaf, new_leaf)
            gains += 1
            if gain > GAIN_EPS:
                state.add_candidate(pack(rel, new_id), gain)
    # (3) Update influenced pairs of the partly merged survivors.
    refreshed = set()
    for leaf_id in sorted(ids[leaf] for leaf in outcome.partly_merged_leafsets):
        for rel in sorted(state.rdict.get(leaf_id, ())):
            key = pack(leaf_id, rel)
            if key in refreshed:
                continue
            refreshed.add(key)
            _breakdown, gain = net_gain(leafset_of(leaf_id), leafset_of(rel))
            gains += 1
            if gain > GAIN_EPS:
                state.queue.set(key, gain)
            else:
                state.drop_candidate(key)
    return gains


def _subset_union_pairs(
    leafset_of, rel_ids: List[int], focus: Set[int], new_leaf: LeafKey
):
    """Id pairs of strict subsets of ``new_leaf`` whose union equals it.

    The union's code-table entry now exists, so their model cost
    dropped and their gain may have turned positive.  The pool is
    bounded to the touched-coreset neighbourhood: the model term only
    changes under a common coreset where the ``new_leaf`` row appeared
    — a touched coreset — so both endpoints of an affected pair must
    live under one.  No endpoint is a focus leafset.
    """
    subsets = [
        rel for rel in rel_ids if rel not in focus and leafset_of(rel) < new_leaf
    ]
    for i, leaf_id in enumerate(subsets):
        leaf = leafset_of(leaf_id)
        for rel in subsets[i + 1 :]:
            if (leaf | leafset_of(rel)) == new_leaf:
                yield leaf_id, rel


def _update_lazy(
    db: InvertedDatabase,
    state: _PartialState,
    outcome: MergeOutcome,
    net_gain,
    trace: RunTrace,
) -> int:
    """The bound-driven refresh: recompute only pairs that can rise.

    Walks the merge's neighbourhood (the focus leafsets — the surviving
    participants and the new leafset — against every leafset under a
    touched coreset, plus the subset-union pairs) but skips the pairs
    whose gain provably did not change for the better.
    Each of a focus leafset's untested partners faces the union test,
    survivors face the touched test, and queue insertions are applied
    as one batch per focus leafset:

    * current union masks disjoint — every per-coreset intersection is
      empty, the gain is exactly zero; a queued entry is dropped.
    * the partner's rows are disjoint from the focus leafset's rows
      the merge touched (:attr:`MergeOutcome.touched_core_rows`), each
      compared at its own coreset — every gain term is gated on a
      non-empty same-coreset intersection, so every term that existed
      before the merge still has the same per-coreset state and the
      gain is unchanged; a queued entry keeps its stored value (still
      a sound upper bound from its own validation epoch), an absent
      pair stays provably non-positive.  By the cover invariant
      (:mod:`repro.core.inverted_db`) this is the same answer a test
      of the partner's union against the touched rows' vertices gives.

    Pairs not involving a merge participant are never refreshed at all:
    their gain can only fall (only ``fe`` shrank), so their stored
    gains remain upper bounds and the queue-head revalidation in
    :func:`run_partial` settles them if they ever surface.  Returns the
    number of gain computations; every skip, by either test, is
    counted on ``trace``.
    """
    gains = 0
    ids = db.interner.ids
    leafset_of = db.interner.leafset_of
    new_leaf = outcome.new_leafset
    focus = {ids[leaf] for leaf in outcome.partly_merged_leafsets}
    if db.has_leafset(new_leaf):
        focus.add(ids[new_leaf])
    # The partners, ascending, straight off the touched coresets' id
    # lists (which hold exactly the leafsets with a row there).
    core_ids = db.coreset_leaf_ids()
    rel_ids = sorted(
        {rel for core in outcome.touched_coresets for rel in core_ids[core]}
    )
    epoch = db.merge_epoch
    union_of = db.leaf_union_mask
    overlaps = db.mask_backend.union_overlaps
    rows_of = db.rows_of
    touched_rows = outcome.touched_core_rows
    queue = state.queue
    refreshed = set()
    for leaf_id in sorted(focus):
        leaf = leafset_of(leaf_id)
        role_rows = touched_rows.get(leaf, ())
        leaf_union = union_of(leaf)
        additions: List[Tuple[int, float, object]] = []
        for rel in rel_ids:
            if rel == leaf_id:
                continue
            key = pack(leaf_id, rel)
            if key in refreshed:
                continue
            refreshed.add(key)
            rel_leaf = leafset_of(rel)
            if not overlaps(leaf_union, union_of(rel_leaf)):
                if key in queue:
                    state.drop_candidate(key)
                trace.refreshes_skipped += 1
                continue
            rel_rows = rows_of(rel_leaf)
            for core, role_mask in role_rows:
                rel_row = rel_rows.get(core)
                if rel_row is not None and overlaps(role_mask, rel_row[0]):
                    break
            else:
                trace.refreshes_skipped += 1
                continue
            breakdown, gain = net_gain(leaf, rel_leaf)
            gains += 1
            if gain > GAIN_EPS:
                additions.append((key, gain, (breakdown, epoch)))
            elif key in queue:
                state.drop_candidate(key)
        if additions:
            state.add_candidates(additions)
    if db.has_leafset(new_leaf):
        for id_a, id_b in _subset_union_pairs(leafset_of, rel_ids, focus, new_leaf):
            key = pack(id_a, id_b)
            leaf_a = leafset_of(id_a)
            leaf_b = leafset_of(id_b)
            if not overlaps(union_of(leaf_a), union_of(leaf_b)):
                if key in queue:
                    state.drop_candidate(key)
                trace.refreshes_skipped += 1
                continue
            breakdown, gain = net_gain(leaf_a, leaf_b)
            gains += 1
            if gain > GAIN_EPS:
                state.add_candidate(key, gain, payload=(breakdown, epoch))
            elif key in queue:
                state.drop_candidate(key)
    return gains
