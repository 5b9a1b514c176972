"""Component-sharded CSPM-Partial: mine independent components in
parallel, then interleave their runs into one bit-exact
serial-equivalent result.

Why components shard cleanly
----------------------------
Two leafsets can only ever merge (or influence each other's gain) when
they share a coreset: every gain term (Eq. 10-15) is gated on a
non-empty same-coreset positional intersection, and a merge only moves
rows and frequencies under the pair's common coresets.  Connected
components of the "shares a coreset" relation over the construction
leafsets therefore partition the whole search: every coreset is
private to one component, all merged leafsets stay inside their
component, and a cross-component pair's gain is exactly zero forever.
Each component can be mined on a
:meth:`~repro.core.inverted_db.InvertedDatabase.restricted_copy` with
no communication at all.

The stitch: a k-way merge of the component logs
-----------------------------------------------
The serial queue holds the union of the component queues, so its head
is the best of the component heads under the queue's (gain, pair key)
order.  Each worker therefore logs only its queue-head decisions, in
local interned ids, with the popped entry's stored gain; the parent
orders all logs with a heap over the k component heads keyed by
(stored gain, global pair key) and never builds a queue of its own.
Worker floats are bit-identical to what the serial search computes:
gains only read component-local rows and frequencies, and every float
accumulation order is deterministic.  In particular a restricted copy
keeps each leafset's row map in the parent's coreset order, the order
gain terms sum in, and a worker's final row maps travel home and are
adopted in their own order.  Local canonical pair orientation equals
the global one: construction ids are a repr-sort restriction, and the
parent interns merged leafsets in global merge order, which keeps each
component's own order.

The one divergence the merge must synthesise: the serial run
revalidates a dirty queue head against the *global* runner-up, while a
worker only saw its local runner-up.  A locally-merged pair can
therefore lose to another component's head and be pushed back (the
reverse cannot happen: a local push-back implies the fresh gain
already lost to a local rival, and the global runner-up is at least
that rival).  While pushed back, no other pair of that component can
surface (the fresh gain beat every other stored gain of the
component), so the component stays parked on the merge until the pair
returns — cleanly under the lazy scope (no common coreset was touched
in between, which costs one synthetic ``refreshes_skipped``), or via a
fresh revalidation under the related scope.

The parent performs no merge either: each worker ships its component's
final rows home as plain columns, and
:meth:`~repro.core.inverted_db.InvertedDatabase.adopt_components`
installs their disjoint union, translating local ids and merge epochs
to the global ones the k-way merge assigned.

Counters stitch as: ``refreshes_skipped``/``dirty_revalidations`` sum
over workers (plus the synthetic clean re-pops), ``gains_computed``
flushes a single global pending counter at each merge,
``initial_candidate_gains`` sums over workers (no overlapping pair
crosses components, since overlapping leaf-union masks at a vertex
imply a common coreset — the cover invariant of
:mod:`repro.core.inverted_db`), and ``peak_queue_size`` is the
high-water mark of the summed component queue sizes, rebuilt from each
decision's local window peak.

The components run through :func:`repro.runtime.supervisor.run_supervised`
(site ``"search"``), which alone decides whether a pool runs and how
the database reaches the workers (docs/INVARIANTS.md, family 3); every
cross-process payload (:class:`ComponentRun`) is plain picklable
columns.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.config import UPDATE_SCOPES
from repro.core.candidates import LeafKey
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.collector import paused_collector
from repro.core.cspm_partial import run_partial
from repro.core.gain import ZERO_GAIN, GainBreakdown
from repro.core.instrumentation import IterationTrace, RunTrace, merged_pair_record
from repro.core.inverted_db import CoreKey, InvertedDatabase, Mask
from repro.core.mdl import description_length
from repro.errors import MiningError
from repro.obs import current
from repro.runtime.supervisor import SiteReport, run_supervised, shared_state

#: Queue-head decision kinds in a :class:`ComponentRun` event log.
EV_CLEAN_MERGE = 0
EV_DIRTY_MERGE = 1
EV_PUSH = 2
EV_DROP = 3

@dataclass
class ComponentRun:
    """One worker's search over a single component, as plain columns.

    ``leafsets`` is the worker's local-id -> leafset table (the
    component's construction leafsets, then each merged leafset at its
    first creation); events reference leafsets by local id only.  Each
    event is one queue-head decision ``(kind, id_a, id_b, stored, gain,
    data_leaf_gain, model_gain, data_core_gain, refresh_gains,
    leafsets, peak, size)``:

    * ``stored`` is the popped entry's queued gain, the key the serial
      queue popped it by;
    * ``gain``, the breakdown components, ``refresh_gains`` (the
      merge's refresh-pass gain count) and ``leafsets`` (the local
      leafset count after the merge) are only meaningful on merges;
    * ``peak`` and ``size`` are the local queue's high-water mark and
      final size between this pop and the next.

    ``seeded`` is the local queue size after seeding.  ``leaf_rows``
    through ``leaf_epoch`` are the restricted database's final state in
    local ids and local merge epochs, the columns
    :meth:`~repro.core.inverted_db.InvertedDatabase.adopt_components`
    takes over.
    """

    leafsets: List[LeafKey]
    events: List[
        Tuple[int, int, int, float, float, float, float, float, int, int, int, int]
    ]
    seeded: int
    initial_candidate_gains: int
    refreshes_skipped: int
    dirty_revalidations: int
    leaf_rows: Dict[LeafKey, Dict[CoreKey, Tuple[Mask, int]]]
    core_freq: Dict[CoreKey, int]
    leaf_union: Dict[LeafKey, Mask]
    core_leaf_ids: Dict[CoreKey, List[int]]
    core_epoch: Dict[CoreKey, int]
    leaf_epoch: Dict[LeafKey, int]


class ShardedSearch(NamedTuple):
    """A sharded run's trace plus the component statistics.

    Parent-side only — never crosses a process boundary (workers return
    :class:`ComponentRun` columns), so it is deliberately not part of
    the FRK002 worker-payload dataclass contract.  ``report`` is the
    supervisor's failure telemetry for the ``"search"`` site, ``None``
    when the components ran in-process (one worker or one component —
    no pool, nothing to supervise).
    """

    trace: RunTrace
    num_components: int
    largest_component_frac: float
    report: Optional[SiteReport] = None


class ComponentRecorder:
    """Captures a worker run's queue-head decisions (see
    :func:`run_partial`).

    Events are recorded as mutable lists so the merge's refresh hook
    and the next decision can complete them, and tuple-ised when the
    payload is built.  At every decision the recorder reads and then
    rewinds the queue's ``peak_size``, so at the next decision it holds
    the peak of the window in between; the worker's own
    ``peak_queue_size`` is therefore meaningless (the parent rebuilds
    the global one).  :meth:`close` ends the last window.
    """

    def __init__(self) -> None:
        self.events: List[List] = []
        self.seeded = 0
        self._queue = None

    def attach(self, queue) -> None:
        """Watch the run's candidate queue; called before seeding."""
        self._queue = queue

    def close(self, popped: int = 0) -> None:
        """End the open window; ``popped`` entries just left the queue."""
        queue = self._queue
        size = len(queue) + popped
        if self.events:
            self.events[-1][10:] = (queue.peak_size, size)
        else:
            self.seeded = size
        queue.peak_size = len(queue)

    def _event(
        self,
        kind: int,
        id_x: int,
        id_y: int,
        stored: float,
        gain: float = 0.0,
        breakdown: GainBreakdown = ZERO_GAIN,
    ) -> None:
        self.close(popped=1)
        # The breakdown's three floats follow the gain; refresh_gains,
        # leafsets, peak and size are patched in later.
        self.events.append([kind, id_x, id_y, stored, gain, *breakdown, 0, 0, 0, 0])

    def on_merge(
        self,
        id_x: int,
        id_y: int,
        stored: float,
        gain: float,
        breakdown: GainBreakdown,
        clean: bool,
    ) -> None:
        kind = EV_CLEAN_MERGE if clean else EV_DIRTY_MERGE
        self._event(kind, id_x, id_y, stored, gain, breakdown)

    def on_push(self, id_x: int, id_y: int, stored: float) -> None:
        self._event(EV_PUSH, id_x, id_y, stored)

    def on_drop(self, id_x: int, id_y: int, stored: float) -> None:
        self._event(EV_DROP, id_x, id_y, stored)

    def on_refresh(self, refresh_gains: int, num_leafsets: int) -> None:
        self.events[-1][8:10] = (refresh_gains, num_leafsets)


def connected_components(db: InvertedDatabase) -> List[List[int]]:
    """Components of the shares-a-coreset relation, as interned ids.

    Union-find over the per-coreset membership id lists.  Components
    are returned with ascending ids, ordered by their smallest id —
    fully determined by the interner, hence hash-seed independent.
    """
    count = len(db.interner)
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for ids in db.coreset_leaf_ids().values():
        root = find(ids[0])
        for other in ids[1:]:
            other_root = find(other)
            if other_root != root:
                parent[other_root] = root
    groups: Dict[int, List[int]] = {}
    for node in range(count):
        groups.setdefault(find(node), []).append(node)
    return sorted(groups.values(), key=lambda group: group[0])


def _mine_component(leaf_ids: List[int]) -> ComponentRun:
    """Worker entrypoint: mine one component on a restricted copy.

    The shared state is ``(database, standard table, core table,
    include_model_cost, update_scope)``.
    """
    db, standard_table, core_table, include_model_cost, scope = shared_state()
    # A no-op in a forked worker of a paused parent; it pauses the
    # collector where the worker starts without that state.
    with paused_collector(), current().span("search.component", leafsets=len(leaf_ids)):
        leafset_of = db.interner.leafset_of
        local = db.restricted_copy(leafset_of(i) for i in leaf_ids)
        recorder = ComponentRecorder()
        # ``initial_dl_bits=0.0`` skips the from-scratch DL pass: the
        # stitch rebuilds the global DL from the recorded breakdowns,
        # so the worker's local DL floats are never read.
        trace = run_partial(
            local,
            standard_table,
            core_table,
            include_model_cost=include_model_cost,
            update_scope=scope,
            initial_dl_bits=0.0,
            recorder=recorder,
        )
        recorder.close()
    local_interner = local.interner
    # The restricted copy's columns are handed over as they are: the
    # copy is discarded, and in a pool the pickle copies them anyway.
    return ComponentRun(
        leafsets=[local_interner.leafset_of(i) for i in range(len(local_interner))],
        events=[tuple(event) for event in recorder.events],
        seeded=recorder.seeded,
        initial_candidate_gains=trace.initial_candidate_gains,
        refreshes_skipped=trace.refreshes_skipped,
        dirty_revalidations=trace.dirty_revalidations,
        leaf_rows=local._leaf_rows,
        core_freq=local._core_freq,
        leaf_union=local._leaf_union,
        core_leaf_ids=local._core_leaf_ids,
        core_epoch=local._core_epoch,
        leaf_epoch=local._leaf_epoch,
    )


def _stitch(
    db: InvertedDatabase,
    update_scope: str,
    initial_dl_bits: float,
    components: List[List[int]],
    runs: List[ComponentRun],
) -> RunTrace:
    """Interleave the component runs into the serial result.

    :func:`_merge_logs` rebuilds the serial trace and interns merged
    leafsets in the serial order; the components' final rows then
    replace ``db``'s own.
    """
    obs = current()
    with obs.span("search.stitch", components=len(runs)):
        trace, ids, epochs = _merge_logs(
            db, update_scope, initial_dl_bits, components, runs, obs
        )
        for index, run in enumerate(runs):
            if len(ids[index]) != len(run.leafsets):
                raise MiningError(
                    f"sharded stitch desync: component {index} created "
                    f"{len(run.leafsets) - len(ids[index])} leafsets its "
                    "event log never merged"
                )
        db.adopt_components(zip(runs, ids, epochs), trace.num_iterations)
    return trace


def _merge_logs(
    db: InvertedDatabase,
    update_scope: str,
    initial_dl_bits: float,
    components: List[List[int]],
    runs: List[ComponentRun],
    obs,
) -> Tuple[RunTrace, List[List[int]], List[List[int]]]:
    """The k-way merge of the component event logs.

    A heap holds each component's next decision keyed by (negated
    stored gain, global pair key) — the serial queue's pop order.
    Besides the trace, returns each component's local -> global id
    table and its local -> global merge index table (index 0: never
    merged), which is what the row adoption translates through.
    """
    lazy = update_scope == "lazy"
    trace = RunTrace(algorithm=f"cspm-partial/{update_scope}")
    trace.initial_dl_bits = initial_dl_bits
    trace.initial_candidate_gains = sum(
        run.initial_candidate_gains for run in runs
    )
    trace.refreshes_skipped = sum(run.refreshes_skipped for run in runs)
    trace.dirty_revalidations = sum(run.dirty_revalidations for run in runs)
    intern = db.interner.intern
    # Construction leafsets: local ids are the repr-sorted order of the
    # component, i.e. its ascending global ids.
    ids = [list(component) for component in components]
    epochs: List[List[int]] = [[0] for _ in runs]
    cursors = [0] * len(runs)
    parked = [False] * len(runs)
    sizes = [run.seeded for run in runs]
    counts = [len(component) for component in components]
    size = peak = sum(sizes)
    leafsets = sum(counts)
    heap: List[Tuple[float, int, int, int]] = []

    def push_head(comp: int) -> None:
        events = runs[comp].events
        cursor = cursors[comp]
        if cursor < len(events):
            event = events[cursor]
            table = ids[comp]
            heapq.heappush(
                heap, (-event[3], table[event[1]], table[event[2]], comp)
            )

    for comp in range(len(runs)):
        push_head(comp)
    dl = initial_dl_bits
    pending = 0
    iteration = 0
    while heap:
        _, id_a, id_b, comp = heapq.heappop(heap)
        run = runs[comp]
        (
            kind,
            local_a,
            local_b,
            _stored,
            gain,
            leaf_gain,
            model_gain,
            core_gain,
            refresh_gains,
            count,
            window_peak,
            window_size,
        ) = run.events[cursors[comp]]
        if parked[comp] and lazy:
            # The serial re-pop of a parked pair is clean: only other
            # components merged since, touching none of its coresets.
            parked[comp] = False
            trace.refreshes_skipped += 1
        elif kind == EV_DIRTY_MERGE:
            # A revalidation (under the related scope also every re-pop
            # of a parked pair, with the same fresh gain).  Serial
            # merges only while the fresh gain still beats the global
            # runner-up — ties broken by the smaller pair key — and the
            # local runner-up already lost, so only the other
            # components' heads can win.
            parked[comp] = False
            pending += 1
            if heap and (-gain, id_a, id_b) > heap[0][:3]:
                heapq.heappush(heap, (-gain, id_a, id_b, comp))
                parked[comp] = True
                continue
        elif kind != EV_CLEAN_MERGE:
            # A push-back or drop: serial makes the same decision.
            pending += 1
        if kind in (EV_CLEAN_MERGE, EV_DIRTY_MERGE):
            leaf_a = run.leafsets[local_a]
            leaf_b = run.leafsets[local_b]
            new_leaf = leaf_a | leaf_b
            # Interned at merge time, as ``db.merge`` would; a leafset
            # new to the component takes the next local id.
            new_id = intern(new_leaf)
            table = ids[comp]
            if len(table) < len(run.leafsets) and run.leafsets[len(table)] == new_leaf:
                table.append(new_id)
            iteration += 1
            epochs[comp].append(iteration)
            breakdown = GainBreakdown(leaf_gain, model_gain, core_gain)
            dl -= breakdown.total
            trace.record_merge_components(breakdown)
            trace.iterations.append(
                IterationTrace(
                    iteration=iteration,
                    gains_computed=pending + refresh_gains,
                    possible_pairs=leafsets * (leafsets - 1) // 2,
                    num_leafsets=leafsets,
                    merged_pair=merged_pair_record(leaf_a, leaf_b),
                    gain=gain,
                    total_dl_bits=dl,
                )
            )
            pending = 0
            leafsets += count - counts[comp]
            counts[comp] = count
            obs.progress.heartbeat("search.stitch", merges=iteration, queue=size)
        # The decision's window: every other component's queue holds
        # still while this one's refresh runs.
        peak = max(peak, size - sizes[comp] + window_peak)
        size += window_size - sizes[comp]
        sizes[comp] = window_size
        cursors[comp] += 1
        push_head(comp)
    trace.final_dl_bits = dl
    trace.peak_queue_size = peak
    return trace, ids, epochs


def run_sharded(
    db: InvertedDatabase,
    standard_table: StandardCodeTable,
    core_table: CoreCodeTable,
    include_model_cost: bool = True,
    update_scope: str = "lazy",
    initial_dl_bits: Optional[float] = None,
    workers: Optional[int] = None,
) -> ShardedSearch:
    """Component-sharded CSPM-Partial, bit-exact with the serial run.

    Mutates ``db`` exactly as :func:`run_partial` would and returns the
    identical :class:`RunTrace` (merge sequence, DL floats, every
    counter) wrapped with the component statistics.  ``workers`` is the
    worker-process cap (``None``: the usable CPU count); iteration caps are
    not supported — a cap cuts the global merge sequence at a point no
    worker can locate, so the pipeline falls back to the serial path.
    Components the supervised pool fails are re-mined in-process, so
    the bit-exactness contract holds under arbitrary worker failure.
    """
    if update_scope not in UPDATE_SCOPES:
        raise MiningError(
            f"update_scope must be one of {UPDATE_SCOPES}, got {update_scope!r}"
        )
    if workers is not None and workers < 1:
        raise MiningError(f"search_workers must be >= 1, got {workers!r}")
    if initial_dl_bits is None:
        initial_dl_bits = description_length(
            db, standard_table, core_table
        ).total_bits
    num_leafsets = db.num_leafsets
    components = connected_components(db)
    largest = max((len(component) for component in components), default=0)
    current().progress.note("search", components=len(components), largest=largest)
    # Largest component first, so the tail of small ones packs the
    # stragglers; the task index (fault plans, failure lines, trace
    # lanes) is the position in this order.
    order = sorted(range(len(components)), key=lambda i: (-len(components[i]), i))
    results, report = run_supervised(
        "search",
        [components[i] for i in order],
        _mine_component,
        workers=workers,
        expect_type=ComponentRun,
        shared=(db, standard_table, core_table, include_model_cost, update_scope),
    )
    runs: List[Optional[ComponentRun]] = [None] * len(components)
    for slot, result in zip(order, results):
        runs[slot] = result
    trace = _stitch(db, update_scope, initial_dl_bits, components, runs)
    return ShardedSearch(
        trace=trace,
        num_components=len(components),
        largest_component_frac=(
            largest / num_leafsets if num_leafsets else 0.0
        ),
        report=report,
    )
