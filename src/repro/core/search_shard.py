"""Component-sharded CSPM-Partial: mine independent components in
parallel, then replay their runs into one bit-exact serial-equivalent
result.

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

Why a replay pass is still needed
---------------------------------
Per-iteration instrumentation (``gains_computed`` flushes at each
merge) and the queue-head revalidation of :func:`run_partial` depend on
the *global interleaving* of merges by gain, which no worker can see.
So each worker records its run — every queue operation and every
queue-head decision, in local interned ids — and the parent replays
all recordings through one real global :class:`CandidateQueue`,
performing the merges on the global database in the order the queue
dictates.  Replay is sound because worker floats are bit-identical to
what the serial search would compute (gains only read component-local
rows/frequencies, and all float accumulation orders are deterministic
— see the ordered ``_leaf_to_cores`` invariant), and because local
canonical pair orientation equals global canonical orientation
(construction ids are a repr-sort restriction; merged leafsets are
interned in merge order, which replay preserves per component).

The one divergence replay must synthesise: the serial run revalidates
a dirty queue head against the *global* runner-up, while a worker only
saw its local runner-up.  A locally-merged pair can therefore lose the
global comparison and be pushed back (the reverse cannot happen: a
local push-back implies the fresh gain already lost to a local rival,
and the global head is at least that rival).  While pushed back, no
other pair of that component can surface (the fresh gain still ties or
beats every other stored gain of the component), so the component's
cursor simply stays parked on the merge event until the pair returns —
cleanly under the lazy scope (no common coreset was touched in
between, which also costs one synthetic ``refreshes_skipped``), or via
a fresh revalidation under the other scopes.

Counters stitch as: ``refreshes_skipped``/``dirty_revalidations`` sum
over workers (plus the synthetic clean re-pops), ``gains_computed``
re-flushes a single global pending counter at each replayed merge, and
``initial_candidate_gains`` is recounted by the parent — the serial
seeding also evaluates cross-component overlapping pairs that no
worker ever sees.

The fork/initializer/in-process triad (docs/INVARIANTS.md, family 3):
workers receive the database by fork inheritance where possible, and
every cross-process payload (:class:`ComponentRun`) is plain picklable
columns.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.candidates import CandidateQueue, LeafKey, LeafsetInterner, Pair
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_partial import UPDATE_SCOPES, run_partial
from repro.core.gain import GainBreakdown
from repro.core.instrumentation import IterationTrace, RunTrace, merged_pair_record
from repro.core.inverted_db import InvertedDatabase
from repro.core.mdl import description_length
from repro.core.pairgen import PAIR_SOURCES, overlap_pairs
from repro.errors import MiningError
from repro.obs import Observation, activate, current
from repro.runtime.supervisor import RuntimePolicy, SiteReport, run_supervised

#: Queue-operation kinds in a :class:`ComponentRun` op log.
OP_SET = 0
OP_DISCARD = 1

#: Queue-head decision kinds in a :class:`ComponentRun` event log.
EV_CLEAN_MERGE = 0
EV_DIRTY_MERGE = 1
EV_PUSH = 2
EV_DROP = 3

#: Shared search state in a worker process: ``(database, standard
#: table, core table, include_model_cost, update_scope, pair_source,
#: trace enabled)``.  Set by fork inheritance or the pool initializer.
_WORKER_STATE: Optional[Tuple] = None


def _set_worker_state(state: Optional[Tuple]) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


@dataclass
class ComponentRun:
    """One worker's recorded search over a single component.

    ``leafsets`` is the worker's full local-id -> leafset table (the
    component's construction leafsets followed by every merged leafset
    in merge order); ``ops`` and ``events`` reference leafsets by local
    id only.  Each op is ``(kind, id_a, id_b, gain)`` — a queue ``set``
    or ``discard`` in execution order.  Each event is a queue-head
    decision ``(kind, id_a, id_b, gain, data_leaf_gain, model_gain,
    data_core_gain, refresh_gains, op_start)``: the ops recorded at
    index ``op_start`` up to the next event's ``op_start`` belong to it
    (ops before the first event are the seeding), ``gain`` and the
    breakdown components are only meaningful on merge events, and
    ``refresh_gains`` is the merge's refresh-pass gain count.
    """

    leafsets: List[LeafKey]
    ops: List[Tuple[int, int, int, float]]
    events: List[Tuple[int, int, int, float, float, float, float, int, int]]
    refreshes_skipped: int
    dirty_revalidations: int
    #: Closed observability spans recorded in the worker (plain str/
    #: float/int tuples) plus the recording pid, shipped home through
    #: the ordinary result path when tracing is on.
    spans: Optional[List[Tuple[str, float, float, int, str]]] = None
    pid: int = 0


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


class _RecordingQueue(CandidateQueue):
    """A :class:`CandidateQueue` that logs every explicit mutation.

    Only ``set``/``set_many``/``discard`` are logged — pops and stale
    drops are decisions of the search loop, captured separately as
    events — so replaying the op log against another queue with the
    same content reproduces versions, peak size and pop order exactly.
    """

    def __init__(self, interner: LeafsetInterner, ops: List[Tuple]) -> None:
        super().__init__(interner)
        self._ops = ops

    def set(self, pair: Pair, gain: float, payload: object = None) -> None:
        key = self._pair_key(pair)
        self._ops.append((OP_SET, key[0], key[1], gain))
        super().set(pair, gain, payload)

    def set_many(self, entries) -> None:
        entries = list(entries)
        ops = self._ops
        pair_key = self._pair_key
        for pair, gain, _payload in entries:
            key = pair_key(pair)
            ops.append((OP_SET, key[0], key[1], gain))
        super().set_many(entries)

    def discard(self, pair: Pair) -> None:
        key = self._pair_key(pair)
        self._ops.append((OP_DISCARD, key[0], key[1], 0.0))
        super().discard(pair)


class ComponentRecorder:
    """Captures a worker run for replay (see :func:`run_partial`).

    ``make_queue`` hands the search a :class:`_RecordingQueue`; the
    ``on_*`` hooks log the queue-head decisions.  Events are recorded
    as mutable lists so ``on_refresh_gains`` can patch the merge event
    it follows, and tuple-ised when the payload is built.
    """

    def __init__(self) -> None:
        self.ops: List[Tuple[int, int, int, float]] = []
        self.events: List[List] = []
        self._interner: Optional[LeafsetInterner] = None

    def make_queue(self, interner: LeafsetInterner) -> CandidateQueue:
        self._interner = interner
        return _RecordingQueue(interner, self.ops)

    def _event(
        self,
        kind: int,
        leaf_x: LeafKey,
        leaf_y: LeafKey,
        gain: float,
        breakdown: Optional[GainBreakdown],
    ) -> None:
        intern = self._interner.intern
        id_x, id_y = intern(leaf_x), intern(leaf_y)
        if id_x > id_y:
            id_x, id_y = id_y, id_x
        self.events.append(
            [
                kind,
                id_x,
                id_y,
                gain,
                breakdown.data_leaf_gain if breakdown is not None else 0.0,
                breakdown.model_gain if breakdown is not None else 0.0,
                breakdown.data_core_gain if breakdown is not None else 0.0,
                0,
                len(self.ops),
            ]
        )

    def on_merge(
        self,
        leaf_x: LeafKey,
        leaf_y: LeafKey,
        gain: float,
        breakdown: GainBreakdown,
        clean: bool,
    ) -> None:
        kind = EV_CLEAN_MERGE if clean else EV_DIRTY_MERGE
        self._event(kind, leaf_x, leaf_y, gain, breakdown)

    def on_push(self, leaf_x: LeafKey, leaf_y: LeafKey) -> None:
        self._event(EV_PUSH, leaf_x, leaf_y, 0.0, None)

    def on_drop(self, leaf_x: LeafKey, leaf_y: LeafKey) -> None:
        self._event(EV_DROP, leaf_x, leaf_y, 0.0, None)

    def on_refresh_gains(self, refresh_gains: int) -> None:
        self.events[-1][7] = refresh_gains


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
    """Worker entrypoint: mine one component on a restricted copy."""
    import os

    db, standard_table, core_table, include_model_cost, scope, source, traced = (
        _WORKER_STATE
    )
    obs = Observation.for_worker(trace=traced)
    with activate(obs):
        with obs.span("search.component", leafsets=len(leaf_ids)):
            leafset_of = db.interner.leafset_of
            local = db.restricted_copy(leafset_of(i) for i in leaf_ids)
            recorder = ComponentRecorder()
            # ``initial_dl_bits=0.0`` skips the from-scratch DL pass:
            # replay reconstructs the global DL from the recorded
            # breakdowns, so the worker's local DL floats are never
            # read.
            trace = run_partial(
                local,
                standard_table,
                core_table,
                include_model_cost=include_model_cost,
                update_scope=scope,
                initial_dl_bits=0.0,
                pair_source=source,
                recorder=recorder,
            )
    local_interner = local.interner
    return ComponentRun(
        leafsets=[local_interner.leafset_of(i) for i in range(len(local_interner))],
        ops=recorder.ops,
        events=[tuple(event) for event in recorder.events],
        refreshes_skipped=trace.refreshes_skipped,
        dirty_revalidations=trace.dirty_revalidations,
        spans=obs.tracer.export_spans() if traced else None,
        pid=os.getpid(),
    )


def _mine_components(
    db: InvertedDatabase,
    standard_table: StandardCodeTable,
    core_table: CoreCodeTable,
    include_model_cost: bool,
    update_scope: str,
    pair_source: str,
    components: List[List[int]],
    workers: Optional[int],
    policy: Optional[RuntimePolicy] = None,
) -> Tuple[List[ComponentRun], Optional[SiteReport]]:
    """Run :func:`_mine_component` over all components, in order.

    Jobs are submitted largest-component-first (the tail of small
    components then packs the stragglers), but results are returned in
    component order.  One worker — or one component — runs in-process
    with no supervision (report ``None``).  Pool execution goes
    through :func:`repro.runtime.supervisor.run_supervised` (site
    ``"search"``, task index = position in the largest-first
    submission order): the parent keeps ``_WORKER_STATE`` installed on
    every platform so an exhausted component degrades to an in-process
    — bit-exact — re-mine.
    """
    requested = (
        workers if workers is not None else (multiprocessing.cpu_count() or 1)
    )
    order = sorted(
        range(len(components)), key=lambda i: (-len(components[i]), i)
    )
    jobs = [components[i] for i in order]
    obs = current()
    state = (
        db,
        standard_table,
        core_table,
        include_model_cost,
        update_scope,
        pair_source,
        obs.tracer.enabled,
    )
    report: Optional[SiteReport] = None
    if requested <= 1 or len(jobs) <= 1:
        _set_worker_state(state)
        try:
            results = [_mine_component(job) for job in jobs]
        finally:
            _set_worker_state(None)
    else:
        # Fork children inherit the parent's memory (the database and
        # code tables reach the workers without a single pickle byte);
        # the parent-side state doubles as the supervisor's degraded
        # re-execution context on every platform.
        _set_worker_state(state)
        try:
            if "fork" in multiprocessing.get_all_start_methods():
                results, report = run_supervised(
                    "search",
                    jobs,
                    _mine_component,
                    policy,
                    max_workers=min(requested, len(jobs)),
                    mp_context=multiprocessing.get_context("fork"),
                    expect_type=ComponentRun,
                )
            else:  # pragma: no cover - non-fork platforms
                results, report = run_supervised(
                    "search",
                    jobs,
                    _mine_component,
                    policy,
                    max_workers=min(requested, len(jobs)),
                    initializer=_set_worker_state,
                    initargs=(state,),
                    expect_type=ComponentRun,
                )
        finally:
            _set_worker_state(None)
    runs: List[Optional[ComponentRun]] = [None] * len(components)
    for slot, result in zip(order, results):
        runs[slot] = result
    if obs.tracer.enabled:
        harvest = obs.tracer.now()
        for slot, run in enumerate(runs):
            if run is None or not run.spans:
                continue
            align = None if run.pid == obs.tracer.pid else harvest
            obs.tracer.adopt(
                run.spans, run.pid, f"search[{slot}]", align_end=align
            )
    return runs, report


#: Human-readable names for the event/op kind codes, for diagnostics.
EV_NAMES = {
    EV_CLEAN_MERGE: "clean-merge",
    EV_DIRTY_MERGE: "dirty-merge",
    EV_PUSH: "push",
    EV_DROP: "drop",
}
OP_NAMES = {OP_SET: "set", OP_DISCARD: "discard"}


def _desync(
    detail: str,
    component: Optional[int] = None,
    event_index: Optional[int] = None,
    kind: Optional[int] = None,
) -> MiningError:
    """A stitch mismatch, with enough context to localise the bug.

    A desync is always an implementation bug (the replay contract is
    exact), so the message carries the coordinates a debugger needs:
    which component's recording diverged, at which event cursor, on
    what kind of decision.
    """
    context = []
    if component is not None:
        context.append(f"component {component}")
    if event_index is not None:
        context.append(f"event {event_index}")
    if kind is not None:
        context.append(f"kind {EV_NAMES.get(kind, repr(kind))}")
    suffix = f" ({', '.join(context)})" if context else ""
    return MiningError(f"sharded replay desync: {detail}{suffix}")


def _stitch(
    db: InvertedDatabase,
    update_scope: str,
    initial_dl_bits: float,
    initial_candidate_gains: int,
    runs: List[ComponentRun],
) -> RunTrace:
    """Replay the recorded component runs into the serial result.

    Drives one real global queue: seeding applies every component's
    recorded seed entries in global pair-key order, then each pop is
    matched against the owning component's next recorded event —
    merges execute on the global database (which also interns merged
    leafsets in the serial order), pushes and drops just apply their
    recorded queue ops, and a locally-merged pair that loses the global
    head comparison is pushed back with its component cursor parked
    (see the module docstring).  Any mismatch between the queue head
    and the recorded decision stream raises a ``MiningError`` rather
    than silently diverging from the serial search.
    """
    obs = current()
    with obs.span("search.stitch", components=len(runs)):
        return _replay(
            db,
            update_scope,
            initial_dl_bits,
            initial_candidate_gains,
            runs,
            obs,
        )


def _replay(
    db: InvertedDatabase,
    update_scope: str,
    initial_dl_bits: float,
    initial_candidate_gains: int,
    runs: List[ComponentRun],
    obs,
) -> RunTrace:
    """The :func:`_stitch` body, under the stitch span."""
    lazy = update_scope == "lazy"
    trace = RunTrace(algorithm=f"cspm-partial/{update_scope}")
    trace.initial_dl_bits = initial_dl_bits
    trace.initial_candidate_gains = initial_candidate_gains
    dl = initial_dl_bits
    interner = db.interner
    pair_key = interner.pair_key
    queue = CandidateQueue(interner)
    leaf_component: Dict[LeafKey, int] = {}
    for index, run in enumerate(runs):
        for leaf in run.leafsets:
            leaf_component[leaf] = index
    cursors = [0] * len(runs)
    pushed: List[Optional[Pair]] = [None] * len(runs)

    def apply_ops(run: ComponentRun, cursor: int) -> None:
        events = run.events
        start = events[cursor][8]
        end = (
            events[cursor + 1][8]
            if cursor + 1 < len(events)
            else len(run.ops)
        )
        leafsets = run.leafsets
        for kind, id_a, id_b, gain in run.ops[start:end]:
            target = (leafsets[id_a], leafsets[id_b])
            if kind == OP_SET:
                queue.set(target, gain, None)
            else:
                queue.discard(target)

    seed_entries: List[Tuple[Pair, float]] = []
    for index, run in enumerate(runs):
        end = run.events[0][8] if run.events else len(run.ops)
        leafsets = run.leafsets
        for op_index, (kind, id_a, id_b, gain) in enumerate(run.ops[:end]):
            if kind != OP_SET:
                raise _desync(
                    f"op {OP_NAMES.get(kind, repr(kind))} recorded during "
                    f"seeding at op index {op_index}",
                    component=index,
                )
            seed_entries.append(((leafsets[id_a], leafsets[id_b]), gain))
    seed_entries.sort(key=lambda entry: pair_key(entry[0]))
    queue.set_many((pair, gain, None) for pair, gain in seed_entries)

    pending = 0
    refreshes_skipped = sum(run.refreshes_skipped for run in runs)
    dirty_revalidations = sum(run.dirty_revalidations for run in runs)
    iteration = 0
    while True:
        entry = queue.pop_entry()
        if entry is None:
            break
        pair = entry[0]
        comp = leaf_component.get(pair[0])
        if comp is None:
            raise _desync(f"queue head {pair!r} belongs to no component")
        run = runs[comp]
        cursor = cursors[comp]
        if cursor >= len(run.events):
            raise _desync(
                "component's event log exhausted early",
                component=comp,
                event_index=cursor,
            )
        event = run.events[cursor]
        kind = event[0]
        if pushed[comp] is not None:
            # The parked merge event resurfacing (no other pair of the
            # component can beat its fresh gain in the meantime).
            if pushed[comp] != pair or kind != EV_DIRTY_MERGE:
                raise _desync(
                    "pushed-back pair did not resurface first",
                    component=comp,
                    event_index=cursor,
                    kind=kind,
                )
            pushed[comp] = None
            if lazy:
                # The serial re-pop is clean: only other components
                # merged in between, touching no common coreset.
                refreshes_skipped += 1
            else:
                # The serial re-pop revalidates again (same floats:
                # the component's state did not change in between).
                pending += 1
                if _loses_head(queue, pair_key, pair, event[3]):
                    queue.set(pair, event[3], None)
                    pushed[comp] = pair
                    continue
        else:
            expected = (run.leafsets[event[1]], run.leafsets[event[2]])
            if expected != pair:
                raise _desync(
                    "queue head does not match the next event",
                    component=comp,
                    event_index=cursor,
                    kind=kind,
                )
            if kind == EV_DIRTY_MERGE:
                pending += 1
                if _loses_head(queue, pair_key, pair, event[3]):
                    queue.set(pair, event[3], None)
                    pushed[comp] = pair
                    continue
            elif kind in (EV_PUSH, EV_DROP):
                pending += 1
                apply_ops(run, cursor)
                cursors[comp] = cursor + 1
                continue
            elif kind != EV_CLEAN_MERGE:
                raise _desync(
                    f"unknown event kind {kind!r}",
                    component=comp,
                    event_index=cursor,
                )
        gain = event[3]
        breakdown = GainBreakdown(event[4], event[5], event[6])
        num_leafsets = db.num_leafsets
        possible = num_leafsets * (num_leafsets - 1) // 2
        db.merge(pair[0], pair[1])
        dl -= breakdown.total
        trace.record_merge_components(breakdown)
        iteration += 1
        gains_computed = pending + event[7]
        pending = 0
        apply_ops(run, cursor)
        cursors[comp] = cursor + 1
        trace.iterations.append(
            IterationTrace(
                iteration=iteration,
                gains_computed=gains_computed,
                possible_pairs=possible,
                num_leafsets=num_leafsets,
                merged_pair=merged_pair_record(pair[0], pair[1]),
                gain=gain,
                total_dl_bits=dl,
            )
        )
        obs.progress.heartbeat(
            "search.stitch", merges=iteration, queue=len(queue)
        )
    for index, run in enumerate(runs):
        if cursors[index] != len(run.events) or pushed[index] is not None:
            raise _desync(
                f"component replay incomplete at termination "
                f"({len(run.events) - cursors[index]} events unconsumed"
                f"{', pair still pushed back' if pushed[index] is not None else ''})",
                component=index,
                event_index=cursors[index],
            )
    trace.final_dl_bits = dl
    trace.peak_queue_size = queue.peak_size
    trace.refreshes_skipped = refreshes_skipped
    trace.dirty_revalidations = dirty_revalidations
    return trace


def _loses_head(
    queue: CandidateQueue,
    pair_key,
    pair: Pair,
    gain: float,
) -> bool:
    """The serial revalidation comparison: push back when the fresh
    gain falls below the runner-up, or ties it with a larger key."""
    next_best = queue.peek()
    if next_best is None:
        return False
    next_pair, next_gain = next_best
    return gain < next_gain or (
        gain == next_gain and pair_key(pair) > pair_key(next_pair)
    )


def run_sharded(
    db: InvertedDatabase,
    standard_table: StandardCodeTable,
    core_table: CoreCodeTable,
    include_model_cost: bool = True,
    update_scope: str = "lazy",
    initial_dl_bits: Optional[float] = None,
    pair_source: str = "overlap",
    workers: Optional[int] = None,
    policy: Optional[RuntimePolicy] = None,
) -> ShardedSearch:
    """Component-sharded CSPM-Partial, bit-exact with the serial run.

    Mutates ``db`` exactly as :func:`run_partial` would and returns the
    identical :class:`RunTrace` (merge sequence, DL floats, every
    counter) wrapped with the component statistics.  ``workers`` is the
    worker-process cap (``None``: the CPU count); iteration caps are
    not supported — a cap cuts the global merge sequence at a point no
    worker can locate, so the pipeline falls back to the serial path.
    ``policy`` configures the supervised pool (timeouts, retries,
    degradation, fault injection); degraded components are re-mined
    in-process, so the bit-exactness contract holds under arbitrary
    worker failure.
    """
    if update_scope not in UPDATE_SCOPES:
        raise MiningError(
            f"update_scope must be one of {UPDATE_SCOPES}, got {update_scope!r}"
        )
    if pair_source not in PAIR_SOURCES:
        raise MiningError(
            f"pair_source must be one of {PAIR_SOURCES}, got {pair_source!r}"
        )
    if workers is not None and workers < 1:
        raise MiningError(f"search_workers must be >= 1, got {workers!r}")
    if initial_dl_bits is None:
        initial_dl_bits = description_length(
            db, standard_table, core_table
        ).total_bits
    num_leafsets = db.num_leafsets
    # The serial seeding evaluates cross-component pairs too (their
    # gain is zero, so they never enter any queue): recount here
    # instead of summing worker-local counts.
    if pair_source == "full":
        initial_gains = num_leafsets * (num_leafsets - 1) // 2
    else:
        initial_gains = len(overlap_pairs(db))
    components = connected_components(db)
    current().progress.note(
        "search",
        components=len(components),
        largest=max((len(c) for c in components), default=0),
    )
    runs, report = _mine_components(
        db,
        standard_table,
        core_table,
        include_model_cost,
        update_scope,
        pair_source,
        components,
        workers,
        policy,
    )
    trace = _stitch(db, update_scope, initial_dl_bits, initial_gains, runs)
    largest = max((len(component) for component in components), default=0)
    return ShardedSearch(
        trace=trace,
        num_components=len(components),
        largest_component_frac=(
            largest / num_leafsets if num_leafsets else 0.0
        ),
        report=report,
    )
