"""The inverted database representation (paper, Section IV-B).

The inverted database ``I`` is a three-column table whose rows are
``(SL, Sc, positions)``: a leafset, the coreset it is attached to, and
the set of core vertices at which this a-star is currently used in the
cover.  Initially every row is a one-leaf-value a-star; CSPM mines by
repeatedly *merging* two leafsets, which moves the common positions of
each shared coreset into a new ``SLx | SLy`` row.

Positions are stored as bitmasks over a fixed vertex order — the
co-occurrence counts behind Eq. 9-15 are position-set intersections,
and AND+popcount on machine words is what keeps gain computation fast
at Pokec scale.  The mask *representation* is pluggable
(:mod:`repro.core.masks`): whole-graph Python ints (``bigint``, the
default) or sparse dict-of-chunk bitmaps (``chunked``) — bit-exact
interchangeable, selected per database at construction.  The
vertex->bit table is assigned once per construction (in first-touch
order over repr-sorted coresets, so community positions land in
adjacent bits) and shared by every mask the database owns; nothing
adds a position after construction, so the order never changes.

Each row lives once, in ``_leaf_rows``: leafset -> ``{coreset: (mask,
frequency)}``.  A leafset's row map keeps insertion order — coresets in
construction (sorted) order, then each merge's new coresets appended —
and the gain engine sums its terms in that order, so the order is part
of the float contract.  The only reverse index is ``_core_leaf_ids``,
each coreset's ascending interned leafset ids.

Construction itself is **columnar**: phase 1 plans the iteration and
assigns vertex bits, phase 2 collects, per ``(coreset, leafset)`` row,
the full sorted bit list and materialises the rows with bulk
``MaskBackend.make_batch`` calls, taking row frequencies from batch
lengths instead of per-bit increments.  The construction equivalence
suite pins it to a one-triple-at-a-time reference builder,
``tests/oracles.py::triples_database``.

Invariants maintained by this class (checked by :meth:`validate`):

* for a given coreset and vertex, each adjacent leaf value is covered
  by exactly one row (cover uniqueness);
* ``coreset_frequency[Sc] == sum of row frequencies of Sc`` at all
  times (the paper's note that ``sum_i l_ij == c_j``);
* position sets are never empty (empty rows are dropped).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as _np

from repro.core.candidates import LeafsetInterner, leafset_sort_key
from repro.core.masks import MaskBackend, BigintMaskBackend, bigint_mask_bytes
from repro.errors import MiningError
from repro.graphs.attributed_graph import AttributedGraph
from repro.obs import current

Value = Hashable
Vertex = Hashable
LeafKey = FrozenSet[Value]
CoreKey = FrozenSet[Value]
RowKey = Tuple[CoreKey, LeafKey]
Mask = object


@dataclass
class MergeOutcome:
    """What a merge did: the new leafset, and per-coreset bookkeeping.

    ``touched_coresets`` lists the common coresets whose rows
    intersected (``xye > 0``), in the order the merge visited them
    (``leafset_sort_key`` order); the merge moved positions under
    exactly these.

    ``touched_row_unions`` maps each participating leafset (the two
    merged leafsets and the merged result) to the union bitmask of its
    rows under the *touched* coresets — for the survivors the pre-merge
    rows, for the new leafset the post-merge rows (which contain the
    pre-merge ones).  A third leafset's gain against a participant can
    only have changed if its positions intersect this mask (every gain
    term requires a non-empty per-coreset intersection), which is what
    lets the lazy refresh skip provably-unchanged pairs with one AND.
    The masks are values of the owning database's mask backend.

    ``touched_core_rows`` is the per-coreset refinement of the same
    information: for each participating leafset, the list of
    ``(coreset, row mask)`` pairs over the touched coresets — the
    survivors' *pre-merge* rows (which contain their post-merge
    remainders), the new leafset's *post-merge* rows.  A pair's gain
    can only have changed if some touched coreset's role row intersects
    the partner's row *at that same coreset*, which is strictly sharper
    than the whole-union test.  Masks are references into the merge's
    own working values — never mutated, safe to hold.
    """

    leaf_x: LeafKey
    leaf_y: LeafKey
    new_leafset: LeafKey
    touched_coresets: List[CoreKey] = field(default_factory=list)
    removed_leafsets: Set[LeafKey] = field(default_factory=set)
    touched_row_unions: Dict[LeafKey, Mask] = field(default_factory=dict)
    touched_core_rows: Dict[LeafKey, List[Tuple[CoreKey, Mask]]] = field(
        default_factory=dict
    )

    @property
    def partly_merged_leafsets(self) -> Set[LeafKey]:
        """Leafsets of the pair that survive with reduced frequency."""
        return {self.leaf_x, self.leaf_y} - self.removed_leafsets


class InvertedDatabase:
    """Mutable inverted database over which CSPM searches.

    Rows are keyed by leafset, then coreset (:meth:`rows_of`); each
    coreset's leafsets are indexed by interned id
    (:meth:`coreset_leaf_ids`) for candidate generation.
    """

    def __init__(self, mask_backend: Optional[MaskBackend] = None) -> None:
        # The position-mask representation strategy.  Backends are
        # stateless; masks held in ``_leaf_rows``/``_leaf_union`` are
        # values interpreted through this object only.  After
        # construction all mask operations are pure, so ``copy`` shares
        # mask values.
        self._masks: MaskBackend = (
            mask_backend if mask_backend is not None else BigintMaskBackend()
        )
        # The one row store: leafset -> {coreset: (mask, frequency)}.
        # The frequency is the mask's popcount, kept so gain evaluation
        # reads an int.  Gain terms accumulate in each row map's
        # insertion order, so it must be deterministic and survive
        # copies; a leafset with no rows has no entry.
        self._leaf_rows: Dict[LeafKey, Dict[CoreKey, Tuple[Mask, int]]] = {}
        self._core_freq: Dict[CoreKey, int] = {}
        self._vertex_ids: List[Vertex] = []
        self._vertex_bit: Dict[Vertex, int] = {}
        # Union of a leafset's row positions over all its coresets.
        # Disjoint unions imply zero gain, which lets candidate
        # generation and gain evaluation short-circuit with a single
        # AND (most pairs in community-structured graphs are disjoint).
        self._leaf_union: Dict[LeafKey, Mask] = {}
        # Stable integer leafset ids: initial leafsets are interned in
        # repr-sorted order at construction, merged leafsets at merge
        # time, so ordering is deterministic and hash-seed-independent
        # while comparisons stay integer ops.
        self._interner = LeafsetInterner()
        # Per-coreset sorted leafset-id lists, the adjacency candidate
        # generation enumerates.  Maintained incrementally: a merge
        # touches only its common coresets, so only those lists change.
        self._core_leaf_ids: Dict[CoreKey, List[int]] = {}
        # Merge epochs.  ``_merge_index`` counts merges; a coreset's
        # epoch is the index of the last merge that changed its rows or
        # frequency, a leafset's epoch the index of the last merge it
        # participated in (as a source or as the merged result).  A
        # stored gain for a pair is stale exactly when some common
        # coreset's epoch passed the gain's validation point — the O(1)
        # per-coreset lookups behind CSPM-Partial's lazy refresh.
        self._merge_index: int = 0
        self._core_epoch: Dict[CoreKey, int] = {}
        self._leaf_epoch: Dict[LeafKey, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(
        cls,
        graph: AttributedGraph,
        coreset_positions: Optional[Mapping[CoreKey, Iterable[Vertex]]] = None,
        mask_backend: Optional[MaskBackend] = None,
    ) -> "InvertedDatabase":
        """Build the initial inverted database from an attributed graph.

        Parameters
        ----------
        graph:
            The input attributed graph.
        coreset_positions:
            Optional mapping ``coreset -> vertices`` produced by a
            multi-value coreset encoder (Section IV-F, step 1).  When
            omitted, every attribute value is its own singleton coreset
            at every vertex carrying it.
        mask_backend:
            The position-mask representation (:mod:`repro.core.masks`);
            defaults to whole-graph bigint masks.

        Every initial row is ``(Sc, {leaf value})`` with positions the
        vertices where ``Sc`` holds and some neighbour carries the leaf
        value.
        """
        db = cls(mask_backend=mask_backend)
        if coreset_positions is None:
            coreset_positions = {
                frozenset([value]): vertices
                for value, vertices in graph.value_positions().items()
            }
        obs = current()
        # Phase 1's per-vertex work is fused into the row loop:
        # neighbour values are computed and the bit assigned on each
        # vertex's first encounter, which happens in exactly the order
        # the separate planning pass would have used (plan order,
        # members in order, values-carrying vertices only).
        with obs.span("build.plan"):
            plan = db._plan_coresets(coreset_positions)
        with obs.span("build.rows", coresets=len(plan)):
            db._build_rows(plan, graph)
        db._finalise_construction()
        return db

    def _plan_coresets(
        self, coreset_positions: Mapping[CoreKey, Iterable[Vertex]]
    ) -> Dict[CoreKey, List[Vertex]]:
        """The (coreset, sorted members) iteration plan, keys sorted.

        Pure ordering work — no per-vertex graph access; the builder
        fuses that into the row loop.
        """
        plan: Dict[CoreKey, List[Vertex]] = {}
        for coreset, vertices in sorted(
            coreset_positions.items(), key=lambda kv: _key_of(kv[0])
        ):
            core_key = frozenset(coreset)
            if not core_key:
                raise MiningError("empty coreset is not allowed")
            members = sorted(vertices, key=repr)
            if core_key in plan:
                plan[core_key].extend(members)
            else:
                plan[core_key] = members
        return plan

    def _vertex_info(
        self,
        vertex: Vertex,
        neighbor_values: Callable[[Vertex], FrozenSet[Value]],
        ordinal_of: Dict[Value, int],
    ) -> Tuple:
        """First-encounter record: ``(bit, ordinals, [bit]*k)`` or ``()``.

        Bit assignment happens here, at a vertex's first encounter in
        plan order over per-coreset member order, and only for vertices
        with neighbour values.
        """
        values = neighbor_values(vertex)
        if not values:
            return ()
        bit = self._vertex_bit.get(vertex)
        if bit is None:
            bit = len(self._vertex_ids)
            self._vertex_bit[vertex] = bit
            self._vertex_ids.append(vertex)
        ordinals = [ordinal_of[value] for value in values]
        return (bit, ordinals, [bit] * len(ordinals))

    @staticmethod
    def _dedupe_members(members: List[Vertex]) -> List[Vertex]:
        """Drop duplicate vertices, preserving order (rare path).

        Two ``coreset_positions`` keys can collapse to one frozenset
        (and an iterable may repeat a vertex); row bit lists must stay
        duplicate-free for batch lengths to be frequencies.
        """
        if len(members) > 1 and len(members) != len(set(members)):
            seen: Set[Vertex] = set()
            return [v for v in members if not (v in seen or seen.add(v))]
        return members

    #: Triples buffered between vectorised grouping flushes.  Blocks
    #: end on coreset boundaries, so the cap bounds transient memory
    #: (three int64 arrays plus the decoded bit list) without ever
    #: splitting a coreset across flushes.
    _GROUP_BLOCK_TRIPLES = 2_000_000

    def _build_rows(
        self, plan: Mapping[CoreKey, List[Vertex]], graph: AttributedGraph
    ) -> None:
        """Phase 2, columnar: flat (core, leaf, bit) triple columns, one
        sort per block, rows read off the group boundaries.

        The collect loop does three C-level ``extend`` calls per
        (coreset, vertex) pair instead of one dict probe per triple; a
        coreset's triple count is its frequency.  The sort then delivers
        every row's bit list already ascending and in global (coreset,
        leafset) order, so each leafset's row map receives its coresets
        in plan order.  Masks are built with bulk ``make_batch`` calls
        and row frequencies are group lengths.
        """
        # Dense leaf ordinals in global ``_key_of`` order (for the
        # singleton leafsets of construction that is repr order of the
        # value): the hot loops then handle small ints instead of
        # frozensets, and row ordering reduces to int comparisons — no
        # key function, no repr recomputation.
        ordered_values = sorted(graph.attribute_values(), key=repr)
        ordinal_of = {value: i for i, value in enumerate(ordered_values)}
        ordinal_rows: List[Dict[CoreKey, Tuple[Mask, int]]] = [
            {} for _ in ordered_values
        ]
        neighbor_values = graph.neighbor_values
        make_batch = self._masks.make_batch
        core_freq = self._core_freq
        vertex_rowinfo: Dict[Vertex, Tuple] = {}
        core_keys: List[CoreKey] = []
        cores_flat: List[int] = []
        ords_flat: List[int] = []
        bits_flat: List[int] = []
        cores_extend = cores_flat.extend
        ords_extend = ords_flat.extend
        bits_extend = bits_flat.extend

        def flush() -> None:
            count = len(cores_flat)
            if not count:
                return
            cores_a = _np.array(cores_flat, dtype=_np.int64)
            ords_a = _np.array(ords_flat, dtype=_np.int64)
            bits_a = _np.array(bits_flat, dtype=_np.int64)
            del cores_flat[:], ords_flat[:], bits_flat[:]
            # One radix sort on a packed (core, leaf, bit) key beats
            # three lexsort passes when the key fits a machine word;
            # the widths come from the actual block maxima.
            bit_width = int(bits_a.max()).bit_length()
            ord_width = int(ords_a.max()).bit_length()
            core_width = int(cores_a.max()).bit_length()
            if bit_width + ord_width + core_width <= 62:
                packed = (
                    (cores_a << (ord_width + bit_width))
                    | (ords_a << bit_width)
                    | bits_a
                )
                order = _np.argsort(packed, kind="stable")
            else:  # pragma: no cover - >2^62 key space
                order = _np.lexsort((bits_a, ords_a, cores_a))
            cores_a = cores_a[order]
            ords_a = ords_a[order]
            bits_a = bits_a[order]
            row_change = _np.empty(count, dtype=bool)
            row_change[0] = True
            _np.not_equal(ords_a[1:], ords_a[:-1], out=row_change[1:])
            row_change[1:] |= cores_a[1:] != cores_a[:-1]
            starts = _np.flatnonzero(row_change)
            counts_a = _np.diff(_np.append(starts, count))
            bits_list = bits_a.tolist()
            bounds = starts.tolist()
            bounds.append(count)
            built = make_batch(
                [bits_list[bounds[i] : bounds[i + 1]] for i in range(len(starts))]
            )
            for core_index, ordinal, mask, frequency in zip(
                cores_a[starts].tolist(),
                ords_a[starts].tolist(),
                built,
                counts_a.tolist(),
            ):
                ordinal_rows[ordinal][core_keys[core_index]] = (mask, frequency)

        block_cap = self._GROUP_BLOCK_TRIPLES
        for core_key, members in plan.items():
            members = self._dedupe_members(members)
            core_index = len(core_keys)
            core_keys.append(core_key)
            before = len(ords_flat)
            for vertex in members:
                info = vertex_rowinfo.get(vertex)
                if info is None:
                    info = vertex_rowinfo[vertex] = self._vertex_info(
                        vertex, neighbor_values, ordinal_of
                    )
                if not info:
                    continue
                ords_extend(info[1])
                bits_extend(info[2])
            added = len(ords_flat) - before
            if added:
                core_freq[core_key] = added
                cores_extend(repeat(core_index, added))
                if len(cores_flat) >= block_cap:
                    flush()
        flush()
        # A union is the OR of the leafset's rows; a single-row leafset
        # shares the row's mask value outright, which is safe because
        # every post-construction mask operation is pure.
        or_ = self._masks.or_
        for value, rows in zip(ordered_values, ordinal_rows):
            if not rows:
                continue
            leaf = frozenset((value,))
            self._leaf_rows[leaf] = rows
            masks = iter(rows.values())
            union = next(masks)[0]
            for mask, _frequency in masks:
                union = or_(union, mask)
            self._leaf_union[leaf] = union

    def _finalise_construction(self) -> None:
        """The epilogue of :meth:`from_graph`.

        Interns the initial leafsets in repr-sorted order — first-sight
        ids then coincide with the repr ordering the seed used, so
        seeding-time tie-breaks are unchanged and independent of the
        (hash-seed-dependent) set iteration order — and builds the
        per-coreset sorted id lists.
        """
        self._interner.intern_all(sorted(self._leaf_rows, key=_key_of))
        self._core_leaf_ids = self._leaf_id_lists()

    def _leaf_id_lists(self) -> Dict[CoreKey, List[int]]:
        """Each coreset's leafset ids, derived from the rows.

        Leafsets are walked in interned-id order, so every list comes
        out ascending.  Every leafset must already be interned.
        """
        id_lists: Dict[CoreKey, List[int]] = {}
        intern = self._interner.intern
        for leaf in self._interner.order(self._leaf_rows):
            leaf_id = intern(leaf)
            for core in self._leaf_rows[leaf]:
                ids = id_lists.get(core)
                if ids is None:
                    id_lists[core] = [leaf_id]
                else:
                    ids.append(leaf_id)
        return id_lists

    def _to_vertices(self, mask: Mask) -> FrozenSet[Vertex]:
        ids = self._vertex_ids
        return frozenset(ids[bit] for bit in self._masks.iter_bits(mask))

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return sum(map(len, self._leaf_rows.values()))

    def __len__(self) -> int:
        return self.num_rows

    def rows(self) -> Iterator[Tuple[CoreKey, LeafKey, FrozenSet[Vertex]]]:
        """Iterate ``(coreset, leafset, positions)`` over all rows."""
        for leaf, rows in self._leaf_rows.items():
            for core, (mask, _frequency) in rows.items():
                yield core, leaf, self._to_vertices(mask)

    def row_items(self) -> Iterator[Tuple[CoreKey, LeafKey, int]]:
        """Iterate ``(coreset, leafset, frequency)`` without decoding."""
        for leaf, rows in self._leaf_rows.items():
            for core, (_mask, frequency) in rows.items():
                yield core, leaf, frequency

    def rows_of(self, leaf: LeafKey) -> Mapping[CoreKey, Tuple[Mask, int]]:
        """``{coreset: (row mask, row frequency)}`` of ``leaf`` (do not mutate).

        In the row map's insertion order, the order gain terms are
        summed in; empty for a leafset with no rows.  The masks are
        values of :attr:`mask_backend`, read-only like every mask the
        database hands out.
        """
        return self._leaf_rows.get(leaf, _NO_ROWS)

    @property
    def mask_backend(self) -> MaskBackend:
        """The position-mask representation this database was built on."""
        return self._masks

    @property
    def num_position_bits(self) -> int:
        """Width of the vertex order (bits a whole-graph mask spans)."""
        return len(self._vertex_ids)

    @property
    def num_leafsets(self) -> int:
        """Number of distinct live leafsets (O(1))."""
        return len(self._leaf_rows)

    def vertex_bit_table(self) -> Mapping[Vertex, int]:
        """The shared vertex -> bit index table (do not mutate).

        Precomputed once per construction; every mask the database owns
        is expressed over this one order, so backends (and any external
        mask consumer) can translate vertices to bits without touching
        backend internals.
        """
        return self._vertex_bit

    def _masks_held(self) -> Iterator[Mask]:
        """Every row mask, then every leafset-union mask."""
        for rows in self._leaf_rows.values():
            for mask, _frequency in rows.values():
                yield mask
        yield from self._leaf_union.values()

    def mask_memory_bytes(self) -> int:
        """Estimated bytes held by all row and union masks right now."""
        return sum(map(self._masks.mask_bytes, self._masks_held()))

    def bigint_mask_bytes_estimate(self) -> int:
        """What these same masks would cost on the bigint backend.

        The reference the perf suite's mask-memory reduction ratio is
        measured against.  Each mask is priced at its actual bit span
        (a Python int only pays up to its highest set bit), so this is
        exactly the total ``BigintMaskBackend.mask_bytes`` would report
        for an identical database — not an ``O(|V|)``-per-mask
        overstatement.
        """
        span_of = self._masks.bit_span
        return sum(
            bigint_mask_bytes(max(1, span_of(mask))) for mask in self._masks_held()
        )

    @property
    def interner(self) -> LeafsetInterner:
        """The database's leafset-id registry (ordering authority)."""
        return self._interner

    @property
    def merge_epoch(self) -> int:
        """The number of merges performed so far (the current epoch)."""
        return self._merge_index

    def core_epoch(self, core: CoreKey) -> int:
        """Epoch of the last merge that touched ``core`` (0 = never)."""
        return self._core_epoch.get(core, 0)

    def leaf_epoch(self, leaf: LeafKey) -> int:
        """Epoch of the last merge ``leaf`` participated in (0 = never).

        A leafset's rows — and hence its coreset membership — change
        only in merges it participates in, so this single int validates
        any per-leafset derived data.
        """
        return self._leaf_epoch.get(leaf, 0)

    def leafsets(self) -> List[LeafKey]:
        """All distinct leafsets currently present."""
        return list(self._leaf_rows)

    def coreset_leaf_ids(self) -> Mapping[CoreKey, List[int]]:
        """Per-coreset sorted interned leafset ids (do not mutate).

        The live coreset -> leafsets adjacency, kept sorted
        incrementally so candidate generation never re-sorts it; this
        is what :func:`repro.core.pairgen.overlap_pairs` enumerates
        instead of the quadratic all-pairs scan.
        """
        return self._core_leaf_ids

    def coresets(self) -> List[CoreKey]:
        """All coresets with at least one row."""
        return [core for core, freq in self._core_freq.items() if freq > 0]

    def coresets_of(self, leaf: LeafKey) -> FrozenSet[CoreKey]:
        """Coresets that have a row with leafset ``leaf``."""
        return frozenset(self._leaf_rows.get(leaf, ()))

    def leafsets_of(self, core: CoreKey) -> FrozenSet[LeafKey]:
        """Leafsets that have a row with coreset ``core``."""
        return frozenset(
            map(self._interner.leafset_of, self._core_leaf_ids.get(core, ()))
        )

    def related_leafsets(self, leaf: LeafKey) -> FrozenSet[LeafKey]:
        """All other leafsets sharing at least one coreset with ``leaf``.

        Only such leafsets can ever have a positive merge gain with
        ``leaf`` (the observation behind CSPM-Partial, Section V).
        """
        related: Set[LeafKey] = set()
        for core in self._leaf_rows.get(leaf, ()):
            related |= self.leafsets_of(core)
        related.discard(leaf)
        return frozenset(related)

    def positions(self, core: CoreKey, leaf: LeafKey) -> FrozenSet[Vertex]:
        """Positions of row ``(core, leaf)`` (empty if absent)."""
        row = self._leaf_rows.get(leaf, _NO_ROWS).get(core)
        return frozenset() if row is None else self._to_vertices(row[0])

    def row_frequency(self, core: CoreKey, leaf: LeafKey) -> int:
        """``fL`` of the row (0 if the row does not exist)."""
        row = self._leaf_rows.get(leaf, _NO_ROWS).get(core)
        return 0 if row is None else row[1]

    def row_mask(self, core: CoreKey, leaf: LeafKey) -> Optional[Mask]:
        """The row's raw position mask, or ``None`` when absent.

        A backend value of :attr:`mask_backend` — read-only, like every
        mask the database hands out.
        """
        row = self._leaf_rows.get(leaf, _NO_ROWS).get(core)
        return None if row is None else row[0]

    def coreset_frequency(self, core: CoreKey) -> int:
        """``fc``: total row frequency of ``core`` (== sum_i l_ic)."""
        return self._core_freq.get(core, 0)

    def total_frequency(self) -> int:
        """``s``: the sum of all row frequencies (Eq. 7)."""
        return sum(self._core_freq.values())

    def has_leafset(self, leaf: LeafKey) -> bool:
        """Whether any row currently uses leafset ``leaf``."""
        return leaf in self._leaf_rows

    def common_coresets(self, leaf_x: LeafKey, leaf_y: LeafKey) -> List[CoreKey]:
        """Coresets having rows for both leafsets (the paper's ``C``)."""
        rows_x = self._leaf_rows.get(leaf_x)
        rows_y = self._leaf_rows.get(leaf_y)
        if not rows_x or not rows_y:
            return []
        if len(rows_x) > len(rows_y):
            rows_x, rows_y = rows_y, rows_x
        return [core for core in rows_x if core in rows_y]

    # ------------------------------------------------------------------
    # Merge mechanics
    # ------------------------------------------------------------------

    def merge(self, leaf_x: LeafKey, leaf_y: LeafKey) -> MergeOutcome:
        """Merge two leafsets globally across all common coresets.

        For every common coreset ``e`` with a non-empty position
        intersection, the intersection moves into the row
        ``(e, leaf_x | leaf_y)`` and is removed from both source rows;
        emptied rows are dropped.  Returns the :class:`MergeOutcome`
        describing what happened.
        """
        if leaf_x == leaf_y:
            raise MiningError("cannot merge a leafset with itself")
        leaf_rows = self._leaf_rows
        rows_x = leaf_rows.get(leaf_x)
        rows_y = leaf_rows.get(leaf_y)
        if rows_x is None or rows_y is None:
            raise MiningError("both leafsets must exist in the database")
        new_leaf = leaf_x | leaf_y
        # Register the merged leafset now: merge order is deterministic,
        # so first-sight ids stay deterministic too.
        new_id = self._interner.intern(new_leaf)
        intern = self._interner.intern
        self._merge_index += 1
        epoch = self._merge_index
        outcome = MergeOutcome(leaf_x=leaf_x, leaf_y=leaf_y, new_leafset=new_leaf)
        masks = self._masks
        union_x = masks.empty()
        union_y = masks.empty()
        union_new = masks.empty()
        rows_new = leaf_rows.get(new_leaf)
        core_freq = self._core_freq
        core_rows_x: List[Tuple[CoreKey, Mask]] = []
        core_rows_y: List[Tuple[CoreKey, Mask]] = []
        core_rows_new: List[Tuple[CoreKey, Mask]] = []
        touched = outcome.touched_coresets
        for core in sorted(self.common_coresets(leaf_x, leaf_y), key=_key_of):
            px, xe = rows_x[core]
            py, ye = rows_y[core]
            inter = masks.and_(px, py)
            count = masks.popcount(inter)
            if not count:
                continue
            touched.append(core)
            self._core_epoch[core] = epoch
            union_x = masks.or_(union_x, px)
            union_y = masks.or_(union_y, py)
            core_rows_x.append((core, px))
            core_rows_y.append((core, py))
            if rows_new is None:
                rows_new = leaf_rows[new_leaf] = {}
            target = rows_new.get(core)
            if target is None:
                rows_new[core] = (inter, count)
                union_new = masks.or_(union_new, inter)
                core_rows_new.append((core, inter))
                insort(self._core_leaf_ids[core], new_id)
            else:
                # Disjointness holds because per (coreset, vertex) each
                # leaf value is covered by exactly one row.  Reassigning
                # the key keeps its slot in the row map.
                merged = masks.or_(target[0], inter)
                rows_new[core] = (merged, target[1] + count)
                union_new = masks.or_(union_new, merged)
                core_rows_new.append((core, merged))
            # Each merged position replaces two row usages by one.
            core_freq[core] -= count
            for leaf, rows, mask, frequency in (
                (leaf_x, rows_x, px, xe),
                (leaf_y, rows_y, py, ye),
            ):
                remaining = masks.andnot(mask, inter)
                if not masks.is_empty(remaining):
                    rows[core] = (remaining, frequency - count)
                    continue
                del rows[core]
                self._core_leaf_ids[core].remove(intern(leaf))
                if not rows:
                    del leaf_rows[leaf]
                    del self._leaf_union[leaf]
                    outcome.removed_leafsets.add(leaf)
        if core_rows_new:
            outcome.touched_row_unions = {
                leaf_x: union_x,
                leaf_y: union_y,
                new_leaf: union_new,
            }
            outcome.touched_core_rows = {
                leaf_x: core_rows_x,
                leaf_y: core_rows_y,
                new_leaf: core_rows_new,
            }
            self._leaf_epoch[leaf_x] = epoch
            self._leaf_epoch[leaf_y] = epoch
            self._leaf_epoch[new_leaf] = epoch
        # Refresh the union masks of the leafsets the merge touched.
        for leaf in (leaf_x, leaf_y, new_leaf):
            rows = leaf_rows.get(leaf)
            if rows:
                union = masks.empty()
                for mask, _frequency in rows.values():
                    union = masks.or_(union, mask)
                self._leaf_union[leaf] = union
        return outcome

    def leaf_union_mask(self, leaf: LeafKey) -> Mask:
        """Union bitmask of the leafset's positions over all coresets.

        An empty mask (of the database's backend) when the leafset has
        no rows.
        """
        found = self._leaf_union.get(leaf)
        return found if found is not None else self._masks.empty()

    # ------------------------------------------------------------------
    # Validation / export
    # ------------------------------------------------------------------

    def validate(self, graph: Optional[AttributedGraph] = None) -> None:
        """Check structural invariants; raise :class:`MiningError` if broken.

        Every row is non-empty with its popcount as frequency, every
        leafset has rows, is interned and carries the union of its rows
        (and only leafsets with rows carry one), coreset frequencies sum
        their rows, and the per-coreset id lists equal the adjacency the
        rows define.  With ``graph`` given, also checks losslessness for
        singleton coresets: the union of rows reconstructs exactly the
        initial (core value, vertex) -> adjacent-leaf-values relation.
        """
        masks = self._masks
        recomputed: Dict[CoreKey, int] = {}
        for leaf, rows in self._leaf_rows.items():
            if not rows:
                raise MiningError(f"leafset {set(leaf)} has no rows")
            if leaf not in self._interner:
                raise MiningError(f"leafset {set(leaf)} missing from interner")
            union = masks.empty()
            for core, (mask, frequency) in rows.items():
                if masks.is_empty(mask):
                    raise MiningError(f"empty row {(core, leaf)}")
                if masks.popcount(mask) != frequency:
                    raise MiningError(f"stale row frequency for {(core, leaf)}")
                recomputed[core] = recomputed.get(core, 0) + frequency
                union = masks.or_(union, mask)
            if not masks.equals(self.leaf_union_mask(leaf), union):
                raise MiningError(f"stale union mask for leafset {set(leaf)}")
        extra = self._leaf_union.keys() - self._leaf_rows.keys()
        if extra:
            leaf = min(extra, key=_key_of)
            raise MiningError(f"union mask kept for leafset {set(leaf)} with no rows")
        active = {c: f for c, f in self._core_freq.items() if f > 0}
        if recomputed != active:
            raise MiningError("coreset frequencies out of sync with rows")
        expected = self._leaf_id_lists()
        for core in expected.keys() | self._core_leaf_ids.keys():
            if self._core_leaf_ids.get(core) != expected.get(core):
                raise MiningError(f"stale sorted id list for coreset {set(core)}")
        if graph is not None:
            self._validate_lossless(graph)

    def _validate_lossless(self, graph: AttributedGraph) -> None:
        """Cover uniqueness + exact reconstruction for singleton coresets."""
        covered: Dict[Tuple[CoreKey, Vertex], Set[Value]] = {}
        for core, leaf, positions in self.rows():
            for vertex in positions:
                slot = covered.setdefault((core, vertex), set())
                if slot & leaf:
                    raise MiningError(
                        f"leaf values {slot & leaf} covered twice at "
                        f"vertex {vertex!r} for coreset {set(core)}"
                    )
                slot |= leaf
        for (core, vertex), values in covered.items():
            if len(core) != 1:
                continue
            (core_value,) = core
            if core_value not in graph.attributes_of(vertex):
                raise MiningError(
                    f"row places coreset {set(core)} at vertex {vertex!r} "
                    "which does not carry it"
                )
            expected = graph.neighbor_values(vertex)
            if values != expected:
                raise MiningError(
                    f"reconstruction mismatch at vertex {vertex!r}: "
                    f"covered {values} != neighbourhood {set(expected)}"
                )

    def snapshot(self) -> Dict[RowKey, FrozenSet[Vertex]]:
        """An immutable copy of all rows (for tests and debugging)."""
        return {(core, leaf): positions for core, leaf, positions in self.rows()}

    def copy(self) -> "InvertedDatabase":
        """An independent deep copy (merges on it leave self intact).

        Mask values are shared, not duplicated: every post-construction
        mask operation is pure (see :mod:`repro.core.masks.base`), so
        merging on either copy replaces masks instead of mutating them.
        """
        db = InvertedDatabase(mask_backend=self._masks)
        db._leaf_rows = {leaf: dict(rows) for leaf, rows in self._leaf_rows.items()}
        db._core_freq = dict(self._core_freq)
        db._vertex_ids = list(self._vertex_ids)
        db._vertex_bit = dict(self._vertex_bit)
        db._leaf_union = dict(self._leaf_union)
        db._interner = self._interner.copy()
        db._core_leaf_ids = {
            core: list(ids) for core, ids in self._core_leaf_ids.items()
        }
        db._merge_index = self._merge_index
        db._core_epoch = dict(self._core_epoch)
        db._leaf_epoch = dict(self._leaf_epoch)
        return db

    def restricted_copy(self, leafsets: Iterable[LeafKey]) -> "InvertedDatabase":
        """An independent database holding only ``leafsets`` and their rows.

        The sub-database behind the component-sharded search: given a
        *coreset-closed* leafset set (every coreset reachable from a
        member has all of its leafsets in the set — exactly what a
        connected component of the coreset-sharing graph is), the copy
        behaves identically to the full database restricted to those
        leafsets: same rows in the same row-map order, same coreset
        frequencies, and a fresh interner whose first-sight ids are the
        repr-sorted order of the member leafsets — order-isomorphic to
        the parent's ids restricted to the set, so pair tie-breaks
        agree.  Mask values, the vertex->bit table and the vertex order
        are shared (all post-construction mask ops are pure).  Epochs
        restart at zero.

        Raises :class:`MiningError` when the set is not coreset-closed
        (a merge outside the set could then change these rows' gains).
        """
        keep = set(leafsets)
        ordered = sorted(keep, key=_key_of)
        db = InvertedDatabase(mask_backend=self._masks)
        db._vertex_ids = self._vertex_ids
        db._vertex_bit = self._vertex_bit
        leafset_of = self._interner.leafset_of
        for leaf in ordered:
            rows = self._leaf_rows.get(leaf)
            if rows is None:
                raise MiningError(
                    f"leafset {set(leaf)} not present in the database"
                )
            db._leaf_rows[leaf] = dict(rows)
            db._leaf_union[leaf] = self._leaf_union[leaf]
            for core in rows:
                if core in db._core_freq:
                    continue
                if not all(
                    leafset_of(i) in keep for i in self._core_leaf_ids[core]
                ):
                    raise MiningError(
                        "restricted_copy requires a coreset-closed leafset "
                        f"set: coreset {set(core)} has leafsets outside it"
                    )
                db._core_freq[core] = self._core_freq[core]
        db._interner.intern_all(ordered)
        db._core_leaf_ids = db._leaf_id_lists()
        return db

    def adopt_components(self, parts: Iterable[Tuple], merges: int) -> None:
        """Take over the final state of independently searched components.

        The inverse of :meth:`restricted_copy`: this database's leafsets
        were partitioned into coreset-closed components, each searched
        on its own restricted copy, and ``merges`` merges happened in
        all.  ``parts`` yields one ``(state, ids, epochs)`` per
        component.  ``state`` carries the copy's final columns as
        attributes — ``leafsets`` (its interner table), ``leaf_rows``,
        ``core_freq``, ``leaf_union``, ``core_leaf_ids``, ``core_epoch``
        and ``leaf_epoch`` (see
        :class:`repro.core.search_shard.ComponentRun`).  ``ids[i]`` is
        this database's interned id of the copy's local id ``i``, and
        ``epochs[k]`` this database's merge index of the copy's
        ``k``-th merge.

        Row maps (each in its own order), frequencies and union masks
        are taken over as they are; the per-coreset id lists and the
        merge epochs are translated.  ``ids`` must be increasing — true
        when merged leafsets were interned here in a merge order that
        keeps each component's own — so translated id lists stay sorted.
        The vertex order and the interner stay this database's own.
        """
        leaf_rows: Dict[LeafKey, Dict[CoreKey, Tuple[Mask, int]]] = {}
        core_freq: Dict[CoreKey, int] = {}
        leaf_union: Dict[LeafKey, Mask] = {}
        core_leaf_ids: Dict[CoreKey, List[int]] = {}
        core_epoch: Dict[CoreKey, int] = {}
        leaf_epoch: Dict[LeafKey, int] = {}
        for state, ids, epochs in parts:
            leaf_rows.update(state.leaf_rows)
            core_freq.update(state.core_freq)
            leaf_union.update(state.leaf_union)
            global_id = ids.__getitem__
            for core, local_ids in state.core_leaf_ids.items():
                core_leaf_ids[core] = list(map(global_id, local_ids))
            for core, epoch in state.core_epoch.items():
                core_epoch[core] = epochs[epoch]
            for leaf, epoch in state.leaf_epoch.items():
                leaf_epoch[leaf] = epochs[epoch]
        self._leaf_rows = leaf_rows
        self._core_freq = core_freq
        self._leaf_union = leaf_union
        self._core_leaf_ids = core_leaf_ids
        self._core_epoch = core_epoch
        self._leaf_epoch = leaf_epoch
        self._merge_index = merges

    def __repr__(self) -> str:
        return (
            f"InvertedDatabase(rows={self.num_rows}, "
            f"leafsets={len(self._leaf_rows)}, "
            f"coresets={len(self.coresets())}, s={self.total_frequency()})"
        )


# The deterministic frozenset sort key: construction, the interner's
# initial ids and ``mdl.canonical_order`` all order sets by it.
_key_of = leafset_sort_key

# The row map of a leafset with no rows; shared, so never mutated.
_NO_ROWS: Mapping[CoreKey, Tuple[Mask, int]] = MappingProxyType({})
