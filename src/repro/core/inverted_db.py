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

Construction itself is **columnar**: phase 1 plans the iteration and
assigns vertex bits, phase 2 collects, per ``(coreset, leafset)`` row,
the full sorted bit list and materialises each coreset's rows with one
bulk ``MaskBackend.make_batch`` call, deriving row/coreset frequencies
from batch lengths instead of per-bit increments.  The construction
equivalence suite pins it to a one-triple-at-a-time reference builder,
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


@dataclass(frozen=True)
class CoresetMergeStats:
    """Per-coreset statistics of one merge, feeding Eq. 10-15.

    ``fe`` is the coreset frequency before the merge, ``xe``/``ye`` the
    frequencies of the two merged rows, ``xye`` their co-occurrence
    (position-set intersection size).
    """

    coreset: CoreKey
    fe: int
    xe: int
    ye: int
    xye: int

    @property
    def case(self) -> str:
        """Which of the paper's three merge cases applies (or 'none')."""
        if self.xye == 0:
            return "none"
        if self.xye == self.xe and self.xye == self.ye:
            return "total"
        if self.xye == self.xe or self.xye == self.ye:
            return "one-total"
        return "partial"


@dataclass
class MergeOutcome:
    """What a merge did: the new leafset, and per-coreset bookkeeping.

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
    stats: List[CoresetMergeStats] = field(default_factory=list)
    removed_leafsets: Set[LeafKey] = field(default_factory=set)
    touched_row_unions: Dict[LeafKey, Mask] = field(default_factory=dict)
    touched_core_rows: Dict[LeafKey, List[Tuple[CoreKey, Mask]]] = field(
        default_factory=dict
    )

    @property
    def touched_coresets(self) -> List[CoreKey]:
        return [s.coreset for s in self.stats if s.xye > 0]

    @property
    def partly_merged_leafsets(self) -> Set[LeafKey]:
        """Leafsets of the pair that survive with reduced frequency."""
        return {self.leaf_x, self.leaf_y} - self.removed_leafsets


class InvertedDatabase:
    """Mutable inverted database over which CSPM searches.

    Rows are keyed by ``(coreset, leafset)`` frozenset pairs.  The
    class also maintains reverse indexes used by candidate generation:
    leafset -> coresets and coreset -> leafsets.
    """

    def __init__(self, mask_backend: Optional[MaskBackend] = None) -> None:
        # The position-mask representation strategy.  Backends are
        # stateless; masks held in ``_rows``/``_leaf_union`` are values
        # interpreted through this object only.  After construction all
        # mask operations are pure, so ``copy`` shares mask values.
        self._masks: MaskBackend = (
            mask_backend if mask_backend is not None else BigintMaskBackend()
        )
        self._rows: Dict[RowKey, Mask] = {}
        # Values are insertion-ordered coreset "sets" (dict keys -> None):
        # gain terms accumulate over this iteration order, so it must be
        # deterministic and survive copies — plain sets would make the
        # floats depend on the hash seed and the table's history.
        self._leaf_to_cores: Dict[LeafKey, Dict[CoreKey, None]] = {}
        self._core_to_leaves: Dict[CoreKey, Set[LeafKey]] = {}
        self._core_freq: Dict[CoreKey, int] = {}
        self._vertex_ids: List[Vertex] = []
        self._vertex_bit: Dict[Vertex, int] = {}
        # Union of a leafset's row positions over all its coresets.
        # Disjoint unions imply zero gain, which lets candidate
        # generation and gain evaluation short-circuit with a single
        # AND (most pairs in community-structured graphs are disjoint).
        self._leaf_union: Dict[LeafKey, Mask] = {}
        # Row keys in (sorted-coreset, sorted-leafset) order, recorded
        # while ``from_graph`` finalises each coreset — the exact order
        # ``mdl.canonical_order`` gives, captured for free so the
        # initial description length needs no global re-sort.  Valid
        # only for the freshly-built database; dropped on first merge.
        self._initial_row_order: Optional[List[RowKey]] = None
        # Stable integer leafset ids: initial leafsets are interned in
        # repr-sorted order at construction, merged leafsets at merge
        # time, so ordering is deterministic and hash-seed-independent
        # while comparisons stay integer ops.
        self._interner = LeafsetInterner()
        # Per-coreset sorted leafset-id lists, the adjacency candidate
        # generation enumerates.  Maintained incrementally: a merge
        # touches only its common coresets, so only those lists change.
        self._core_leaf_ids: Dict[CoreKey, List[int]] = {}
        # Row popcounts, maintained incrementally so gain evaluation
        # reads an int instead of re-counting big-int masks.
        self._row_freq: Dict[RowKey, int] = {}
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
        (coreset, vertex) pair instead of one dict probe per triple;
        the sort then delivers every row's bit list already ascending
        and in global (coreset, leafset) order, so row keys, counts and
        the construction-order record all fall out of one pass —
        ``mdl.initial_description_length`` accumulates the Eq. 1-8
        terms over exactly this order.  Masks are built with bulk
        ``make_batch`` calls and the frequency bookkeeping
        (``_row_freq``/``_core_freq``) comes from group lengths instead
        of per-bit increments.
        """
        # Dense leaf ordinals in global ``_key_of`` order (for the
        # singleton leafsets of construction that is repr order of the
        # value): the hot loops then handle small ints instead of
        # frozensets, and row ordering reduces to int comparisons — no
        # key function, no repr recomputation.
        ordered_values = sorted(graph.attribute_values(), key=repr)
        ordinal_of = {value: i for i, value in enumerate(ordered_values)}
        leaf_by_ordinal = [frozenset((value,)) for value in ordered_values]
        neighbor_values = graph.neighbor_values
        masks = self._masks
        rows = self._rows
        row_freq = self._row_freq
        leaf_to_cores = self._leaf_to_cores
        core_to_leaves = self._core_to_leaves
        core_freq = self._core_freq
        make_batch = masks.make_batch
        rows_update = rows.update
        row_freq_update = row_freq.update
        vertex_rowinfo: Dict[Vertex, Tuple] = {}
        leaf_masks: Dict[int, List[Mask]] = {}
        row_order: List[RowKey] = []
        row_order_extend = row_order.extend
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
            bit_width = int(bits_a.max()) .bit_length()
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
            num_rows = len(bounds) - 1
            bit_lists = [
                bits_list[bounds[i] : bounds[i + 1]] for i in range(num_rows)
            ]
            built = make_batch(bit_lists)
            row_cores_a = cores_a[starts]
            row_ords_a = ords_a[starts]
            # Row keys, masks, frequencies and the construction-order
            # record all land through C-level bulk calls.
            keys = list(
                zip(
                    map(core_keys.__getitem__, row_cores_a.tolist()),
                    map(leaf_by_ordinal.__getitem__, row_ords_a.tolist()),
                )
            )
            rows_update(zip(keys, built))
            row_freq_update(zip(keys, counts_a.tolist()))
            row_order_extend(keys)
            # Per-coreset totals and leaf sets: a coreset's rows are
            # consecutive after the sort, so one reduceat per block.
            core_row_change = _np.empty(num_rows, dtype=bool)
            core_row_change[0] = True
            _np.not_equal(
                row_cores_a[1:], row_cores_a[:-1], out=core_row_change[1:]
            )
            core_row_starts = _np.flatnonzero(core_row_change)
            core_sums = _np.add.reduceat(counts_a, core_row_starts)
            core_bounds = core_row_starts.tolist()
            core_bounds.append(num_rows)
            for index, total in enumerate(core_sums.tolist()):
                start = core_bounds[index]
                end = core_bounds[index + 1]
                core_key = keys[start][0]
                leaves = {key[1] for key in keys[start:end]}
                have = core_to_leaves.get(core_key)
                if have is None:
                    core_to_leaves[core_key] = leaves
                else:
                    have.update(leaves)
                core_freq[core_key] = core_freq.get(core_key, 0) + total
            # Per-leafset coreset sets and row-mask lists (for the
            # batched unions): group rows by ordinal with one stable
            # argsort per block.
            leaf_order = _np.argsort(row_ords_a, kind="stable")
            sorted_ords = row_ords_a[leaf_order]
            leaf_change = _np.empty(num_rows, dtype=bool)
            leaf_change[0] = True
            _np.not_equal(sorted_ords[1:], sorted_ords[:-1], out=leaf_change[1:])
            leaf_bounds = _np.flatnonzero(leaf_change).tolist()
            leaf_bounds.append(num_rows)
            leaf_order_list = leaf_order.tolist()
            sorted_ords_list = sorted_ords.tolist()
            for group in range(len(leaf_bounds) - 1):
                start = leaf_bounds[group]
                end = leaf_bounds[group + 1]
                ordinal = sorted_ords_list[start]
                leaf = leaf_by_ordinal[ordinal]
                row_indexes = leaf_order_list[start:end]
                row_masks = [built[i] for i in row_indexes]
                cores = dict.fromkeys(keys[i][0] for i in row_indexes)
                have = leaf_to_cores.get(leaf)
                if have is None:
                    leaf_to_cores[leaf] = cores
                    leaf_masks[ordinal] = row_masks
                else:
                    have.update(cores)
                    leaf_masks[ordinal].extend(row_masks)

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
                cores_extend(repeat(core_index, added))
                if len(cores_flat) >= block_cap:
                    flush()
        flush()
        self._materialise_unions(leaf_masks, leaf_by_ordinal)
        self._initial_row_order = row_order

    def _materialise_unions(
        self,
        leaf_masks: Dict[int, List[Mask]],
        leaf_by_ordinal: List[LeafKey],
    ) -> None:
        """Set every per-leafset union mask from its row masks.

        A union is the OR of the leafset's rows over all coresets; a
        single-row leafset shares the row's mask value outright, which
        is safe because every post-construction mask operation is pure
        (``copy`` relies on the same discipline).
        """
        masks = self._masks
        or_ = masks.or_
        leaf_union = self._leaf_union
        for ordinal, row_masks in leaf_masks.items():
            union = row_masks[0]
            for mask in row_masks[1:]:
                union = or_(union, mask)
            leaf_union[leaf_by_ordinal[ordinal]] = union

    def _finalise_construction(self) -> None:
        """The epilogue of :meth:`from_graph`.

        Interns the initial leafsets in repr-sorted order — first-sight
        ids then coincide with the repr ordering the seed used, so
        seeding-time tie-breaks are unchanged and independent of the
        (hash-seed-dependent) set iteration order — and builds the
        per-coreset sorted id lists.
        """
        ordered = sorted(self._leaf_to_cores, key=_key_of)
        self._interner.intern_all(ordered)
        intern = self._interner.intern
        id_of = {leaf: intern(leaf) for leaf in ordered}
        self._core_leaf_ids = {
            core: sorted(id_of[leaf] for leaf in leaves)
            for core, leaves in self._core_to_leaves.items()
        }

    def _to_vertices(self, mask: Mask) -> FrozenSet[Vertex]:
        ids = self._vertex_ids
        return frozenset(ids[bit] for bit in self._masks.iter_bits(mask))

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[Tuple[CoreKey, LeafKey, FrozenSet[Vertex]]]:
        """Iterate ``(coreset, leafset, positions)`` over all rows."""
        for (core, leaf), bits in self._rows.items():
            yield core, leaf, self._to_vertices(bits)

    def row_items(self) -> Iterator[Tuple[CoreKey, LeafKey, int]]:
        """Iterate ``(coreset, leafset, frequency)`` without decoding."""
        for key, frequency in self._row_freq.items():
            yield key[0], key[1], frequency

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
        return len(self._leaf_to_cores)

    def vertex_bit_table(self) -> Mapping[Vertex, int]:
        """The shared vertex -> bit index table (do not mutate).

        Precomputed once per construction; every mask the database owns
        is expressed over this one order, so backends (and any external
        mask consumer) can translate vertices to bits without touching
        backend internals.
        """
        return self._vertex_bit

    def initial_row_order(self) -> Optional[List[RowKey]]:
        """Row keys in global (coreset, leafset) sorted order, or ``None``.

        Available only on a freshly-built database (``from_graph``
        records it as each coreset finalises; the first merge drops
        it).  ``mdl.initial_description_length`` walks this instead of
        re-sorting every row.
        """
        return self._initial_row_order

    def mask_memory_bytes(self) -> int:
        """Estimated bytes held by all row and union masks right now."""
        mask_bytes = self._masks.mask_bytes
        total = 0
        for mask in self._rows.values():
            total += mask_bytes(mask)
        for mask in self._leaf_union.values():
            total += mask_bytes(mask)
        return total

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
        total = 0
        for mask in self._rows.values():
            total += bigint_mask_bytes(max(1, span_of(mask)))
        for mask in self._leaf_union.values():
            total += bigint_mask_bytes(max(1, span_of(mask)))
        return total

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
        any per-leafset derived data (e.g. the gain engine's row views).
        """
        return self._leaf_epoch.get(leaf, 0)

    def leafsets(self) -> List[LeafKey]:
        """All distinct leafsets currently present."""
        return list(self._leaf_to_cores)

    def coreset_leafset_index(self) -> Mapping[CoreKey, Set[LeafKey]]:
        """The live coreset -> leafsets adjacency (do not mutate).

        Maintained incrementally across merges; this is what
        :func:`repro.core.pairgen.overlap_pairs` enumerates instead of
        the quadratic all-pairs scan.
        """
        return self._core_to_leaves

    def coreset_leaf_ids(self) -> Mapping[CoreKey, List[int]]:
        """Per-coreset sorted interned leafset ids (do not mutate).

        The id-level view of :meth:`coreset_leafset_index`, kept sorted
        incrementally so candidate generation never re-sorts adjacency
        lists.
        """
        return self._core_leaf_ids

    def coresets(self) -> List[CoreKey]:
        """All coresets with at least one row."""
        return [core for core, freq in self._core_freq.items() if freq > 0]

    def coresets_of(self, leaf: LeafKey) -> FrozenSet[CoreKey]:
        """Coresets that have a row with leafset ``leaf``."""
        return frozenset(self._leaf_to_cores.get(leaf, ()))

    def leafsets_of(self, core: CoreKey) -> FrozenSet[LeafKey]:
        """Leafsets that have a row with coreset ``core``."""
        return frozenset(self._core_to_leaves.get(core, ()))

    def related_leafsets(self, leaf: LeafKey) -> FrozenSet[LeafKey]:
        """All other leafsets sharing at least one coreset with ``leaf``.

        Only such leafsets can ever have a positive merge gain with
        ``leaf`` (the observation behind CSPM-Partial, Section V).
        """
        related: Set[LeafKey] = set()
        for core in self._leaf_to_cores.get(leaf, ()):
            related |= self._core_to_leaves[core]
        related.discard(leaf)
        return frozenset(related)

    def positions(self, core: CoreKey, leaf: LeafKey) -> FrozenSet[Vertex]:
        """Positions of row ``(core, leaf)`` (empty if absent)."""
        return self._to_vertices(self._rows.get((core, leaf), 0))

    def row_frequency(self, core: CoreKey, leaf: LeafKey) -> int:
        """``fL`` of the row (0 if the row does not exist)."""
        return self._row_freq.get((core, leaf), 0)

    def row_mask(self, core: CoreKey, leaf: LeafKey) -> Optional[Mask]:
        """The row's raw position mask, or ``None`` when absent.

        A backend value of :attr:`mask_backend` — read-only, like every
        mask the database hands out.  The lazy refresh's per-coreset
        touched test reads partner rows through this instead of
        decoding positions.
        """
        return self._rows.get((core, leaf))

    def coreset_frequency(self, core: CoreKey) -> int:
        """``fc``: total row frequency of ``core`` (== sum_i l_ic)."""
        return self._core_freq.get(core, 0)

    def total_frequency(self) -> int:
        """``s``: the sum of all row frequencies (Eq. 7)."""
        return sum(self._core_freq.values())

    def has_leafset(self, leaf: LeafKey) -> bool:
        """Whether any row currently uses leafset ``leaf``."""
        return leaf in self._leaf_to_cores

    def common_coresets(self, leaf_x: LeafKey, leaf_y: LeafKey) -> List[CoreKey]:
        """Coresets having rows for both leafsets (the paper's ``C``)."""
        cores_x = self._leaf_to_cores.get(leaf_x)
        cores_y = self._leaf_to_cores.get(leaf_y)
        if not cores_x or not cores_y:
            return []
        if len(cores_x) > len(cores_y):
            cores_x, cores_y = cores_y, cores_x
        return [core for core in cores_x if core in cores_y]

    # ------------------------------------------------------------------
    # Merge mechanics
    # ------------------------------------------------------------------

    def merge_stats(self, leaf_x: LeafKey, leaf_y: LeafKey) -> List[CoresetMergeStats]:
        """Per-coreset ``(fe, xe, ye, xye)`` without mutating the DB."""
        stats = []
        rows = self._rows
        freq = self._core_freq
        masks = self._masks
        for core in self.common_coresets(leaf_x, leaf_y):
            px = rows[(core, leaf_x)]
            py = rows[(core, leaf_y)]
            stats.append(
                CoresetMergeStats(
                    coreset=core,
                    fe=freq[core],
                    xe=masks.popcount(px),
                    ye=masks.popcount(py),
                    xye=masks.and_count(px, py),
                )
            )
        return stats

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
        if leaf_x not in self._leaf_to_cores or leaf_y not in self._leaf_to_cores:
            raise MiningError("both leafsets must exist in the database")
        new_leaf = leaf_x | leaf_y
        # Register the merged leafset now: merge order is deterministic,
        # so first-sight ids stay deterministic too.
        new_id = self._interner.intern(new_leaf)
        intern = self._interner.intern
        self._merge_index += 1
        epoch = self._merge_index
        # The construction-order row list is only valid pre-merge.
        self._initial_row_order = None
        outcome = MergeOutcome(leaf_x=leaf_x, leaf_y=leaf_y, new_leafset=new_leaf)
        masks = self._masks
        union_x = masks.empty()
        union_y = masks.empty()
        union_new = masks.empty()
        touched = False
        row_freq = self._row_freq
        core_rows_x: List[Tuple[CoreKey, Mask]] = []
        core_rows_y: List[Tuple[CoreKey, Mask]] = []
        core_rows_new: List[Tuple[CoreKey, Mask]] = []
        for core in sorted(self.common_coresets(leaf_x, leaf_y), key=_key_of):
            px = self._rows[(core, leaf_x)]
            py = self._rows[(core, leaf_y)]
            inter = masks.and_(px, py)
            count = masks.popcount(inter)
            outcome.stats.append(
                CoresetMergeStats(
                    coreset=core,
                    fe=self._core_freq[core],
                    xe=row_freq[(core, leaf_x)],
                    ye=row_freq[(core, leaf_y)],
                    xye=count,
                )
            )
            if not count:
                continue
            touched = True
            self._core_epoch[core] = epoch
            union_x = masks.or_(union_x, px)
            union_y = masks.or_(union_y, py)
            core_rows_x.append((core, px))
            core_rows_y.append((core, py))
            target_key = (core, new_leaf)
            target = self._rows.get(target_key)
            if target is None:
                self._rows[target_key] = inter
                row_freq[target_key] = count
                union_new = masks.or_(union_new, inter)
                core_rows_new.append((core, inter))
                self._leaf_to_cores.setdefault(new_leaf, {})[core] = None
                self._core_to_leaves.setdefault(core, set()).add(new_leaf)
                insort(self._core_leaf_ids[core], new_id)
            else:
                # Disjointness holds because per (coreset, vertex) each
                # leaf value is covered by exactly one row.
                merged = masks.or_(target, inter)
                self._rows[target_key] = merged
                row_freq[target_key] += count
                union_new = masks.or_(union_new, merged)
                core_rows_new.append((core, merged))
            # Each merged position replaces two row usages by one.
            self._core_freq[core] -= count
            for leaf, remaining in (
                (leaf_x, masks.andnot(px, inter)),
                (leaf_y, masks.andnot(py, inter)),
            ):
                if not masks.is_empty(remaining):
                    self._rows[(core, leaf)] = remaining
                    row_freq[(core, leaf)] -= count
                else:
                    del self._rows[(core, leaf)]
                    del row_freq[(core, leaf)]
                    self._core_to_leaves[core].discard(leaf)
                    self._core_leaf_ids[core].remove(intern(leaf))
                    if not self._core_to_leaves[core]:
                        del self._core_to_leaves[core]
                        del self._core_leaf_ids[core]
                    cores = self._leaf_to_cores[leaf]
                    cores.pop(core, None)
                    if not cores:
                        del self._leaf_to_cores[leaf]
                        del self._leaf_union[leaf]
                        outcome.removed_leafsets.add(leaf)
        if touched:
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
            cores = self._leaf_to_cores.get(leaf)
            if cores:
                union = masks.empty()
                for core in cores:
                    union = masks.or_(union, self._rows[(core, leaf)])
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

        With ``graph`` given, also checks losslessness for singleton
        coresets: the union of rows reconstructs exactly the initial
        (core value, vertex) -> adjacent-leaf-values relation.
        """
        masks = self._masks
        recomputed: Dict[CoreKey, int] = {}
        for (core, leaf), bits in self._rows.items():
            if masks.is_empty(bits):
                raise MiningError(f"empty row {(core, leaf)}")
            if core not in self._leaf_to_cores.get(leaf, ()):
                raise MiningError(f"index out of sync for row {(core, leaf)}")
            count = masks.popcount(bits)
            if self._row_freq.get((core, leaf)) != count:
                raise MiningError(f"stale row frequency for {(core, leaf)}")
            recomputed[core] = recomputed.get(core, 0) + count
        if set(self._row_freq) != set(self._rows):
            raise MiningError("row frequency index out of sync with rows")
        active = {c: f for c, f in self._core_freq.items() if f > 0}
        if recomputed != active:
            raise MiningError("coreset frequencies out of sync with rows")
        for leaf, cores in self._leaf_to_cores.items():
            for core in cores:
                if (core, leaf) not in self._rows:
                    raise MiningError(f"dangling index entry {(core, leaf)}")
                if leaf not in self._core_to_leaves.get(core, ()):
                    raise MiningError(f"core index missing {(core, leaf)}")
        for core, leaves in self._core_to_leaves.items():
            for leaf in leaves:
                if (core, leaf) not in self._rows:
                    raise MiningError(f"dangling core index entry {(core, leaf)}")
        for leaf, cores in self._leaf_to_cores.items():
            union = masks.empty()
            for core in cores:
                union = masks.or_(union, self._rows[(core, leaf)])
            if not masks.equals(self.leaf_union_mask(leaf), union):
                raise MiningError(f"stale union mask for leafset {set(leaf)}")
        order = self._initial_row_order
        if order is not None:
            key_of = {key: _key_of(key) for key in self._core_to_leaves}
            key_of.update((key, _key_of(key)) for key in self._leaf_to_cores)
            keys = [(key_of[core], key_of[leaf]) for core, leaf in order]
            if (
                len(order) != len(self._rows)
                or set(order) != set(self._rows)
                or keys != sorted(keys)
            ):
                raise MiningError("stale initial row order")
        for leaf in self._leaf_to_cores:
            if leaf not in self._interner:
                raise MiningError(f"leafset {set(leaf)} missing from interner")
        if set(self._core_leaf_ids) != set(self._core_to_leaves):
            raise MiningError("coreset id-list index out of sync with adjacency")
        for core, leaves in self._core_to_leaves.items():
            expected_ids = sorted(self._interner.intern(leaf) for leaf in leaves)
            if self._core_leaf_ids[core] != expected_ids:
                raise MiningError(
                    f"stale sorted id list for coreset {set(core)}"
                )
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
        return {key: self._to_vertices(bits) for key, bits in self._rows.items()}

    def copy(self) -> "InvertedDatabase":
        """An independent deep copy (merges on it leave self intact).

        Mask values are shared, not duplicated: every post-construction
        mask operation is pure (see :mod:`repro.core.masks.base`), so
        merging on either copy replaces masks instead of mutating them.
        """
        db = InvertedDatabase(mask_backend=self._masks)
        db._rows = dict(self._rows)
        db._leaf_to_cores = {
            leaf: dict(cores) for leaf, cores in self._leaf_to_cores.items()
        }
        db._core_to_leaves = {
            core: set(leaves) for core, leaves in self._core_to_leaves.items()
        }
        db._core_freq = dict(self._core_freq)
        db._vertex_ids = list(self._vertex_ids)
        db._vertex_bit = dict(self._vertex_bit)
        db._leaf_union = dict(self._leaf_union)
        db._interner = self._interner.copy()
        db._core_leaf_ids = {
            core: list(ids) for core, ids in self._core_leaf_ids.items()
        }
        db._row_freq = dict(self._row_freq)
        db._merge_index = self._merge_index
        db._core_epoch = dict(self._core_epoch)
        db._leaf_epoch = dict(self._leaf_epoch)
        db._initial_row_order = (
            list(self._initial_row_order)
            if self._initial_row_order is not None
            else None
        )
        return db

    def restricted_copy(self, leafsets: Iterable[LeafKey]) -> "InvertedDatabase":
        """An independent database holding only ``leafsets`` and their rows.

        The sub-database behind the component-sharded search: given a
        *coreset-closed* leafset set (every coreset reachable from a
        member has all of its leafsets in the set — exactly what a
        connected component of the coreset-sharing graph is), the copy
        behaves identically to the full database restricted to those
        leafsets: same rows, same coreset frequencies, and a fresh
        interner whose first-sight ids are the repr-sorted order of the
        member leafsets — order-isomorphic to the parent's ids
        restricted to the set, so pair tie-breaks agree.  Mask values,
        the vertex->bit table and the vertex order are shared (all
        post-construction mask ops are pure).  Epochs restart at zero.

        Raises :class:`MiningError` when the set is not coreset-closed
        (a merge outside the set could then change these rows' gains).
        """
        keep = set(leafsets)
        db = InvertedDatabase(mask_backend=self._masks)
        db._vertex_ids = self._vertex_ids
        db._vertex_bit = self._vertex_bit
        rows = db._rows
        row_freq = db._row_freq
        cores: Set[CoreKey] = set()
        for leaf in keep:
            leaf_cores = self._leaf_to_cores.get(leaf)
            if leaf_cores is None:
                raise MiningError(
                    f"leafset {set(leaf)} not present in the database"
                )
            db._leaf_to_cores[leaf] = dict(leaf_cores)
            db._leaf_union[leaf] = self._leaf_union[leaf]
            cores.update(leaf_cores)
            for core in leaf_cores:
                key = (core, leaf)
                rows[key] = self._rows[key]
                row_freq[key] = self._row_freq[key]
        for core in cores:
            members = self._core_to_leaves[core]
            if not members <= keep:
                raise MiningError(
                    "restricted_copy requires a coreset-closed leafset set: "
                    f"coreset {set(core)} has leafsets outside it"
                )
            db._core_to_leaves[core] = set(members)
            db._core_freq[core] = self._core_freq[core]
        ordered = sorted(db._leaf_to_cores, key=_key_of)
        db._interner.intern_all(ordered)
        intern = db._interner.intern
        db._core_leaf_ids = {
            core: sorted(intern(leaf) for leaf in leaves)
            for core, leaves in db._core_to_leaves.items()
        }
        return db

    def adopt_components(self, parts: Iterable[Tuple], merges: int) -> None:
        """Take over the final state of independently searched components.

        The inverse of :meth:`restricted_copy`: this database's leafsets
        were partitioned into coreset-closed components, each searched
        on its own restricted copy, and ``merges`` merges happened in
        all.  ``parts`` yields one ``(state, ids, epochs)`` per
        component.  ``state`` carries the copy's final columns as
        attributes — ``leafsets`` (its interner table), ``rows``,
        ``row_freq``, ``core_freq``, ``leaf_cores``, ``leaf_union``,
        ``core_leaf_ids``, ``core_epoch`` and ``leaf_epoch`` (see
        :class:`repro.core.search_shard.ComponentRun`).  ``ids[i]`` is
        this database's interned id of the copy's local id ``i``, and
        ``epochs[k]`` this database's merge index of the copy's
        ``k``-th merge.

        Rows, frequencies, union masks and each leafset's coreset order
        are taken over as they are; the per-coreset id lists and the
        merge epochs are translated.  ``ids`` must be increasing — true
        when merged leafsets were interned here in a merge order that
        keeps each component's own — so translated id lists stay sorted.
        The vertex order and the interner stay this database's own.
        """
        rows: Dict[RowKey, Mask] = {}
        row_freq: Dict[RowKey, int] = {}
        core_freq: Dict[CoreKey, int] = {}
        leaf_to_cores: Dict[LeafKey, Dict[CoreKey, None]] = {}
        leaf_union: Dict[LeafKey, Mask] = {}
        core_to_leaves: Dict[CoreKey, Set[LeafKey]] = {}
        core_leaf_ids: Dict[CoreKey, List[int]] = {}
        core_epoch: Dict[CoreKey, int] = {}
        leaf_epoch: Dict[LeafKey, int] = {}
        for state, ids, epochs in parts:
            rows.update(state.rows)
            row_freq.update(state.row_freq)
            core_freq.update(state.core_freq)
            leaf_to_cores.update(state.leaf_cores)
            leaf_union.update(state.leaf_union)
            leafset_of = state.leafsets.__getitem__
            global_id = ids.__getitem__
            for core, local_ids in state.core_leaf_ids.items():
                core_to_leaves[core] = set(map(leafset_of, local_ids))
                core_leaf_ids[core] = list(map(global_id, local_ids))
            for core, epoch in state.core_epoch.items():
                core_epoch[core] = epochs[epoch]
            for leaf, epoch in state.leaf_epoch.items():
                leaf_epoch[leaf] = epochs[epoch]
        self._rows = rows
        self._row_freq = row_freq
        self._core_freq = core_freq
        self._leaf_to_cores = leaf_to_cores
        self._leaf_union = leaf_union
        self._core_to_leaves = core_to_leaves
        self._core_leaf_ids = core_leaf_ids
        self._core_epoch = core_epoch
        self._leaf_epoch = leaf_epoch
        self._merge_index = merges
        if merges:
            # The construction-order row list is only valid pre-merge.
            self._initial_row_order = None

    def __repr__(self) -> str:
        return (
            f"InvertedDatabase(rows={len(self._rows)}, "
            f"leafsets={len(self._leaf_to_cores)}, "
            f"coresets={len(self.coresets())}, s={self.total_frequency()})"
        )


# The deterministic frozenset sort key.  This must be *the same
# function* ``mdl.canonical_order`` sorts by: ``from_graph`` records its
# row order under this key and ``initial_description_length`` promises
# byte-identical floats to the canonically ordered recompute, so the
# two orders may never drift apart.
_key_of = leafset_sort_key
