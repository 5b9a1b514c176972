"""Equivalence and edge-case suite for the position-mask backends.

The contract (``repro.core.masks``): every backend — ``bigint``,
``chunked`` — is bit-exact interchangeable.  Mining-visible
quantities are exact integers/booleans, so merge sequences, database
snapshots and DL floats must be identical whichever backend the
database was built on.  This file pins that contract three ways:

* backend-op unit tests against the bigint reference, with the chunk
  boundaries exercised explicitly (bit 0, last/first bit of a chunk,
  empty overlaps);
* randomized whole-pipeline equivalence on the existing generators
  (identical merge sequences, snapshots and DL floats across backends,
  for both search variants);
* hypothesis property tests over random bit sets and random graphs.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import merge_stats

from repro.config import CSPMConfig
from repro.core.candidates import leafset_sort_key
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_basic import run_basic
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.core.masks import (
    AUTO_CHUNKED_MIN_BITS,
    MASK_BACKENDS,
    BigintMaskBackend,
    ChunkedMaskBackend,
    MaskBackend,
    bigint_mask_bytes,
    get_backend,
    resolve_backend,
)
from repro.datasets.synthetic import pokec_sparse_graph
from repro.errors import ConfigError, MiningError
from repro.graphs.generators import PlantedAStar, planted_astar_graph

BACKEND_NAMES = ("bigint", "chunked")

# Small-chunk variants stress the chunk boundaries far harder than the
# production defaults on the same bit ranges; the 1024-bit variant puts
# a chunk edge under BOUNDARY_BITS' 1023/1024/1025.
ALL_BACKENDS = [
    BigintMaskBackend(),
    ChunkedMaskBackend(),
    ChunkedMaskBackend(chunk_bits=64),
    ChunkedMaskBackend(chunk_bits=1024),
]

# Bits chosen to land on every interesting boundary of 64/256/1024-bit
# chunks: bit 0, last bit of a chunk, first bit of the next.
BOUNDARY_BITS = (0, 1, 63, 64, 65, 255, 256, 257, 511, 1023, 1024, 1025)


def ref_mask(bits):
    out = 0
    for bit in bits:
        out |= 1 << bit
    return out


def runs_column(runs):
    """``runs`` as make_runs' flat column, run starts and run lengths."""
    counts = [len(run) for run in runs]
    starts = [sum(counts[:index]) for index in range(len(runs))]
    return [bit for run in runs for bit in run], starts, counts


def assert_runs_match_make(backend, runs, built):
    assert len(built) == len(runs)
    for bits, mask in zip(runs, built):
        assert mask == backend.make(bits), bits
        assert backend.popcount(mask) == len(set(bits))
        assert list(backend.iter_bits(mask)) == sorted(set(bits))


@pytest.fixture(params=ALL_BACKENDS, ids=lambda b: repr(b))
def backend(request):
    return request.param


class TestBackendOps:
    """Each backend against the plain-int reference semantics."""

    def test_empty_is_empty(self, backend):
        empty = backend.empty()
        assert backend.is_empty(empty)
        assert backend.popcount(empty) == 0
        assert list(backend.iter_bits(empty)) == []
        assert not backend.union_overlaps(empty, empty)

    def test_make_iter_roundtrip_on_boundaries(self, backend):
        mask = backend.make(BOUNDARY_BITS)
        assert list(backend.iter_bits(mask)) == sorted(BOUNDARY_BITS)
        assert backend.popcount(mask) == len(BOUNDARY_BITS)
        present = set(backend.iter_bits(mask))
        assert present.isdisjoint((2, 62, 66, 254, 258, 1022, 1026))

    @pytest.mark.parametrize("column", ["list", "int64", "int32", "uint16"])
    def test_make_runs_matches_make(self, backend, column):
        # The columnar builder's bulk materialiser: one flat column of
        # ascending runs, each compared with make(bits).  Empty runs,
        # duplicates inside a run, adjacent runs sharing a bit (300),
        # the chunk boundaries, and a run above 2**20.
        runs = [
            [],
            [0],
            [5, 5, 70, 300],
            [300, 301],
            sorted(BOUNDARY_BITS),
            sorted(BOUNDARY_BITS) + [1025, 1025],
            [],
            [63, 64],
            [2000],
        ]
        if column != "uint16":
            runs.append([2**20 + 3, 2**20 + 3, 2**20 + 700, 2**21])
        bits, starts, counts = runs_column(runs)
        if column != "list":
            bits = np.array(bits, dtype=column)
            starts, counts = np.array(starts), np.array(counts)
        assert_runs_match_make(backend, runs, backend.make_runs(bits, starts, counts))

    def test_make_runs_reads_any_slices(self, backend):
        # Run i is bits[starts[i] : starts[i] + counts[i]], wherever it
        # sits: out of column order, overlapping, or skipping entries.
        bits = np.array([1, 4, 9, 9, 300, 2, 3])
        starts, counts = [4, 0, 1, 5, 2], [1, 4, 2, 2, 0]
        runs = [bits[s : s + c].tolist() for s, c in zip(starts, counts)]
        assert_runs_match_make(backend, runs, backend.make_runs(bits, starts, counts))

    def test_make_runs_of_nothing(self, backend):
        assert backend.make_runs([], [], []) == []
        assert backend.make_runs(np.array([], dtype=np.int64), [0, 0], [0, 0]) == [
            backend.empty(),
            backend.empty(),
        ]

    @pytest.mark.parametrize("pack_bytes", [1, 9, 200])
    def test_bigint_make_runs_packs_in_groups(self, monkeypatch, pack_bytes):
        # Runs wider than a pack group, and groups of several runs.
        monkeypatch.setattr("repro.core.masks.bigint._PACK_BYTES", pack_bytes)
        runs = [[3, 9], [], [0, 70, 300, 300], [300], sorted(BOUNDARY_BITS), [2**20]]
        backend = BigintMaskBackend()
        assert_runs_match_make(backend, runs, backend.make_runs(*runs_column(runs)))

    def test_default_make_runs_is_make_per_run(self, backend):
        # The protocol's fallback, for a backend without a bulk path.
        runs = [[2, 5, 5], [], [5, 1024]]
        bits, starts, counts = runs_column(runs)
        built = MaskBackend.make_runs(backend, np.array(bits), starts, counts)
        assert_runs_match_make(backend, runs, built)

    @given(
        runs=st.lists(
            st.lists(
                st.integers(min_value=0, max_value=1100), max_size=40
            ).map(sorted),
            max_size=6,
        ),
        offset=st.sampled_from([0, 2**20 + 5]),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_make_runs_match_reference(self, backend, runs, offset):
        runs = [[bit + offset for bit in run] for run in runs]
        bits, starts, counts = runs_column(runs)
        built = backend.make_runs(np.array(bits, dtype=np.int64), starts, counts)
        assert_runs_match_make(backend, runs, built)
        merged = backend.empty()
        for mask in built:
            merged = backend.or_(merged, mask)
        union = ref_mask(bit for run in runs for bit in run)
        assert list(backend.iter_bits(merged)) == [
            offset + i for i in range(1101) if union >> (offset + i) & 1
        ]

    @pytest.mark.parametrize(
        "bits_a, bits_b",
        [
            ((0,), (0,)),
            ((0,), (1,)),
            ((63,), (64,)),
            ((255, 256), (256, 257)),
            ((0, 64, 1024), (64,)),
            ((5, 70, 300), (1025,)),
            ((), (0, 63)),
        ],
    )
    def test_binary_ops_match_int_reference(self, backend, bits_a, bits_b):
        a, b = backend.make(bits_a), backend.make(bits_b)
        ra, rb = ref_mask(bits_a), ref_mask(bits_b)
        assert backend.union_overlaps(a, b) == bool(ra & rb)
        assert backend.and_count(a, b) == (ra & rb).bit_count()
        assert list(backend.iter_bits(backend.or_(a, b))) == [
            i for i in range(1100) if (ra | rb) >> i & 1
        ]
        assert list(backend.iter_bits(backend.and_(a, b))) == [
            i for i in range(1100) if (ra & rb) >> i & 1
        ]
        assert list(backend.iter_bits(backend.andnot(a, b))) == [
            i for i in range(1100) if (ra & ~rb) >> i & 1
        ]

    def test_empty_overlap_at_chunk_edges(self, backend):
        # Adjacent bits in different chunks must not report overlap.
        left = backend.make((63, 255, 1023))
        right = backend.make((64, 256, 1024))
        assert not backend.union_overlaps(left, right)
        assert backend.and_count(left, right) == 0
        assert backend.is_empty(backend.and_(left, right))

    def test_ops_are_pure(self, backend):
        a = backend.make((1, 64, 300))
        b = backend.make((64, 500))
        before = list(backend.iter_bits(a)), list(backend.iter_bits(b))
        backend.or_(a, b)
        backend.and_(a, b)
        backend.andnot(a, b)
        backend.union_overlaps(a, b)
        backend.and_count(a, b)
        assert (list(backend.iter_bits(a)), list(backend.iter_bits(b))) == before

    def test_bit_span_matches_int_bit_length(self, backend):
        assert backend.bit_span(backend.empty()) == 0
        for bits in ((0,), (63,), (64,), (255, 256), (5, 70, 1025)):
            mask = backend.make(bits)
            assert backend.bit_span(mask) == ref_mask(bits).bit_length()

    def test_mask_bytes_positive_and_monotone_in_chunks(self, backend):
        sparse = backend.make((3,))
        spread = backend.make((3, 1024, 4096))
        assert backend.mask_bytes(backend.empty()) >= 0
        assert backend.mask_bytes(sparse) > 0
        assert backend.mask_bytes(spread) >= backend.mask_bytes(sparse)

    @given(
        bits_a=st.sets(st.integers(min_value=0, max_value=1100), max_size=60),
        bits_b=st.sets(st.integers(min_value=0, max_value=1100), max_size=60),
    )
    @settings(
        max_examples=60,
        deadline=None,
        # The backend fixture is a stateless strategy object; reusing
        # it across generated examples is exactly the production usage.
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_property_ops_match_reference(self, backend, bits_a, bits_b):
        a, b = backend.make(bits_a), backend.make(bits_b)
        ra, rb = ref_mask(bits_a), ref_mask(bits_b)
        assert backend.popcount(a) == ra.bit_count()
        assert backend.and_count(a, b) == (ra & rb).bit_count()
        assert backend.union_overlaps(a, b) == bool(ra & rb)
        assert backend.popcount(backend.or_(a, b)) == (ra | rb).bit_count()
        assert backend.popcount(backend.andnot(a, b)) == (ra & ~rb).bit_count()
        assert list(backend.iter_bits(a)) == sorted(bits_a)


class TestRegistry:
    def test_names_round_trip(self):
        for name in ("bigint", "chunked"):
            assert get_backend(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(MiningError, match="unknown mask backend"):
            get_backend("roaring")
        with pytest.raises(MiningError, match="unknown mask backend"):
            get_backend("numpy")  # retired: lost on every graph measured

    def test_auto_resolves_by_size(self):
        assert resolve_backend("auto", 100).name == "bigint"
        assert resolve_backend("auto", AUTO_CHUNKED_MIN_BITS).name == "chunked"
        assert resolve_backend("auto", None).name == "bigint"
        assert resolve_backend("chunked", 100).name == "chunked"

    def test_chunk_width_validation(self):
        with pytest.raises(ValueError):
            ChunkedMaskBackend(chunk_bits=100)

    def test_bigint_reference_estimate(self):
        # 30 bits per 4-byte digit on top of the 28-byte header.
        assert bigint_mask_bytes(1) == 32
        assert bigint_mask_bytes(30) == 32
        assert bigint_mask_bytes(31) == 36
        assert bigint_mask_bytes(1_600_000) > 200_000


def random_graph(seed, num_vertices=45, num_edges=110):
    graph, _ = planted_astar_graph(
        num_vertices,
        num_edges,
        [
            PlantedAStar("p", ("q", "r"), strength=0.9),
            PlantedAStar("s", ("t",), strength=0.85),
        ],
        noise_values=("n1", "n2", "n3"),
        noise_rate=0.25,
        seed=seed,
    )
    return graph


def setup(graph, backend_name):
    return (
        InvertedDatabase.from_graph(graph, mask_backend=get_backend(backend_name)),
        StandardCodeTable.from_graph(graph),
        CoreCodeTable.singletons_from_graph(graph),
    )


def run_key(db, trace):
    return (
        [t.merged_pair for t in trace.iterations],
        [t.total_dl_bits for t in trace.iterations],
        trace.final_dl_bits,
        trace.initial_candidate_gains,
        trace.total_gain_computations,
        trace.refreshes_skipped,
        trace.dirty_revalidations,
        db.snapshot(),
    )


class TestMiningEquivalence:
    """Identical merge sequences/snapshots/DL floats on every backend."""

    @pytest.mark.parametrize("seed", range(6))
    def test_partial_lazy_bit_exact_across_backends(self, seed):
        graph = random_graph(seed)
        reference = None
        for name in BACKEND_NAMES:
            db, standard, core = setup(graph, name)
            trace = run_partial(db, standard, core)
            db.validate(graph)
            key = run_key(db, trace)
            if reference is None:
                reference = key
            else:
                assert key == reference, f"backend {name} diverged"

    @pytest.mark.parametrize("seed", range(3))
    def test_basic_bit_exact_across_backends(self, seed):
        graph = random_graph(seed)
        reference = None
        for name in BACKEND_NAMES:
            db, standard, core = setup(graph, name)
            trace = run_basic(db, standard, core)
            key = run_key(db, trace)
            if reference is None:
                reference = key
            else:
                assert key == reference, f"backend {name} diverged"

    def test_merge_outcomes_equivalent(self):
        graph = random_graph(11)
        dbs = {name: setup(graph, name)[0] for name in BACKEND_NAMES}
        ref_db = dbs["bigint"]
        for _step in range(5):
            # Re-pick after every merge: earlier merges may have
            # removed a leafset a pre-selected pair relied on.
            ordered = ref_db.interner.order(ref_db.leafsets())
            pair = next(
                (
                    (a, b)
                    for i, a in enumerate(ordered)
                    for b in ordered[i + 1 :]
                    if ref_db.common_coresets(a, b)
                ),
                None,
            )
            if pair is None:
                break
            leaf_x, leaf_y = pair
            stats = {
                name: merge_stats(db, leaf_x, leaf_y) for name, db in dbs.items()
            }
            outcomes = {
                name: db.merge(leaf_x, leaf_y) for name, db in dbs.items()
            }
            reference = outcomes["bigint"]
            # The merge moved positions under exactly the common
            # coresets whose rows intersect, visited in key order.
            assert reference.touched_coresets == sorted(
                (stat.coreset for stat in stats["bigint"] if stat.xye),
                key=leafset_sort_key,
            )
            for name, outcome in outcomes.items():
                assert stats[name] == stats["bigint"], name
                assert outcome.touched_coresets == reference.touched_coresets, name
                assert outcome.removed_leafsets == reference.removed_leafsets
                assert touched_rows(dbs[name], outcome) == touched_rows(
                    ref_db, reference
                ), name
        for name, db in dbs.items():
            assert db.snapshot() == ref_db.snapshot(), name


def touched_rows(db, outcome):
    """``outcome.touched_core_rows`` with every mask decoded to vertices."""
    return {
        leaf: [(core, db._to_vertices(core, mask)) for core, mask in rows]
        for leaf, rows in outcome.touched_core_rows.items()
    }


VALUES = ["a", "b", "c", "d", "e"]


@st.composite
def attributed_graphs(draw, max_vertices=10):
    from repro.graphs.attributed_graph import AttributedGraph

    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = AttributedGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
        size = draw(st.integers(min_value=1, max_value=3))
        values = draw(
            st.sets(st.sampled_from(VALUES), min_size=size, max_size=size)
        )
        graph.set_attributes(vertex, values)
    for vertex in range(1, n):
        graph.add_edge(vertex - 1, vertex)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    return graph


@given(graph=attributed_graphs())
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_property_backends_mine_identically(graph):
    reference = None
    for name in BACKEND_NAMES:
        db, standard, core = setup(graph, name)
        trace = run_partial(db, standard, core)
        key = run_key(db, trace)
        if reference is None:
            reference = key
        else:
            assert key == reference, f"backend {name} diverged"


class TestVertexBitTable:
    """Satellite: one precomputed vertex order shared by all masks."""

    def test_precomputed_and_exposed(self, paper_graph):
        db = InvertedDatabase.from_graph(paper_graph)
        table = db.vertex_bit_table()
        assert db.num_position_bits == len(table)
        assert sorted(table.values()) == list(range(len(table)))
        # A row decodes through its coreset's positions, a union
        # through the shared order.
        for core, leaf, positions in db.rows():
            members = db._core_members[core]
            mask = db.row_mask(core, leaf)
            assert {
                members[bit] for bit in db.mask_backend.iter_bits(mask)
            } == positions
        for leaf in db.leafsets():
            union = db.leaf_union_mask(leaf)
            assert set(db.mask_backend.iter_bits(union)) == {
                table[v] for _core, row_leaf, positions in db.rows()
                if row_leaf == leaf for v in positions
            }

    def test_vertices_without_leaves_get_no_bit(self):
        from repro.graphs.attributed_graph import AttributedGraph

        graph = AttributedGraph.from_edges(
            edges=[(0, 1)], attributes={0: {"a"}, 1: {"b"}, 2: {"c"}}
        )
        db = InvertedDatabase.from_graph(graph)
        # Vertex 2 is isolated: no neighbour values, no bit.
        assert 2 not in db.vertex_bit_table()

    def test_num_leafsets_matches_list(self, paper_db):
        assert paper_db.num_leafsets == len(paper_db.leafsets())


class TestAbsentRow:
    """An absent row reads as empty on every backend, decoding nothing."""

    def test_positions_of_absent_row_is_empty(
        self, backend, paper_graph, monkeypatch
    ):
        a, c, unseen = frozenset(["a"]), frozenset(["c"]), frozenset(["zzz"])
        db = InvertedDatabase.from_graph(paper_graph, mask_backend=backend)
        assert db.positions(c, a) == {2, 3}

        def no_decoding(mask):
            raise AssertionError("an absent row was decoded")

        monkeypatch.setattr(backend, "iter_bits", no_decoding)
        # A live coreset and a live leafset without a common row, then
        # keys the database has never seen.
        assert db.row_frequency(c, c) == 0
        assert db.positions(c, c) == frozenset()
        assert db.positions(unseen, a) == frozenset()
        assert db.positions(a, unseen) == frozenset()
        assert db.row_mask(c, c) is None


class TestMemoryAccounting:
    def test_chunked_beats_bigint_estimate_on_sparse_masks(self):
        # A sparse community-structured database at modest width: the
        # chunked representation must undercut the whole-graph bigint
        # estimate (the pokec-sparse acceptance ratio, in miniature).
        graph = pokec_sparse_graph(200)  # 5000 vertices
        db = InvertedDatabase.from_graph(
            graph, mask_backend=get_backend("chunked")
        )
        assert db.mask_memory_bytes() * 2 < db.bigint_mask_bytes_estimate()

    def test_memory_estimates_positive(self, paper_graph):
        db = InvertedDatabase.from_graph(paper_graph)
        assert db.mask_memory_bytes() > 0
        assert db.bigint_mask_bytes_estimate() > 0

    def test_bigint_estimate_is_what_bigint_actually_pays(self):
        # The reduction ratio's denominator must be honest: on either
        # backend, the estimate equals the bytes of whole-graph ints
        # actually built from each held row's and union's vertex bits.
        graph = pokec_sparse_graph(20)
        for name in ("chunked", "bigint"):
            db = InvertedDatabase.from_graph(graph, mask_backend=get_backend(name))
            table = db.vertex_bit_table()
            bit_sets = [
                [table[vertex] for vertex in positions]
                for _core, _leaf, positions in db.rows()
            ]
            bit_sets += [
                db.mask_backend.iter_bits(db.leaf_union_mask(leaf))
                for leaf in db.leafsets()
            ]
            whole_graph_ints = [sum(1 << bit for bit in bits) for bits in bit_sets]
            assert db.bigint_mask_bytes_estimate() == sum(
                map(BigintMaskBackend().mask_bytes, whole_graph_ints)
            ), name


class TestConfigIntegration:
    def test_mask_backend_field_validated(self):
        assert CSPMConfig().mask_backend == "auto"
        assert CSPMConfig(mask_backend="chunked").mask_backend == "chunked"
        with pytest.raises(ConfigError, match="mask_backend"):
            CSPMConfig(mask_backend="roaring")
        assert CSPMConfig.__dataclass_fields__.keys() >= {"mask_backend"}
        assert MASK_BACKENDS == ("auto", "bigint", "chunked")

    def test_default_backend_not_serialised(self):
        # Schema-v1 result documents (and the CLI golden file) must not
        # grow a field for an execution-engine default.
        assert "mask_backend" not in CSPMConfig().to_dict()
        assert CSPMConfig.from_dict(CSPMConfig().to_dict()) == CSPMConfig()

    def test_non_default_backend_round_trips(self):
        config = CSPMConfig(mask_backend="bigint")
        document = config.to_dict()
        assert document["mask_backend"] == "bigint"
        assert CSPMConfig.from_dict(document) == config

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_facade_results_identical(self, name, paper_graph):
        from repro import CSPM

        reference = CSPM().fit(paper_graph)
        mined = CSPM(mask_backend=name).fit(paper_graph)
        assert mined.inverted_db.mask_backend.name == name
        # The mined model is identical field-for-field; only the
        # config's backend record may differ.
        assert [star.to_dict() for star in mined.astars] == [
            star.to_dict() for star in reference.astars
        ]
        assert mined.trace.final_dl_bits == reference.trace.final_dl_bits
        assert math.isclose(
            mined.final_dl.total_bits, reference.final_dl.total_bits
        )

    def test_cli_exposes_backend_flag(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.graphs.builders import paper_running_example
        from repro.graphs.io import save_json

        path = tmp_path / "graph.json"
        save_json(paper_running_example(), str(path))
        assert main(["mine", str(path), "--mask-backend", "chunked", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["mask_backend"] == "chunked"


class TestAndnotPurity:
    """MSK002 regression: ``andnot`` on the chunked backend must not
    mutate its operands (the fixed in-place ``word &= ~other`` was
    flagged by the invariant linter; the pure spelling is pinned here)."""

    @pytest.mark.parametrize("chunk_bits", [None, 64])
    def test_chunked_andnot_leaves_operands_intact(self, chunk_bits):
        backend = (
            ChunkedMaskBackend()
            if chunk_bits is None
            else ChunkedMaskBackend(chunk_bits=chunk_bits)
        )
        a_bits = [0, 63, 64, 100, 1025]
        b_bits = [63, 100, 2000]
        a = backend.make(a_bits)
        b = backend.make(b_bits)
        a_before = {chunk: word for chunk, word in a.items()}
        b_before = {chunk: word for chunk, word in b.items()}
        result = backend.andnot(a, b)
        assert a == a_before
        assert b == b_before
        assert list(backend.iter_bits(result)) == [0, 64, 1025]

    def test_chunked_andnot_matches_bigint_reference(self):
        backend = ChunkedMaskBackend(chunk_bits=64)
        reference = BigintMaskBackend()
        a_bits = sorted(BOUNDARY_BITS)
        b_bits = [1, 63, 256, 1024, 4096]
        chunked_result = backend.andnot(
            backend.make(a_bits), backend.make(b_bits)
        )
        reference_result = reference.andnot(
            reference.make(a_bits), reference.make(b_bits)
        )
        assert list(backend.iter_bits(chunked_result)) == list(
            reference.iter_bits(reference_result)
        )
