"""Tests for the counter-gate harness (``benchmarks/perf_suite.py``).

CI's perf-smoke job runs the quick suite; here the building blocks run
on tiny inputs: one measured size, the document, the strict bounds
decoder, the counter check and the command line.
"""

import copy
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_search

from repro.config import CSPMConfig
from repro.core.cspm_basic import run_basic
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.datasets.synthetic import sparse_scaling_graph
from repro.errors import ConfigError
from repro.graphs.attributed_graph import AttributedGraph
from repro.obs import Observation, activate
from repro.pipeline import BuildInvertedDB, EncodeCoresets, PipelineContext

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import perf_suite

BOUNDS_FILE = Path(perf_suite.__file__).with_name("perf_bounds.json")


#: The fields every run entry holds; partial runs add their scope and
#: search path, sharded runs their workers, runs that opened a pool
#: their re-run tasks.  Nothing else, so no retired key comes back.
RUN_KEYS = {
    "search_seconds", "initial_candidate_gains", "total_gain_computations",
    "peak_queue_size", "refreshes_skipped", "dirty_revalidations",
    "iterations", "final_dl_bits", "mask_backend", "mask_peak_bytes",
}


def built(graph, config=CSPMConfig()):
    """A context after the pipeline's encode and build stages."""
    context = PipelineContext(graph=graph, config=config)
    EncodeCoresets().run(context)
    BuildInvertedDB().run(context)
    return context


@pytest.fixture(scope="module")
def tiny_entry():
    return perf_suite.measure_size(
        sparse_scaling_graph(3), "communities=3", CSPMConfig(), basic=True
    )


class TestMeasureSize:
    def test_runs_all_variants(self, tiny_entry):
        assert set(tiny_entry["runs"]) == {"partial/overlap", "basic/overlap"}

    def test_counters_present_and_consistent(self, tiny_entry):
        for run in tiny_entry["runs"].values():
            assert run["search_seconds"] >= 0.0
            assert run["initial_candidate_gains"] >= 0
            assert run["total_gain_computations"] >= run["initial_candidate_gains"]
        partial = tiny_entry["runs"]["partial/overlap"]
        assert partial["peak_queue_size"] >= 1
        # The bound-driven refresh skips something on any non-trivial
        # workload.
        assert partial["refreshes_skipped"] > 0
        # Basic has no queue, so nothing to skip or revalidate.
        basic = tiny_entry["runs"]["basic/overlap"]
        assert basic["peak_queue_size"] == 0
        assert basic["refreshes_skipped"] == basic["dirty_revalidations"] == 0

    def test_run_keys(self, tiny_entry):
        partial = tiny_entry["runs"]["partial/overlap"]
        assert set(partial) == RUN_KEYS | {"update_scope", "search"}
        assert partial["update_scope"] == "lazy"
        assert partial["search"] == "serial"
        assert set(tiny_entry["runs"]["basic/overlap"]) == RUN_KEYS

    def test_mask_fields(self, tiny_entry):
        # The tiny graph resolves "auto" to bigint masks.
        assert tiny_entry["mask_backend"] == "bigint"
        assert tiny_entry["bigint_mask_bytes_estimate"] > 0
        for run in tiny_entry["runs"].values():
            assert run["mask_backend"] == "bigint"
            assert run["mask_peak_bytes"] > 0

    def test_entry_keys(self, tiny_entry):
        assert set(tiny_entry) == {
            "label", "num_vertices", "num_leafsets", "possible_pairs",
            "num_components", "largest_component_frac", "mask_backend",
            "bigint_mask_bytes_estimate", "construction_seconds", "runs",
            "seeding_gain_reduction", "mask_memory_reduction",
        }
        assert tiny_entry["construction_seconds"] >= 0.0
        assert tiny_entry["num_components"] >= 1
        assert 0.0 < tiny_entry["largest_component_frac"] <= 1.0

    def test_ratios(self, tiny_entry):
        partial = tiny_entry["runs"]["partial/overlap"]
        seeding = partial["initial_candidate_gains"]
        # The full scan seeds every possible pair.
        assert seeding <= tiny_entry["possible_pairs"]
        assert tiny_entry["seeding_gain_reduction"] == round(
            tiny_entry["possible_pairs"] / seeding, 3
        )
        # Unrounded: a ratio just under a floor must not round up to it.
        assert tiny_entry["mask_memory_reduction"] == (
            tiny_entry["bigint_mask_bytes_estimate"] / partial["mask_peak_bytes"]
        )

    def test_no_mask_memory_reads_as_no_reduction(self, monkeypatch):
        # A zero peak gives 0, which breaks any reduction floor.
        monkeypatch.setattr(InvertedDatabase, "mask_memory_bytes", lambda db: 0)
        entry = perf_suite.measure_size(
            sparse_scaling_graph(3), "communities=3", CSPMConfig()
        )
        assert entry["runs"]["partial/overlap"]["mask_peak_bytes"] == 0
        assert entry["mask_memory_reduction"] == 0.0

    def test_sharded_counters_identical(self):
        # The sharded path reproduces the serial counters exactly: the
        # property the CI sharded smoke gates on at scale.
        graph = sparse_scaling_graph(3)
        serial = perf_suite.measure_size(graph, "communities=3", CSPMConfig())
        sharded = perf_suite.measure_size(
            graph,
            "communities=3",
            CSPMConfig(search="sharded", search_workers=2),
        )
        run = sharded["runs"]["partial/overlap"]
        assert run["search"] == "sharded"
        assert run["search_workers"] == 2
        volatile = ("search_seconds", "search", "search_workers")
        left = serial["runs"]["partial/overlap"]
        assert {k: v for k, v in left.items() if k not in volatile} == {
            k: v for k, v in run.items() if k not in volatile
        }

    def test_pooled_sharded_run_records_its_reruns(self):
        # Two components on two workers open a pool; without a fault
        # plan it re-runs no task in-process.
        two_parts = AttributedGraph.from_edges(
            edges=[(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
            attributes={
                1: {"a", "b"}, 2: {"a", "b"}, 3: {"a"},
                4: {"c", "d"}, 5: {"c", "d"}, 6: {"c"},
            },
        )
        entry = perf_suite.measure_size(
            two_parts,
            "two-parts",
            CSPMConfig(search="sharded", search_workers=2),
        )
        assert entry["num_components"] == 2
        run = entry["runs"]["partial/overlap"]
        assert set(run) == RUN_KEYS | {
            "update_scope", "search", "search_workers", "degraded_tasks"
        }
        assert run["degraded_tasks"] == []

    def test_counters_identical_across_mask_backends(self):
        graph = sparse_scaling_graph(3)
        structural = (
            "initial_candidate_gains", "total_gain_computations",
            "peak_queue_size", "refreshes_skipped", "dirty_revalidations",
            "iterations", "final_dl_bits",
        )
        runs = {}
        for backend in ("bigint", "chunked"):
            entry = perf_suite.measure_size(
                graph, "communities=3", CSPMConfig(mask_backend=backend)
            )
            assert entry["mask_backend"] == backend
            runs[backend] = entry["runs"]["partial/overlap"]
        for field in structural:
            assert runs["bigint"][field] == runs["chunked"][field], field

    def test_bit_exactness_against_oracle(self, tiny_entry):
        context = built(sparse_scaling_graph(3))
        oracle = naive_search(
            context.inverted_db.copy(), context.standard_table, context.core_table
        )
        for run in tiny_entry["runs"].values():
            assert run["final_dl_bits"] == oracle.final_dl_bits
            assert run["iterations"] == oracle.num_iterations

    def test_entry_is_json_serialisable(self, tiny_entry):
        restored = json.loads(json.dumps(tiny_entry))
        assert restored["label"] == "communities=3"

    def test_summary_renders(self, tiny_entry):
        document = {
            "workloads": [{"workload": "sparse-scaling", "series": [tiny_entry]}]
        }
        text = perf_suite.summarize(document)
        assert "sparse-scaling" in text and "communities=3" in text


class TestAcceptance:
    def test_sparse_seeding_gains_cut_at_least_5x(self):
        # On the sparse Fig. 5 style workload, overlap-driven seeding
        # evaluates >=5x fewer gains than the full scan, which seeds
        # every possible pair, and still mines Basic's model
        # bit-exactly.  (Basic, the paper's loop, takes seconds here.)
        context = built(sparse_scaling_graph(24))
        db0, bits = context.inverted_db, context.initial_dl.total_bits
        tables = (context.standard_table, context.core_table)
        overlap = run_partial(db0.copy(), *tables, initial_dl_bits=bits)
        basic = run_basic(db0.copy(), *tables, initial_dl_bits=bits)
        possible = db0.num_leafsets * (db0.num_leafsets - 1) // 2
        assert overlap.initial_candidate_gains * 5 <= possible
        assert overlap.final_dl_bits == basic.final_dl_bits


class TestRunSuite:
    def test_document(self):
        document = perf_suite.run_suite(quick=True, only=["usflight"])
        assert set(document) == {
            "schema_version", "suite", "quick", "seed", "mask_backend",
            "search", "search_workers", "metrics", "workloads",
        }
        assert document["schema_version"] == 11
        (workload,) = document["workloads"]
        assert set(workload) == {"workload", "series"}
        assert workload["workload"] == "usflight"
        assert [entry["label"] for entry in workload["series"]] == ["scale=0.5"]

    def test_pokec_families_run_on_chunked_masks(self, monkeypatch):
        monkeypatch.setitem(perf_suite.SIZES, "pokec-sparse", ((2,), (2,)))
        for requested in ("auto", "bigint", "chunked"):
            document = perf_suite.run_suite(
                quick=True,
                only=["pokec-sparse"],
                config=CSPMConfig(mask_backend=requested),
            )
            (entry,) = document["workloads"][0]["series"]
            assert entry["mask_backend"] == "chunked"
            assert entry["runs"]["partial/overlap"]["mask_backend"] == "chunked"
            assert document["mask_backend"] == requested

    def test_pokec_xl_skipped_under_quick(self):
        document = perf_suite.run_suite(quick=True, only=["pokec-xl"])
        assert document["workloads"] == []

    def test_basic_runs_in_the_full_suite_only(self, monkeypatch):
        monkeypatch.setitem(perf_suite.SIZES, "sparse-scaling", ((3,), (3,)))
        for quick, runs in (
            (True, {"partial/overlap"}),
            (False, {"partial/overlap", "basic/overlap"}),
        ):
            document = perf_suite.run_suite(quick=quick, only=["sparse-scaling"])
            (entry,) = document["workloads"][0]["series"]
            assert set(entry["runs"]) == runs

    def test_each_run_gets_its_own_metrics(self):
        document = perf_suite.run_suite(
            quick=True, only=["usflight"], metrics=True
        )
        run = document["workloads"][0]["series"][0]["runs"]["partial/overlap"]
        counters = run["metrics"]["counters"]
        assert counters["search.gains_computed"] == run["total_gain_computations"]
        assert list(perf_suite.collect_metrics(document)) == [
            "usflight/scale=0.5/partial/overlap"
        ]

    def test_trace_holds_the_stage_tree_of_every_run(self):
        # Each case runs the pipeline's own Search stage, so a traced
        # suite holds one mine.search span per run entry.
        obs = Observation.create(trace=True)
        with activate(obs):
            document = perf_suite.run_suite(quick=True, only=["usflight", "dblp"])
        names = [record[0] for record in obs.tracer.export_spans()]
        runs = [
            run
            for workload in document["workloads"]
            for entry in workload["series"]
            for run in entry["runs"].values()
        ]
        assert len(runs) == 2
        for stage in ("mine.encode", "mine.build", "mine.search"):
            assert names.count(stage) == len(runs), stage


def fake_entry(label, **run_fields):
    """A series entry holding the fields ``check_bounds`` reads."""
    run = {
        "initial_candidate_gains": 100,
        "total_gain_computations": 500,
        "refreshes_skipped": 900,
        "dirty_revalidations": 40,
        "mask_backend": "chunked",
        "mask_peak_bytes": 100,
        **run_fields,
    }
    return {
        "label": label,
        "seeding_gain_reduction": 8.0,
        "mask_memory_reduction": 10.0,
        "mask_backend": "chunked",
        "runs": {"partial/overlap": run},
    }


def fake_document(**run_fields):
    return {
        "workloads": [
            {
                "workload": "sparse-scaling",
                "series": [
                    fake_entry("communities=16", **run_fields),
                    fake_entry("communities=48", **run_fields),
                ],
            },
            {
                "workload": "pokec-sparse",
                "series": [fake_entry("communities=800", **run_fields)],
            },
        ]
    }


def sparse48(**constraints):
    return {"sparse-scaling": {"communities=48": constraints}}


class TestCheckBounds:
    def test_passes_within_bounds(self):
        bounds = sparse48(
            max_initial_candidate_gains=150,
            min_seeding_gain_reduction=5.0,
            max_total_gain_computations=600,
            min_refreshes_skipped=500,
            max_dirty_revalidations=50,
            min_mask_memory_reduction=5.0,
            require_mask_backend="chunked",
        )
        assert perf_suite.check_bounds(fake_document(), bounds) == []

    def test_flags_each_broken_bound(self):
        bounds = sparse48(
            max_initial_candidate_gains=50,
            min_seeding_gain_reduction=10.0,
            max_total_gain_computations=400,
            min_refreshes_skipped=1000,
            max_dirty_revalidations=30,
            min_mask_memory_reduction=20.0,
            require_mask_backend="bigint",
        )
        failures = perf_suite.check_bounds(fake_document(), bounds)
        assert failures == [
            "sparse-scaling/communities=48: initial_candidate_gains 100 > bound 50",
            "sparse-scaling/communities=48: seeding_gain_reduction 8.0 < bound 10.0",
            "sparse-scaling/communities=48: total_gain_computations 500 > bound 400",
            "sparse-scaling/communities=48: refreshes_skipped 900 < bound 1000",
            "sparse-scaling/communities=48: dirty_revalidations 40 > bound 30",
            "sparse-scaling/communities=48: mask_memory_reduction 10.0 < bound 20.0",
            "sparse-scaling/communities=48: mask_backend 'chunked' != bound 'bigint'",
        ]

    def test_missing_workload_or_series_reported(self):
        bounds = {
            "dblp": {"scale=0.5": {"max_initial_candidate_gains": 1}},
            "sparse-scaling": {
                "communities=32": {"max_total_gain_computations": 1}
            },
        }
        assert perf_suite.check_bounds(fake_document(), bounds) == [
            "workload 'dblp' missing from document",
            "sparse-scaling: series 'communities=32' missing from document",
        ]


def write(tmp_path, document):
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(document))
    return str(path)


COMMITTED = json.loads(BOUNDS_FILE.read_text())


def _paths(node, prefix=()):
    """Every position in a JSON document, as a key path from the root."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))


#: The one-node mutations: drop the node, or replace it with one of these.
REPLACEMENTS = [
    None, "", "x", 3, -1, 1.5, float("nan"), True, [], [[]], {}, {"a": 1},
]
DROP = object()


class TestDecodeBounds:
    def test_committed_file(self):
        bounds = perf_suite.load_bounds(str(BOUNDS_FILE))
        assert list(bounds) == ["sparse-scaling", "pokec-sparse"]
        pokec = bounds["pokec-sparse"]["communities=800"]
        # Chunked masks stay at least 5x below the whole-graph bigint
        # estimate on the pokec-scale smoke case.
        assert pokec["min_mask_memory_reduction"] >= 5.0
        assert pokec["require_mask_backend"] == "chunked"
        document = fake_document(initial_candidate_gains=10, refreshes_skipped=10**6)
        assert perf_suite.check_bounds(document, bounds) == []

    def test_misspelled_key_rejected(self, tmp_path):
        # It used to switch that bound off without a word.
        path = write(tmp_path, sparse48(max_total_gain_computation=1))
        with pytest.raises(ConfigError, match="unknown bound") as excinfo:
            perf_suite.load_bounds(path)
        assert (
            '$["sparse-scaling"]["communities=48"]["max_total_gain_computation"]'
            in str(excinfo.value)
        )

    def test_nan_bound_rejected(self, tmp_path):
        # json reads NaN, and every comparison with it is false.
        path = tmp_path / "bounds.json"
        path.write_text(
            '{"sparse-scaling": {"communities=48": '
            '{"max_total_gain_computations": NaN}}}'
        )
        with pytest.raises(ConfigError, match="max_total_gain_computations"):
            perf_suite.load_bounds(str(path))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("max_total_gain_computations", True),
            ("max_total_gain_computations", -1),
            ("max_total_gain_computations", 1.5),
            ("max_total_gain_computations", "9"),
            ("max_total_gain_computations", None),
            ("min_seeding_gain_reduction", float("inf")),
            ("min_seeding_gain_reduction", -0.5),
            ("min_seeding_gain_reduction", False),
            ("min_mask_memory_reduction", [5.0]),
            ("require_mask_backend", "auto"),
            ("require_mask_backend", "numpy"),
            ("require_mask_backend", 3),
        ],
    )
    def test_bad_bound_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            perf_suite.decode_bounds(sparse48(**{key: value}))

    def test_ints_pass_for_ratio_floors(self):
        bounds = perf_suite.decode_bounds(sparse48(min_seeding_gain_reduction=5))
        assert bounds == sparse48(min_seeding_gain_reduction=5)

    @pytest.mark.parametrize(
        "document, fragment",
        [
            ({"pokec": {}}, 'unknown workload'),
            ({"sparse-scaling": {"communities=47": {}}}, "unknown label"),
            ({"usflight": {"communities=16": {}}}, "unknown label"),
            ([], "must be an object"),
            ({"sparse-scaling": []}, 'sparse-scaling"] must be an object'),
            (sparse48(**{"": 1}), "unknown bound"),
        ],
    )
    def test_unknown_or_misshapen_nodes_rejected(self, document, fragment):
        with pytest.raises(ConfigError, match=fragment):
            perf_suite.decode_bounds(document)

    def test_comment_keys_are_free_form_at_every_level(self):
        document = {
            "__comment": ["anything", 1],
            "sparse-scaling": {
                "__note": None,
                "communities=48": {"__why": {}, "max_dirty_revalidations": 450},
            },
        }
        assert perf_suite.decode_bounds(document) == sparse48(
            max_dirty_revalidations=450
        )

    @pytest.mark.parametrize(
        "content, fragment",
        [
            (None, "No such file"),
            (b"\xff\xfe{}", "codec can't decode"),
            (b'{"sparse-scaling": ', "Expecting value"),
        ],
        ids=["missing", "non-utf8", "non-json"],
    )
    def test_unreadable_files_rejected(self, tmp_path, content, fragment):
        path = tmp_path / "bounds.json"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match=fragment):
            perf_suite.load_bounds(str(path))

    @given(
        path=st.sampled_from(list(_paths(COMMITTED))),
        replacement=st.sampled_from([DROP, *REPLACEMENTS]),
    )
    @settings(max_examples=300, deadline=None)
    def test_one_node_mutations_raise_only_config_errors(self, path, replacement):
        # Drop one node of the committed file or replace it: the decoder
        # returns bounds the check can apply, or raises a ConfigError.
        document = copy.deepcopy(COMMITTED)
        if not path:
            document = None if replacement is DROP else replacement
        else:
            parent = document
            for key in path[:-1]:
                parent = parent[key]
            if replacement is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = replacement
        try:
            bounds = perf_suite.decode_bounds(document)
        except ConfigError:
            return
        failures = perf_suite.check_bounds(fake_document(), bounds)
        assert all(isinstance(failure, str) for failure in failures)


def run_main(argv, capsys):
    code = perf_suite.main(argv)
    return code, capsys.readouterr()


@pytest.fixture()
def no_measuring(monkeypatch):
    def fail(**kwargs):
        raise AssertionError("measured before the flags were checked")

    monkeypatch.setattr(perf_suite, "run_suite", fail)


class TestCommandLine:
    def test_default_out_keeps_quick_runs_off_the_tracked_document(self):
        root = Path(perf_suite.__file__).resolve().parents[1]
        assert perf_suite.parse_args([]).out == str(root / "BENCH_cspm.json")
        quick = perf_suite.parse_args(["--quick"]).out
        assert quick == str(root / "BENCH_quick.json")
        assert perf_suite.parse_args(["--quick", "--out", "b.json"]).out == "b.json"

    def test_bad_bounds_file_exits_2_before_measuring(
        self, tmp_path, capsys, no_measuring
    ):
        missing = str(tmp_path / "nope.json")
        code, captured = run_main(["--quick", "--check", missing], capsys)
        assert code == 2
        assert captured.err.startswith("error: cannot read bounds file")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_bad_search_workers_exits_2_before_measuring(self, capsys, no_measuring):
        code, captured = run_main(
            ["--quick", "--search", "sharded", "--search-workers", "0"], capsys
        )
        assert code == 2
        assert captured.err.startswith("error: search_workers must be")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--out", "--trace", "--metrics"])
    def test_output_in_a_missing_directory_exits_2_before_measuring(
        self, tmp_path, capsys, no_measuring, flag
    ):
        target = str(tmp_path / "missing" / "file.json")
        code, captured = run_main(["--quick", flag, target], capsys)
        assert code == 2
        assert captured.err == f"error: {flag} {target}: no such directory\n"

    def test_unknown_workload_exits_2(self, capsys, no_measuring):
        with pytest.raises(SystemExit) as excinfo:
            perf_suite.main(["--workload", "nope"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_check_gates_the_measured_family(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        bounds = {"usflight": {"scale=0.5": {"max_total_gain_computations": 0}}}
        bounds["sparse-scaling"] = COMMITTED["sparse-scaling"]
        argv = ["--quick", "--workload", "usflight", "--out", str(out)]
        code, captured = run_main(argv + ["--check", write(tmp_path, bounds)], capsys)
        # Only usflight ran, so only its (broken) bound is checked.
        assert code == 1
        assert "usflight/scale=0.5: total_gain_computations" in captured.err
        assert "sparse-scaling" not in captured.err
        document = json.loads(out.read_text())
        assert [w["workload"] for w in document["workloads"]] == ["usflight"]
        bounds["usflight"]["scale=0.5"]["max_total_gain_computations"] = 10**6
        code, captured = run_main(argv + ["--check", write(tmp_path, bounds)], capsys)
        assert code == 0
        assert "counter bounds OK" in captured.out

    def test_failed_write_keeps_the_previous_document(self, tmp_path, monkeypatch):
        out = tmp_path / "bench.json"
        out.write_text('{"previous": true}')

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(perf_suite.json, "dump", explode)
        with pytest.raises(OSError, match="disk full"):
            perf_suite.write_document({"workloads": []}, str(out))
        assert not (tmp_path / "bench.json.tmp").exists()
        assert out.read_text() == '{"previous": true}'
