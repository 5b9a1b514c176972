"""Tests for the perf-benchmark subsystem (``repro.perf.suite``).

The full suite is exercised by CI's perf-smoke job; here we cover the
building blocks on tiny inputs: measurement of one workload size, the
document shape, the counter-bound checker, and workload determinism.
"""

import json

import pytest
from oracles import naive_search

from repro.graphs.attributed_graph import AttributedGraph
from repro.perf.suite import (
    SCHEMA_VERSION,
    _measure_size,
    _prepare,
    check_bounds,
    construction_report,
    merge_into,
    pokec_sparse_graph,
    run_suite,
    sparse_scaling_graph,
    summarize,
)


@pytest.fixture(scope="module")
def tiny_entry():
    graph = sparse_scaling_graph(3)
    return _measure_size(graph, "communities=3", run_basic_too=True)


class TestMeasureSize:
    def test_runs_all_variants(self, tiny_entry):
        assert set(tiny_entry["runs"]) == {"partial/overlap", "basic/overlap"}

    def test_counters_present_and_consistent(self, tiny_entry):
        for run in tiny_entry["runs"].values():
            assert run["wall_seconds"] >= 0.0
            assert run["initial_candidate_gains"] >= 0
            assert run["total_gain_computations"] >= run["initial_candidate_gains"]
            assert run["refreshes_skipped"] >= 0
            assert run["dirty_revalidations"] >= 0
        # Peak queue size only exists for the partial variants.
        assert tiny_entry["runs"]["partial/overlap"]["peak_queue_size"] >= 1
        assert tiny_entry["runs"]["basic/overlap"]["peak_queue_size"] == 0

    def test_schema_version_and_lazy_counters(self, tiny_entry):
        assert SCHEMA_VERSION == 10
        partial = tiny_entry["runs"]["partial/overlap"]
        # Partial runs use (and record) the library default scope, and
        # the bound-driven refresh skips at least something on any
        # non-trivial workload.
        assert partial["update_scope"] == "lazy"
        assert partial["refreshes_skipped"] > 0
        # Basic has no queue, so no refreshes to skip or revalidate.
        basic = tiny_entry["runs"]["basic/overlap"]
        assert "update_scope" not in basic
        assert basic["refreshes_skipped"] == 0
        assert basic["dirty_revalidations"] == 0

    def test_schema_v3_mask_fields(self, tiny_entry):
        # The tiny graph resolves "auto" to bigint masks; every run
        # records the backend it executed on and its peak mask bytes,
        # and the entry carries the whole-graph bigint reference.
        assert tiny_entry["mask_backend"] == "bigint"
        assert tiny_entry["bigint_mask_bytes_estimate"] > 0
        for run in tiny_entry["runs"].values():
            assert run["mask_backend"] == "bigint"
            assert run["mask_peak_bytes"] > 0

    def test_schema_v4_construction_seconds(self, tiny_entry):
        # Every series entry records the BuildInvertedDB wall-clock;
        # the tiny label has no recorded pre-columnar baseline.
        assert tiny_entry["construction_seconds"] >= 0.0
        assert "construction_baseline_seconds" not in tiny_entry

    def test_schema_v8_drops_build_path_fields(self, tiny_entry):
        # One build path: neither the suite knobs nor the partitioned
        # build's retry telemetry are recorded any more.
        assert "construction_retries" not in tiny_entry
        assert "construction_degraded_tasks" not in tiny_entry
        document = run_suite(quick=True, only=["usflight"])
        assert "construction" not in document
        assert "construction_workers" not in document

    def test_schema_v10_drops_runtime_knobs(self):
        # The supervisor has no knobs left to record, and a sharded run
        # that opened a pool records its re-run tasks but no retries.
        document = run_suite(quick=True, only=["usflight"])
        for key in (
            "fault_plan", "worker_timeout", "max_task_retries", "on_worker_failure"
        ):
            assert key not in document
        two_parts = AttributedGraph.from_edges(
            edges=[(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)],
            attributes={
                1: {"a", "b"}, 2: {"a", "b"}, 3: {"a"},
                4: {"c", "d"}, 5: {"c", "d"}, 6: {"c"},
            },
        )
        entry = _measure_size(
            two_parts, "two-parts", run_basic_too=False,
            search="sharded", search_workers=2,
        )
        assert entry["num_components"] == 2
        run = entry["runs"]["partial/overlap"]
        assert run["degraded_tasks"] == []
        assert "retries" not in run

    def test_schema_v9_entry_keys(self, tiny_entry):
        # No full-scan runs, hence no full/overlap wall-clock ratios.
        assert set(tiny_entry) == {
            "label", "num_vertices", "num_leafsets", "possible_pairs",
            "num_components", "largest_component_frac", "mask_backend",
            "bigint_mask_bytes_estimate", "construction_seconds", "runs",
            "seeding_gain_reduction",
        }

    def test_schema_v5_search_fields(self, tiny_entry):
        # Component statistics live on the series entry; the search
        # wall-clock and mode on every run (mode on partial runs only,
        # and the worker knob only when sharded).
        assert tiny_entry["num_components"] >= 1
        assert 0.0 < tiny_entry["largest_component_frac"] <= 1.0
        for run in tiny_entry["runs"].values():
            assert run["search_seconds"] >= 0.0
        partial = tiny_entry["runs"]["partial/overlap"]
        assert partial["search"] == "serial"
        assert "search_workers" not in partial
        assert "search" not in tiny_entry["runs"]["basic/overlap"]

    def test_schema_v5_sharded_counters_identical(self):
        # The sharded path must reproduce the serial counters exactly
        # -- the property the CI sharded smoke gates on at scale.
        graph = sparse_scaling_graph(3)
        serial = _measure_size(graph, "communities=3", run_basic_too=False)
        sharded = _measure_size(
            graph,
            "communities=3",
            run_basic_too=False,
            search="sharded",
            search_workers=2,
        )
        run = sharded["runs"]["partial/overlap"]
        assert run["search"] == "sharded"
        assert run["search_workers"] == 2
        volatile = ("wall_seconds", "search_seconds", "search", "search_workers")
        left = {
            k: v
            for k, v in serial["runs"]["partial/overlap"].items()
            if k not in volatile
        }
        right = {k: v for k, v in run.items() if k not in volatile}
        assert left == right

    def test_recorded_baselines_attach_to_pokec_labels(self):
        from repro.perf.suite import PRE_COLUMNAR_CONSTRUCTION_SECONDS

        graph = pokec_sparse_graph(4)
        entry = _measure_size(
            graph,
            "communities=800",  # label with a recorded baseline
            run_basic_too=False,
            mask_backend="chunked",
            workload="pokec-sparse",
        )
        assert entry["construction_baseline_seconds"] == (
            PRE_COLUMNAR_CONSTRUCTION_SECONDS[
                ("pokec-sparse", "communities=800")
            ]
        )

    def test_counters_identical_across_mask_backends(self):
        graph = sparse_scaling_graph(3)
        structural = (
            "initial_candidate_gains",
            "total_gain_computations",
            "peak_queue_size",
            "refreshes_skipped",
            "dirty_revalidations",
            "iterations",
            "final_dl_bits",
        )
        entries = {
            backend: _measure_size(
                graph, "communities=3", run_basic_too=False, mask_backend=backend
            )
            for backend in ("bigint", "chunked")
        }
        reference = entries["bigint"]["runs"]["partial/overlap"]
        for backend, entry in entries.items():
            assert entry["mask_backend"] == backend
            run = entry["runs"]["partial/overlap"]
            for field in structural:
                assert run[field] == reference[field], (backend, field)

    def test_bit_exactness_against_oracle(self, tiny_entry):
        db0, standard, core, _bits, _build_seconds = _prepare(
            sparse_scaling_graph(3)
        )
        oracle = naive_search(db0.copy(), standard, core)
        for run in tiny_entry["runs"].values():
            assert run["final_dl_bits"] == oracle.final_dl_bits
            assert run["iterations"] == oracle.num_iterations

    def test_overlap_seeding_never_costlier(self, tiny_entry):
        # The full scan's seeding evaluates every possible pair.
        seeding = tiny_entry["runs"]["partial/overlap"]["initial_candidate_gains"]
        assert seeding <= tiny_entry["possible_pairs"]
        assert tiny_entry["seeding_gain_reduction"] == round(
            tiny_entry["possible_pairs"] / seeding, 3
        )
        assert tiny_entry["seeding_gain_reduction"] >= 1.0

    def test_entry_is_json_serialisable(self, tiny_entry):
        restored = json.loads(json.dumps(tiny_entry))
        assert restored["label"] == "communities=3"

    def test_summary_renders(self, tiny_entry):
        document = {
            "workloads": [
                {"workload": "sparse-scaling", "series": [tiny_entry]}
            ]
        }
        text = summarize(document)
        assert "sparse-scaling" in text and "communities=3" in text


class TestAcceptance:
    def test_sparse_seeding_gains_cut_at_least_5x(self):
        # The PR's headline counter criterion on the sparse Fig. 5
        # style workload: overlap-driven generation evaluates >=5x
        # fewer gains at seeding than the full scan, which evaluates
        # every possible pair, and still mines Basic's model
        # bit-exactly.  (Basic, the paper's loop, takes seconds here.)
        from repro.core.cspm_basic import run_basic
        from repro.core.cspm_partial import run_partial

        db0, standard, core, bits, _build_seconds = _prepare(
            sparse_scaling_graph(24)
        )
        overlap = run_partial(db0.copy(), standard, core, initial_dl_bits=bits)
        basic = run_basic(db0.copy(), standard, core, initial_dl_bits=bits)
        possible = db0.num_leafsets * (db0.num_leafsets - 1) // 2
        assert overlap.initial_candidate_gains * 5 <= possible
        assert overlap.final_dl_bits == basic.final_dl_bits


class TestWorkloadFilter:
    def test_only_restricts_the_run(self):
        document = run_suite(quick=True, only=["usflight"])
        assert [w["workload"] for w in document["workloads"]] == ["usflight"]
        assert document["schema_version"] == SCHEMA_VERSION

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_suite(quick=True, only=["nope"])

    def test_merge_into_preserves_other_workloads(self):
        existing = {
            "schema_version": 1,
            "workloads": [
                {"workload": "sparse-scaling", "series": ["old-sparse"]},
                {"workload": "dblp", "series": ["old-dblp"]},
            ],
        }
        fresh = {
            "schema_version": SCHEMA_VERSION,
            "quick": True,
            "workloads": [{"workload": "dblp", "series": ["new-dblp"]}],
        }
        merged = merge_into(existing, fresh)
        assert merged["schema_version"] == SCHEMA_VERSION
        assert [w["workload"] for w in merged["workloads"]] == [
            "sparse-scaling",
            "dblp",
        ]
        assert merged["workloads"][0]["series"] == ["old-sparse"]
        assert merged["workloads"][1]["series"] == ["new-dblp"]

    def test_merge_into_appends_new_workloads(self):
        existing = {"workloads": [{"workload": "dblp", "series": []}]}
        fresh = {
            "schema_version": SCHEMA_VERSION,
            "workloads": [
                {"workload": "dblp", "series": ["new"]},
                {"workload": "usflight", "series": ["added"]},
            ],
        }
        merged = merge_into(existing, fresh)
        assert [w["workload"] for w in merged["workloads"]] == [
            "dblp",
            "usflight",
        ]


class TestBenchCli:
    def test_workload_filter_merges_into_existing_output(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--output", str(out),
                     "--workload", "usflight"]) == 0
        first = json.loads(out.read_text())
        assert [w["workload"] for w in first["workloads"]] == ["usflight"]
        # Re-measuring another family keeps the usflight entry.
        assert main(["bench", "--quick", "--output", str(out),
                     "--workload", "dblp"]) == 0
        second = json.loads(out.read_text())
        assert sorted(w["workload"] for w in second["workloads"]) == [
            "dblp",
            "usflight",
        ]
        capsys.readouterr()


class TestPokecSparse:
    """The paper-scale family (measured tiny here; CI runs the smoke)."""

    @pytest.fixture(scope="class")
    def pokec_entry(self):
        graph = pokec_sparse_graph(4)
        return _measure_size(
            graph,
            "communities=4",
            run_basic_too=False,
            mask_backend="chunked",
        )

    def test_backend_upgrade_rule(self, monkeypatch):
        import repro.perf.suite as suite_module

        # Every suite-level request runs the family on chunked masks.
        monkeypatch.setattr(suite_module, "POKEC_SIZES_QUICK", (2,))
        for requested in ("auto", "bigint", "chunked"):
            document = run_suite(
                quick=True, only=["pokec-sparse"], mask_backend=requested
            )
            (entry,) = document["workloads"][0]["series"]
            assert entry["mask_backend"] == "chunked"

    def test_overlap_only_runs(self, pokec_entry):
        assert set(pokec_entry["runs"]) == {"partial/overlap"}
        seeding = pokec_entry["runs"]["partial/overlap"]["initial_candidate_gains"]
        assert pokec_entry["seeding_gain_reduction"] == round(
            pokec_entry["possible_pairs"] / seeding, 3
        )

    def test_chunked_masks_recorded(self, pokec_entry):
        run = pokec_entry["runs"]["partial/overlap"]
        assert pokec_entry["mask_backend"] == "chunked"
        assert run["mask_backend"] == "chunked"
        assert run["mask_peak_bytes"] > 0
        assert pokec_entry["bigint_mask_bytes_estimate"] > 0

    def test_summary_handles_null_ratios(self, pokec_entry):
        text = summarize(
            {"workloads": [{"workload": "pokec-sparse", "series": [pokec_entry]}]}
        )
        assert "pokec-sparse" in text and "chunked" in text

    def test_deterministic(self):
        first = pokec_sparse_graph(3)
        second = pokec_sparse_graph(3)
        assert first.num_vertices == second.num_vertices
        assert sorted(first.edges()) == sorted(second.edges())


class TestSparseScalingGraph:
    def test_deterministic(self):
        first = sparse_scaling_graph(3)
        second = sparse_scaling_graph(3)
        assert first.num_vertices == second.num_vertices
        assert sorted(first.edges()) == sorted(second.edges())

    def test_scales_value_universe(self):
        small = sparse_scaling_graph(2)
        large = sparse_scaling_graph(4)
        assert len(large.attribute_values()) > len(small.attribute_values())


class TestCheckBounds:
    def document(
        self, seed_gains=100, reduction=8.0, total=500, skipped=900, dirty=40
    ):
        return {
            "workloads": [
                {
                    "workload": "sparse-scaling",
                    "series": [
                        {
                            "label": "communities=48",
                            "seeding_gain_reduction": reduction,
                            "bigint_mask_bytes_estimate": 1000,
                            "runs": {
                                "partial/overlap": {
                                    "initial_candidate_gains": seed_gains,
                                    "total_gain_computations": total,
                                    "refreshes_skipped": skipped,
                                    "dirty_revalidations": dirty,
                                    "mask_backend": "chunked",
                                    "mask_peak_bytes": 100,
                                }
                            },
                        }
                    ],
                }
            ]
        }

    def test_passes_within_bounds(self):
        bounds = {
            "__comment": "ignored",
            "sparse-scaling": {
                "communities=48": {
                    "max_initial_candidate_gains": 150,
                    "min_seeding_gain_reduction": 5.0,
                    "max_total_gain_computations": 600,
                }
            },
        }
        assert check_bounds(self.document(), bounds) == []

    def test_flags_each_regression(self):
        bounds = {
            "sparse-scaling": {
                "communities=48": {
                    "max_initial_candidate_gains": 50,
                    "min_seeding_gain_reduction": 10.0,
                    "max_total_gain_computations": 400,
                }
            }
        }
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 3
        assert any("initial_candidate_gains" in f for f in failures)

    def test_lazy_counter_bounds_flagged(self):
        bounds = {
            "sparse-scaling": {
                "communities=48": {
                    "min_refreshes_skipped": 1000,
                    "max_dirty_revalidations": 30,
                }
            }
        }
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 2
        assert any("refreshes_skipped" in f for f in failures)
        assert any("dirty_revalidations" in f for f in failures)

    def test_lazy_counter_bounds_pass(self):
        bounds = {
            "sparse-scaling": {
                "communities=48": {
                    "min_refreshes_skipped": 500,
                    "max_dirty_revalidations": 50,
                }
            }
        }
        assert check_bounds(self.document(), bounds) == []

    def test_seeding_bound_on_overlap_only_entry_reports_not_crashes(self):
        # Entries of documents older than schema v9 may hold
        # seeding_gain_reduction None.  A bound on it must surface as
        # a failure message, not a TypeError.
        document = self.document()
        entry = document["workloads"][0]["series"][0]
        entry["seeding_gain_reduction"] = None
        bounds = {
            "sparse-scaling": {
                "communities=48": {"min_seeding_gain_reduction": 2.0}
            }
        }
        failures = check_bounds(document, bounds)
        assert len(failures) == 1 and "not measured" in failures[0]

    def test_mask_memory_reduction_bound(self):
        # The fixture document holds a 10x reduction (1000 / 100).
        bounds = {
            "sparse-scaling": {
                "communities=48": {"min_mask_memory_reduction": 5.0}
            }
        }
        assert check_bounds(self.document(), bounds) == []
        bounds["sparse-scaling"]["communities=48"][
            "min_mask_memory_reduction"
        ] = 20.0
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 1 and "mask memory reduction" in failures[0]

    def test_required_mask_backend(self):
        bounds = {
            "sparse-scaling": {
                "communities=48": {"require_mask_backend": "chunked"}
            }
        }
        assert check_bounds(self.document(), bounds) == []
        bounds["sparse-scaling"]["communities=48"][
            "require_mask_backend"
        ] = "bigint"
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 1 and "mask_backend" in failures[0]

    def test_missing_workload_or_series_reported(self):
        bounds = {
            "nope": {"x": {"max_initial_candidate_gains": 1}},
            "sparse-scaling": {
                "communities=99": {"max_total_gain_computations": 1}
            },
        }
        failures = check_bounds(self.document(), bounds)
        assert len(failures) == 2

    def test_report_only_series_may_be_absent(self):
        # A full-suite-only label carrying just a construction
        # reference must not fail the quick flavour's check.
        bounds = {
            "sparse-scaling": {
                "communities=99": {"max_construction_seconds": 1.0}
            }
        }
        assert check_bounds(self.document(), bounds) == []

    def test_report_only_workload_may_be_absent(self):
        # Same at the workload level: pokec-xl is skipped entirely
        # under --quick, so a bounds section holding only construction
        # references must not fail the quick check — but a section
        # with any enforceable key still must.
        report_only = {
            "pokec-xl": {
                "communities=32000": {"max_construction_seconds": 30.0}
            }
        }
        assert check_bounds(self.document(), report_only) == []
        enforceable = {
            "pokec-xl": {
                "communities=32000": {"max_total_gain_computations": 1}
            }
        }
        assert len(check_bounds(self.document(), enforceable)) == 1

    def test_repo_bounds_file_is_wellformed(self):
        from pathlib import Path

        path = Path(__file__).parents[1] / "benchmarks" / "perf_bounds.json"
        bounds = json.loads(path.read_text())
        constrained = [k for k in bounds if not k.startswith("__")]
        assert constrained == ["sparse-scaling", "pokec-sparse", "pokec-xl"]
        # pokec-xl never runs under --quick, so its section must stay
        # purely report-only (check_bounds would otherwise fail CI).
        for constraints in bounds["pokec-xl"].values():
            assert set(constraints) <= {"max_construction_seconds"}
        pokec = bounds["pokec-sparse"]["communities=800"]
        # The acceptance-criterion floor: chunked masks must stay at
        # least 5x below the whole-graph bigint estimate.
        assert pokec["min_mask_memory_reduction"] >= 5.0
        assert pokec["require_mask_backend"] == "chunked"


class TestWorkloadCatalog:
    """Satellite: --list-workloads / --list discoverability."""

    def test_catalog_covers_every_registered_family(self):
        from repro.perf.suite import WORKLOAD_NAMES, workload_catalog

        names = [record["workload"] for record in workload_catalog()]
        assert names == list(WORKLOAD_NAMES)

    def test_catalog_lists_quick_and_full_sizes(self):
        from repro.perf.suite import workload_catalog

        by_name = {r["workload"]: r for r in workload_catalog()}
        sparse = by_name["sparse-scaling"]
        assert any("communities=16" in label for label in sparse["quick"])
        assert any("communities=64" in label for label in sparse["full"])
        xl = by_name["pokec-xl"]
        assert xl["quick"] == []  # full suite only
        assert any("communities=32000" in label for label in xl["full"])
        assert any("1600000 vertices" in label for label in xl["full"])

    def test_format_renders_every_family(self):
        from repro.perf.suite import WORKLOAD_NAMES, format_workload_catalog

        text = format_workload_catalog()
        for name in WORKLOAD_NAMES:
            assert name in text
        assert "skipped under --quick" in text

    def test_bench_cli_list_workloads(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "pokec-xl" in out and "sparse-scaling" in out

    def test_perf_suite_script_list_alias(self, capsys):
        from repro.perf.suite import main as suite_main

        assert suite_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "pokec-xl" in out

    def test_pokec_xl_skipped_under_quick(self):
        document = run_suite(quick=True, only=["pokec-xl"])
        assert document["workloads"] == []

    def test_basic_runs_in_the_full_suite_only(self, monkeypatch):
        import repro.perf.suite as suite_module

        monkeypatch.setattr(suite_module, "SPARSE_SIZES_QUICK", (3,))
        monkeypatch.setattr(suite_module, "SPARSE_SIZES_FULL", (3,))
        for quick, runs in (
            (True, {"partial/overlap"}),
            (False, {"partial/overlap", "basic/overlap"}),
        ):
            document = run_suite(quick=quick, only=["sparse-scaling"])
            (entry,) = document["workloads"][0]["series"]
            assert set(entry["runs"]) == runs


class TestConstructionReporting:
    """Satellite: report-only max_construction_seconds handling."""

    def entry(self, seconds, baseline=None):
        entry = {"label": "communities=800", "construction_seconds": seconds}
        if baseline is not None:
            entry["construction_baseline_seconds"] = baseline
        return {
            "workloads": [
                {"workload": "pokec-sparse", "series": [entry]}
            ]
        }

    BOUNDS = {
        "__comment": "x",
        "pokec-sparse": {
            "communities=800": {"max_construction_seconds": 1.0}
        },
    }

    def test_within_reference_reports_and_never_fails(self):
        document = self.entry(0.5, baseline=1.5)
        lines = construction_report(document, self.BOUNDS)
        assert len(lines) == 1
        assert "within" in lines[0]
        assert "3.00x" in lines[0]  # baseline ratio 1.5 / 0.5
        assert check_bounds(document, self.BOUNDS) == []

    def test_over_reference_is_report_only(self):
        document = self.entry(2.0)
        lines = construction_report(document, self.BOUNDS)
        assert len(lines) == 1
        assert "OVER (report-only)" in lines[0]
        # The counter checker never fails on wall-clock.
        assert check_bounds(document, self.BOUNDS) == []

    def test_missing_entries_are_silently_skipped(self):
        assert construction_report({"workloads": []}, self.BOUNDS) == []


class TestAtomicWrite:
    """A failed output write must leave no orphaned ``.tmp`` file and
    must not touch an existing output document."""

    def test_failed_write_cleans_tmp_and_preserves_output(
        self, tmp_path, monkeypatch, capsys
    ):
        import argparse

        import repro.perf.suite as suite_module

        out = tmp_path / "bench.json"
        out.write_text('{"previous": true}')
        monkeypatch.setattr(
            suite_module,
            "run_suite",
            lambda **kwargs: {"schema_version": SCHEMA_VERSION, "workloads": []},
        )

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(suite_module.json, "dump", explode)
        args = argparse.Namespace(
            quick=True,
            seed=0,
            workloads=None,
            mask_backend=None,
            search=None,
            search_workers=None,
            out=str(out),
            check=None,
            list_workloads=False,
        )
        with pytest.raises(OSError, match="disk full"):
            suite_module.execute(args)
        assert not (tmp_path / "bench.json.tmp").exists()
        assert json.loads(out.read_text()) == {"previous": True}
        capsys.readouterr()
