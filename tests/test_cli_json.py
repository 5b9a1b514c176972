"""CLI tests for the ``mine`` subcommand, including the --json golden file.

The golden file pins the exact serialised output of ``mine --json`` on
the paper's running example — config, ranked a-stars, trace and DL
accounting.  If an intentional change to the output format or to the
MDL accounting moves it, regenerate with::

    PYTHONPATH=src python -m repro.cli mine <paper_graph.json> --json \
        > tests/data/mine_paper_golden.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import CSPMConfig
from repro.datasets.synthetic import community_attributed_graph
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.builders import paper_running_example
from repro.graphs.io import save_json

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))

import perf_suite

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).parent.parent / "src"
#: Edges 1-2 and 3-4; vertex 1 carries the int 7, the others strings, so
#: code-length ties are broken between an int and a str value.
MIXED_GRAPH = DATA_DIR / "mixed_int_str_graph.json"


@pytest.fixture()
def paper_graph_file(tmp_path):
    path = tmp_path / "paper.json"
    save_json(paper_running_example(), path)
    return str(path)


class TestMineJson:
    def test_golden_file(self, paper_graph_file, capsys):
        assert main(["mine", paper_graph_file, "--json"]) == 0
        out = capsys.readouterr().out
        golden = (DATA_DIR / "mine_paper_golden.json").read_text()
        assert out == golden

    def test_output_is_valid_json_with_config(self, paper_graph_file, capsys):
        main(["mine", paper_graph_file, "--json", "--top", "3"])
        document = json.loads(capsys.readouterr().out)
        assert document["schema_version"] == 1
        config = CSPMConfig.from_dict(document["config"])
        assert config.top_k == 3
        assert len(document["astars"]) <= 3

    def test_round_trips_through_result(self, paper_graph_file, capsys):
        from repro import CSPM, CSPMResult

        main(["mine", paper_graph_file, "--json", "--top", "0"])
        restored = CSPMResult.from_json(capsys.readouterr().out)
        reference = CSPM().fit(paper_running_example())
        assert restored.astars == reference.astars
        assert restored.final_dl == reference.final_dl

    def test_json_default_serialises_everything(self, paper_graph_file, capsys):
        from repro import CSPM

        main(["mine", paper_graph_file, "--json"])
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["top_k"] is None
        reference = CSPM().fit(paper_running_example())
        assert len(document["astars"]) == len(reference.astars)

    def test_defaults_are_the_library_defaults(self, paper_graph_file, capsys):
        main(["mine", paper_graph_file, "--json"])
        document = json.loads(capsys.readouterr().out)
        assert document["config"] == CSPMConfig().to_dict()

    def test_method_and_scope_flow_into_config(self, paper_graph_file, capsys):
        main(
            [
                "mine",
                paper_graph_file,
                "--json",
                "--method",
                "basic",
                "--scope",
                "related",
            ]
        )
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["method"] == "basic"
        assert document["trace"]["algorithm"].startswith("cspm-basic")

    def test_basic_scores_every_pair_every_iteration(self, paper_graph_file, capsys):
        # --method basic is the paper's loop, so its result document
        # records a full scan on every iteration.
        main(["mine", paper_graph_file, "--json", "--method", "basic"])
        iterations = json.loads(capsys.readouterr().out)["trace"]["iterations"]
        assert iterations
        for step in iterations:
            assert step["gains_computed"] == step["possible_pairs"]


def tenant_graph(tenants=4, communities=3):
    """``tenants`` planted-community graphs side by side, each with its
    own vocabulary: one overlap component per tenant."""
    edges, attributes = [], {}
    for tenant in range(tenants):
        part = community_attributed_graph(
            community_sizes=[25] * communities,
            community_pools=[
                [f"t{tenant}c{community}v{value}" for value in range(6)]
                for community in range(communities)
            ],
            values_per_vertex=(2, 3),
            intra_degree=2.5,
            inter_degree=0.05,
            seed=tenant,
        )
        offset = tenant * 10_000
        edges += [(u + offset, v + offset) for u, v in part.edges()]
        attributes.update(
            (vertex + offset, part.attributes_of(vertex)) for vertex in part.vertices()
        )
    return AttributedGraph.from_edges(edges, attributes)


class TestShardedMineJson:
    def test_two_runs_print_the_same_bytes(self, tmp_path, capsys):
        # The document holds no wall-clock time, so a pooled run's bytes
        # repeat; the metrics show that a pool ran.
        path = tmp_path / "tenants.json"
        save_json(tenant_graph(), path)
        outputs = []
        for run in range(2):
            metrics = tmp_path / f"metrics{run}.json"
            argv = ["mine", str(path), "--json", "--search", "sharded",
                    "--search-workers", "2", "--metrics", str(metrics)]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
            histograms = json.loads(metrics.read_text())["histograms"]
            assert histograms["runtime.site_seconds{site=search}"]["count"] == 1
        assert outputs[0] == outputs[1]
        assert "runtime" not in json.loads(outputs[0])


class TestMixedValueTypes:
    """Valid graphs whose attribute values mix ints and strings."""

    def test_mine_json_exits_zero(self, capsys):
        assert main(["mine", str(MIXED_GRAPH), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        values = {
            value
            for star in document["astars"]
            for value in star["coreset"] + star["leafset"]
        }
        assert values == {7, "q", "z"}

    def test_mine_text_exits_zero(self, capsys):
        assert main(["mine", str(MIXED_GRAPH)]) == 0
        assert "->" in capsys.readouterr().out


def mine_json_under_hash_seed(path, seed):
    """``repro mine --json`` stdout from a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-m", "repro.cli", "mine", str(path), "--json"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestOutputAcrossProcesses:
    """``mine --json`` bytes do not depend on ``PYTHONHASHSEED``."""

    def test_paper_graph_matches_golden_under_two_hash_seeds(
        self, paper_graph_file
    ):
        golden = (DATA_DIR / "mine_paper_golden.json").read_text()
        for seed in (0, 1):
            assert mine_json_under_hash_seed(paper_graph_file, seed) == golden

    def test_mixed_type_graph_under_two_hash_seeds(self):
        first, second = (
            mine_json_under_hash_seed(MIXED_GRAPH, seed) for seed in (0, 1)
        )
        assert first == second


class TestMineText:
    def test_summary_and_stars_printed(self, paper_graph_file, capsys):
        assert main(["mine", paper_graph_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("CSPM (cspm-partial")
        assert "->" in out

    def test_min_leafset_filter_applies(self, paper_graph_file, capsys):
        main(["mine", paper_graph_file, "--min-leafset", "2"])
        out = capsys.readouterr().out
        star_lines = [l for l in out.splitlines() if l.startswith("  (")]
        for line in star_lines:
            leaf = line.split("-> {", 1)[1].split("}", 1)[0]
            assert len(leaf.split(",")) >= 2


class TestMalformedGraphFile:
    """Bad graph files end in one ``error:`` line and exit code 2."""

    @pytest.mark.parametrize(
        "document",
        [
            {"edges": [[1]]},
            {"edges": [[[1], 2]]},
            {"edges": [[1, 2]], "attributes": {"1": "abc"}},
            # Shapes that used to escape the loader with a traceback.
            [],
            {"vertices": [{}]},
            {"attributes": 1.5},
            {"vertices": 3},
            {"edges": 5},
            # Bytes that are not UTF-8 (an executable's header).
            pytest.param(b"\x7fELF\x02\x01\x01\x00\xff\xfe{}", id="non-utf8"),
        ],
    )
    def test_mine_exits_2_without_traceback(self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        if isinstance(document, bytes):
            path.write_bytes(document)
        else:
            path.write_text(json.dumps(document))
        assert main(["mine", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if isinstance(document, bytes):
            assert str(path) in err


RETIRED_FLAGS = [
    pytest.param(["--construction", "partitioned"], id="partitioned-construction"),
    pytest.param(["--construction-workers", "2"], id="construction-workers"),
    pytest.param(["--mask-backend", "numpy"], id="numpy-backend"),
    pytest.param(["--worker-timeout", "5"], id="worker-timeout"),
    pytest.param(["--max-task-retries", "0"], id="max-task-retries"),
    pytest.param(["--on-worker-failure", "raise"], id="on-worker-failure"),
    pytest.param(["--fault-plan", "{}"], id="fault-plan"),
]
# The perf harness has no ``--scope``; the retired scope value is a
# mine-only row.
RETIRED_MINE_FLAGS = [
    *RETIRED_FLAGS,
    pytest.param(["--scope", "exhaustive"], id="exhaustive-scope"),
]


class TestRetiredFlags:
    """Flags of deleted execution variants fail argparse with exit 2."""

    def assert_exits_2(self, argv, capsys, parse=main):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", RETIRED_MINE_FLAGS)
    def test_mine_exits_2(self, paper_graph_file, capsys, flags):
        self.assert_exits_2(["mine", paper_graph_file, *flags], capsys)

    @pytest.mark.parametrize("flags", RETIRED_FLAGS)
    def test_bench_exits_2(self, capsys, flags):
        # The flags of benchmarks/perf_suite.py, the one perf harness.
        parse = perf_suite.build_parser().parse_args
        self.assert_exits_2(flags, capsys, parse=parse)

    def test_repro_bench_exits_2(self, capsys):
        # The harness left the CLI: ``bench`` is no subcommand.
        self.assert_exits_2(["bench", "--quick"], capsys)
