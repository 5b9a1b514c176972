"""CLI tests for the ``mine`` subcommand, including the --json golden file.

The golden file pins the exact serialised output of ``mine --json`` on
the paper's running example — config, ranked a-stars, trace and DL
accounting.  If an intentional change to the output format or to the
MDL accounting moves it, regenerate with::

    PYTHONPATH=src python -m repro.cli mine <paper_graph.json> --json \
        > tests/data/mine_paper_golden.json
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.config import CSPMConfig
from repro.graphs.builders import paper_running_example
from repro.graphs.io import save_json

DATA_DIR = Path(__file__).parent / "data"


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
        ],
    )
    def test_mine_exits_2_without_traceback(self, tmp_path, capsys, document):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document))
        assert main(["mine", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


RETIRED_FLAGS = [
    pytest.param(["--construction", "partitioned"], id="partitioned-construction"),
    pytest.param(["--construction-workers", "2"], id="construction-workers"),
    pytest.param(["--mask-backend", "numpy"], id="numpy-backend"),
]
# ``bench`` has no ``--scope``; the retired scope value is a mine-only row.
RETIRED_MINE_FLAGS = [
    *RETIRED_FLAGS,
    pytest.param(["--scope", "exhaustive"], id="exhaustive-scope"),
]


class TestRetiredFlags:
    """Flags of deleted execution variants fail argparse with exit 2."""

    def assert_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", RETIRED_MINE_FLAGS)
    def test_mine_exits_2(self, paper_graph_file, capsys, flags):
        self.assert_exits_2(["mine", paper_graph_file, *flags], capsys)

    @pytest.mark.parametrize("flags", RETIRED_FLAGS)
    def test_bench_exits_2(self, capsys, flags):
        self.assert_exits_2(["bench", *flags], capsys)
