"""Round-trip tests for the serialisable result surface."""

import json

import pytest

from repro import CSPM, CSPMConfig, CSPMResult, ConfigError, MiningError
from repro.core.astar import AStar
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.instrumentation import RunTrace
from repro.core.mdl import DescriptionLength
from repro.graphs.builders import paper_running_example

#: Marks a top-level key the malformed-document rows delete; a callable
#: row value maps the section to its malformed replacement.
DROP = object()


class TestAStarRoundTrip:
    def test_round_trip_equality(self):
        star = AStar(
            coreset=frozenset({"a"}),
            leafset=frozenset({"b", "c"}),
            frequency=3,
            coreset_frequency=5,
            code_length=1.25,
        )
        back = AStar.from_dict(star.to_dict())
        assert back == star
        assert back.code_length == star.code_length  # compare=False field

    def test_dict_is_json_ready(self):
        star = AStar(coreset={"a"}, leafset={"b"}, frequency=1)
        assert AStar.from_dict(json.loads(json.dumps(star.to_dict()))) == star

    def test_sets_serialised_sorted(self):
        star = AStar(coreset={"b", "a"}, leafset={"z", "y"})
        document = star.to_dict()
        assert document["coreset"] == ["a", "b"]
        assert document["leafset"] == ["y", "z"]


class TestResultRoundTrip:
    @pytest.fixture(scope="class")
    def mined(self):
        return CSPM(config=CSPMConfig(method="partial")).fit(
            paper_running_example()
        )

    def test_ranking_preserved(self, mined):
        back = CSPMResult.from_dict(mined.to_dict())
        assert back.astars == mined.astars
        assert [s.code_length for s in back.astars] == [
            s.code_length for s in mined.astars
        ]

    def test_dl_accounting_preserved(self, mined):
        back = CSPMResult.from_dict(mined.to_dict())
        assert back.initial_dl == mined.initial_dl
        assert back.final_dl == mined.final_dl
        assert back.compression_ratio == mined.compression_ratio

    def test_trace_preserved(self, mined):
        back = CSPMResult.from_dict(mined.to_dict())
        assert back.trace.algorithm == mined.trace.algorithm
        assert back.trace.num_iterations == mined.trace.num_iterations
        assert (
            back.trace.total_gain_computations
            == mined.trace.total_gain_computations
        )
        assert back.trace.update_ratios() == mined.trace.update_ratios()

    def test_code_tables_preserved_bit_exactly(self, mined):
        back = CSPMResult.from_dict(mined.to_dict())
        assert back.standard_table.lengths() == mined.standard_table.lengths()
        assert (
            back.standard_table.total_occurrences
            == mined.standard_table.total_occurrences
        )
        for coreset in mined.core_table.coresets():
            assert back.core_table.code_length(
                coreset
            ) == mined.core_table.code_length(coreset)

    def test_config_preserved(self, mined):
        back = CSPMResult.from_dict(mined.to_dict())
        assert back.config == mined.config

    def test_inverted_db_not_serialised(self, mined):
        document = mined.to_dict()
        assert "inverted_db" not in document
        assert CSPMResult.from_dict(document).inverted_db is None

    def test_json_round_trip(self, mined):
        back = CSPMResult.from_json(mined.to_json())
        assert back.astars == mined.astars

    @pytest.mark.parametrize(
        "change, error, key",
        [
            ({"schema_version": 99}, MiningError, "schema_version"),
            ({"schema_version": DROP}, MiningError, "schema_version"),
            ({"astars": DROP}, MiningError, "astars"),
            ({"trace": DROP}, MiningError, "trace"),
            ({"astars": "abc"}, MiningError, "astars"),
            ({"astars": [{"coreset": ["a"]}]}, MiningError, r"astars\[0\]"),
            ({"astars": [7]}, MiningError, r"astars\[0\]"),
            (
                {"astars": [{"coreset": [["a"]], "leafset": ["b"]}]},
                MiningError,
                r"astars\[0\]",
            ),
            # The retired partitioned-build knob in a config echo.
            ({"config": {"construction_workers": 2}}, ConfigError, "unknown"),
            ({"config": {"partial_update_scope": "exhaustive"}}, ConfigError, "scope"),
            ({"config": []}, ConfigError, "config"),
            ({"config": 5}, ConfigError, "config"),
            ({"trace": {}}, MiningError, "trace"),
            ({"trace": []}, MiningError, "trace"),
            ({"trace": lambda t: {**t, "iterations": [{}]}}, MiningError, "trace"),
            ({"initial_dl": {}}, MiningError, "initial_dl"),
            ({"final_dl": None}, MiningError, "final_dl"),
            ({"standard_table": []}, MiningError, "standard_table"),
            ({"core_table": {}}, MiningError, "core_table"),
        ],
        ids=[
            "future-schema",
            "no-schema",
            "no-astars",
            "no-trace",
            "astars-not-array",
            "astar-without-leafset",
            "astar-not-object",
            "astar-unhashable-value",
            "retired-config-key",
            "retired-update-scope",
            "config-array",
            "config-number",
            "trace-empty",
            "trace-array",
            "iteration-empty",
            "initial-dl-empty",
            "final-dl-null",
            "standard-table-array",
            "core-table-empty",
        ],
    )
    def test_malformed_documents_rejected(self, mined, change, error, key):
        document = mined.to_dict()
        for name, value in change.items():
            if value is DROP:
                del document[name]
            elif callable(value):
                document[name] = value(document[name])
            else:
                document[name] = value
        with pytest.raises(error, match=key):
            CSPMResult.from_dict(document)

    def test_restored_result_still_filters_and_summarises(self, mined):
        back = CSPMResult.from_dict(mined.to_dict())
        assert back.summary() == mined.summary()
        assert back.filter(min_leafset_size=2) == mined.filter(
            min_leafset_size=2
        )
        assert back.top(2) == mined.top(2)


class TestComponentRoundTrips:
    def test_description_length(self):
        breakdown = DescriptionLength(1.0, 2.5, 3.25, 0.75)
        assert DescriptionLength.from_dict(breakdown.to_dict()) == breakdown

    def test_run_trace_merged_pairs(self):
        mined = CSPM().fit(paper_running_example())
        back = RunTrace.from_dict(
            json.loads(json.dumps(mined.trace.to_dict()))
        )
        assert back.iterations == mined.trace.iterations

    def test_standard_table(self):
        table = StandardCodeTable({"a": 3, "b": 1})
        back = StandardCodeTable.from_dict(
            json.loads(json.dumps(table.to_dict()))
        )
        assert back.lengths() == table.lengths()

    def test_core_table(self):
        table = CoreCodeTable({frozenset({"a", "b"}): 2, frozenset({"c"}): 1})
        back = CoreCodeTable.from_dict(json.loads(json.dumps(table.to_dict())))
        for coreset in table.coresets():
            assert back.code_length(coreset) == table.code_length(coreset)


class TestFilterSemantics:
    """Satellite: core_value accepts a single value or a set of values."""

    @pytest.fixture(scope="class")
    def result(self):
        """A result with both singleton and multi-value coresets."""
        stars = [
            AStar({"a"}, {"x"}, frequency=4, code_length=1.0),
            AStar({"a", "b"}, {"x", "y"}, frequency=3, code_length=2.0),
            AStar({"b"}, {"y"}, frequency=2, code_length=3.0),
            AStar({"a", "b", "c"}, {"z"}, frequency=1, code_length=4.0),
        ]
        mined = CSPM().fit(paper_running_example())
        return CSPMResult(
            astars=stars,
            trace=mined.trace,
            initial_dl=mined.initial_dl,
            final_dl=mined.final_dl,
            standard_table=mined.standard_table,
            core_table=mined.core_table,
        )

    def test_single_value_is_membership(self, result):
        stars = result.filter(core_value="a")
        assert [set(s.coreset) for s in stars] == [
            {"a"},
            {"a", "b"},
            {"a", "b", "c"},
        ]

    def test_set_is_subset_match(self, result):
        stars = result.filter(core_value={"a", "b"})
        assert [set(s.coreset) for s in stars] == [
            {"a", "b"},
            {"a", "b", "c"},
        ]

    def test_frozenset_is_subset_match(self, result):
        assert result.filter(core_value=frozenset({"b", "c"})) == [
            result.astars[3]
        ]

    def test_list_treated_as_collection(self, result):
        stars = result.filter(core_value=["a", "b"])
        assert stars == result.filter(core_value={"a", "b"})

    def test_empty_set_matches_everything(self, result):
        assert result.filter(core_value=set()) == result.astars

    def test_rank_order_preserved(self, result):
        stars = result.filter(core_value="b")
        assert stars == [s for s in result.astars if "b" in s.coreset]

    def test_mined_results_support_membership(self):
        mined = CSPM().fit(paper_running_example())
        for star in mined.filter(core_value="a"):
            assert "a" in star.coreset
