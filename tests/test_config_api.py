"""Tests for the typed configuration and the CSPM constructor shim."""

import dataclasses

import pytest

from repro import CSPM, CSPMConfig, ConfigError, MiningError
from repro.config import EXECUTION_FIELDS
from repro.graphs.builders import paper_running_example


class TestValidation:
    def test_defaults_are_valid(self):
        config = CSPMConfig()
        assert config.method == "partial"
        assert config.coreset_encoder == "singleton"
        assert config.include_model_cost is True
        assert config.max_iterations is None
        assert config.partial_update_scope == "lazy"
        assert config.top_k is None
        assert config.min_leafset == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "alien"},
            {"coreset_encoder": "alien"},
            {"partial_update_scope": "alien"},
            {"include_model_cost": "yes"},
            {"max_iterations": -1},
            {"max_iterations": 2.5},
            {"top_k": 0},
            {"top_k": -3},
            {"top_k": True},
            {"min_leafset": 0},
            {"min_leafset": None},
            {"mask_backend": "numpy"},
            {"partial_update_scope": "exhaustive"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CSPMConfig(**kwargs)

    def test_config_error_is_a_mining_error(self):
        with pytest.raises(MiningError):
            CSPMConfig(method="alien")

    def test_frozen(self):
        config = CSPMConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.method = "basic"

    def test_replace_revalidates(self):
        config = CSPMConfig()
        assert config.replace(method="basic").method == "basic"
        with pytest.raises(ConfigError):
            config.replace(method="alien")
        with pytest.raises(ConfigError):
            config.replace(no_such_field=1)


class TestRoundTrip:
    def test_default_round_trip(self):
        config = CSPMConfig()
        assert CSPMConfig.from_dict(config.to_dict()) == config

    def test_custom_round_trip(self):
        config = CSPMConfig(
            method="basic",
            coreset_encoder="slim",
            include_model_cost=False,
            max_iterations=7,
            partial_update_scope="related",
            top_k=10,
            min_leafset=2,
        )
        assert CSPMConfig.from_dict(config.to_dict()) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            CSPMConfig.from_dict({"method": "basic", "typo_field": 1})
        with pytest.raises(ConfigError, match="construction"):
            CSPMConfig.from_dict({"construction": "partitioned"})
        # The retired supervisor knobs are unknown fields now.
        for retired in (
            "worker_timeout", "max_task_retries", "on_worker_failure", "fault_plan"
        ):
            with pytest.raises(ConfigError, match=retired):
                CSPMConfig.from_dict({retired: None})
        for not_a_mapping in (5, [], "method", None):
            with pytest.raises(ConfigError, match="config must be an object"):
                CSPMConfig.from_dict(not_a_mapping)

    def test_to_dict_is_json_ready(self):
        import json

        text = json.dumps(CSPMConfig(top_k=3).to_dict())
        assert CSPMConfig.from_dict(json.loads(text)) == CSPMConfig(top_k=3)

    #: One non-default value per execution field.
    NON_DEFAULT = {
        "mask_backend": "bigint",
        "search": "sharded",
        "search_workers": 2,
        "trace": True,
        "metrics": True,
        "progress": True,
    }

    def test_each_execution_field_is_omitted_only_at_its_default(self):
        assert set(self.NON_DEFAULT) == set(EXECUTION_FIELDS)
        names = [field.name for field in dataclasses.fields(CSPMConfig)]
        mining = [name for name in names if name not in EXECUTION_FIELDS]
        assert list(CSPMConfig().to_dict()) == mining
        for name, value in self.NON_DEFAULT.items():
            document = CSPMConfig(**{name: value}).to_dict()
            assert list(document) == [n for n in names if n in mining or n == name]
            assert document[name] == value

    def test_to_dict_bytes_with_every_execution_field_set(self):
        import json

        text = json.dumps(CSPMConfig(**self.NON_DEFAULT).to_dict())
        assert text == (
            '{"method": "partial", "coreset_encoder": "singleton", '
            '"include_model_cost": true, "max_iterations": null, '
            '"partial_update_scope": "lazy", "top_k": null, "min_leafset": 1, '
            '"mask_backend": "bigint", "search": "sharded", "search_workers": 2, '
            '"trace": true, "metrics": true, "progress": true}'
        )


class TestFacadeShim:
    """Legacy keyword construction must keep working unchanged."""

    def test_legacy_keywords(self):
        miner = CSPM(method="basic", coreset_encoder="slim")
        assert miner.config == CSPMConfig(method="basic", coreset_encoder="slim")
        # legacy attribute access
        assert miner.method == "basic"
        assert miner.coreset_encoder == "slim"
        assert miner.include_model_cost is True
        assert miner.max_iterations is None
        assert miner.partial_update_scope == "lazy"

    def test_legacy_positional(self):
        assert CSPM("basic").config.method == "basic"

    def test_legacy_invalid_still_mining_error(self):
        with pytest.raises(MiningError):
            CSPM(method="alien")
        with pytest.raises(MiningError):
            CSPM(coreset_encoder="alien")

    def test_config_object(self):
        config = CSPMConfig(method="basic")
        assert CSPM(config=config).config is config

    def test_config_plus_overrides(self):
        miner = CSPM(config=CSPMConfig(method="basic"), top_k=5)
        assert miner.config == CSPMConfig(method="basic", top_k=5)

    def test_config_wrong_type_rejected(self):
        with pytest.raises(ConfigError):
            CSPM(config={"method": "basic"})

    def test_legacy_and_config_fits_match(self, paper_graph):
        legacy = CSPM(method="basic").fit(paper_graph)
        typed = CSPM(config=CSPMConfig(method="basic")).fit(paper_graph)
        assert legacy.astars == typed.astars
        assert legacy.final_dl.total_bits == typed.final_dl.total_bits


class TestReprs:
    def test_cspm_repr_defaults(self):
        assert repr(CSPM()) == "CSPM(defaults)"

    def test_cspm_repr_shows_non_defaults(self):
        text = repr(CSPM(method="basic", top_k=5))
        assert "method='basic'" in text
        assert "top_k=5" in text
        assert "coreset_encoder" not in text  # defaults stay hidden

    def test_result_repr_is_compact(self):
        result = CSPM().fit(paper_running_example())
        text = repr(result)
        assert text.startswith("<CSPMResult:")
        assert f"{len(result.astars)} a-stars" in text
        assert "merges" in text
        # Not the dataclass wall: no field dump of tables or stars.
        assert "standard_table" not in text
        assert len(text) < 120
