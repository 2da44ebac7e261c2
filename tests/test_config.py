from pathlib import Path

import pytest

from gradevade.config import ConfigError, load_config, parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestUnknownKeys:
    def test_flagship_surrogate_settings_reach_the_scenario(self):
        cfg = load_config(CONFIGS / "synthetic_pdf.json")
        assert cfg.scenario.surrogate_params == {"C": 100.0, "gamma": 0.002}

    def test_every_surrogate_key_is_accepted_and_unset_ones_are_left_out(self):
        keys = {"C": 5.0, "gamma": 0.5, "m": 4, "epochs": 7, "learning_rate": 0.1}
        assert parse_config({"scenario": {"surrogate": keys}}).scenario.surrogate_params == keys
        assert parse_config({"scenario": {"surrogate": {"m": 4}}}).scenario.surrogate_params == {"m": 4}
        assert parse_config({}).scenario.surrogate_params == {}

    def test_unknown_surrogate_key_is_named(self):
        with pytest.raises(ConfigError, match=r"scenario\.surrogate\.degree"):
            parse_config({"scenario": {"surrogate": {"C": 1.0, "degree": 3}}})

    def test_kernel_typo_is_named(self):
        with pytest.raises(ConfigError, match=r"models\[0\]\.kernel\.gama"):
            parse_config({"models": [{"kind": "svm", "kernel": {"gama": 0.5}}]})

    def test_model_typo_is_named(self):
        with pytest.raises(ConfigError, match=r"models\[1\]\.epoch"):
            parse_config({"models": [{"kind": "linear_svm"}, {"kind": "mlp", "epoch": 5}]})

    def test_key_of_another_model_kind_is_rejected(self):
        with pytest.raises(ConfigError, match=r"models\[0\]\.kernel"):
            parse_config({"models": [{"kind": "mlp", "kernel": {"kind": "rbf"}}]})

    def test_nested_section_typo_is_named(self):
        with pytest.raises(ConfigError, match=r"attack\.bounds\.uper"):
            parse_config({"attack": {"bounds": {"uper": 1.0}}})

    def test_non_object_sections_are_config_errors(self):
        for doc in ({"scenario": {"surrogate": 5}}, {"models": [5]}):
            with pytest.raises(ConfigError):
                parse_config(doc)

    def test_known_model_keys_are_parsed(self):
        cfg = parse_config(
            {
                "models": [
                    {"kind": "svm", "C": 2.0, "kernel": {"kind": "polynomial", "gamma": 1.0, "degree": 3, "coef0": 1.0}},
                    {"kind": "mlp", "m": 4, "epochs": 5, "learning_rate": 0.5},
                ]
            }
        )
        svm, mlp = cfg.model_grid
        assert (svm.C, svm.kernel.kind, svm.kernel.degree, svm.kernel.coef0) == (2.0, "polynomial", 3, 1.0)
        assert (mlp.m, mlp.epochs, mlp.learning_rate) == (4, 5, 0.5)
