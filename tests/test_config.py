import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradevade.cli import main
from gradevade.config import ConfigError, apply_override, load_config, parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def flagship_doc() -> dict:
    return json.loads((CONFIGS / "synthetic_pdf.json").read_text())


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

    @pytest.mark.parametrize("value", ['"rbf"', "null", "5", "[]"])
    def test_kernel_that_is_not_an_object_is_named(self, value):
        with pytest.raises(ConfigError, match=r"models\[1\]\.kernel must be an object"):
            load_config(CONFIGS / "synthetic_pdf.json", [f"models.1.kernel={value}"])

    @pytest.mark.parametrize(
        "override, named",
        [
            ("models.1.kernel.degree=2", "unknown config key models[1].kernel.degree"),
            ("models.1.kernel.coef0=0.0", "unknown config key models[1].kernel.coef0"),
            ('models.1.kernel.kind="polynomial"', "models[1]: unknown kernel kind 'polynomial'"),
            ('models.1.kernel.kind="linear"', "models[1]: an svm model takes an rbf kernel, not 'linear'"),
        ],
    )
    def test_svm_takes_only_an_rbf_kind_and_gamma(self, tmp_path, capsys, override, named):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(CONFIGS / "synthetic_pdf.json"), "--out", str(out), "--set", override]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

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
                    {"kind": "svm", "C": 2.0, "kernel": {"kind": "rbf", "gamma": 0.25}},
                    {"kind": "mlp", "m": 4, "epochs": 5, "learning_rate": 0.5},
                ]
            }
        )
        svm, mlp = cfg.model_grid
        assert (svm.C, svm.kernel.kind, svm.kernel.gamma) == (2.0, "rbf", 0.25)
        assert (mlp.m, mlp.epochs, mlp.learning_rate) == (4, 5, 0.5)


class TestOverrides:
    @pytest.mark.parametrize(
        "override, named",
        [
            ("models.5.C=1", r"models is a list of 3, '5' is not an index"),
            ("seed.x=1", r"seed is 2, not an object"),
            ("models.x.C=1", r"models is a list of 3, 'x' is not an index"),
        ],
    )
    def test_bad_path_is_a_config_error_naming_it(self, override, named):
        with pytest.raises(ConfigError, match=named):
            load_config(CONFIGS / "synthetic_pdf.json", [override])

    def test_non_finite_count_is_a_config_error(self):
        with pytest.raises(ConfigError, match="infinity"):
            load_config(CONFIGS / "synthetic_pdf.json", ["split.n_train=Infinity"])

    @pytest.mark.parametrize(
        "args",
        [
            ["--set", o]
            for o in (
                "split.n_splits=-1", "split.n_splits=0", "split.n_train=0", "split.n_test=0", "jobs=0",
                "attack.kde.h=-1", "attack.kde.h=NaN", "attack.kde.truncation_k=0",
                "attack.d_max_grid=[NaN]", "attack.d_max_grid=[0,Infinity]", "attack.step_t=NaN",
                "attack.epsilon=NaN", "attack.lambdas=[NaN]",
                "scenario.n_q=1", "models.0.C=-1", "models.0.C=NaN", "models.1.kernel.gamma=NaN",
                "models.1.kernel.gamma=0", "models.2.m=0", "models.2.epochs=-1", "models.2.learning_rate=NaN",
                "scenario.surrogate.C=-1", "scenario.surrogate.gamma=NaN", "scenario.surrogate.m=0",
                "scenario.surrogate.learning_rate=0", "attack.bounds.lower=NaN", "attack.bounds.upper=NaN",
                "attack.bounds.lower=200",
                # -1 moves, which the attack does not run
                "attack.bounds.increment_only=false",
                # keys that are gone: each took one value
                'attack.kde.kernel="gauss"', 'attack.distance="l2"', 'attack.kde.kernel="rbf"',
                'attack.kde.grad="paper"',
            )
        ]
        + [["--set", 'attack.mode="continuous"', "--set", 'attack.step_norm="l2"']]
        + [["--jobs", "0"]],
        ids=" ".join,
    )
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, args):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(CONFIGS / "synthetic_pdf.json"), "--out", str(out), *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()  # rejected before any work

    def test_config_naming_a_step_norm_exits_2_naming_the_key(self, tmp_path, capsys):
        # the continuous step has l1 length, so the key is gone, "l1" included
        config = tmp_path / "mnist_3v7.json"
        doc = json.loads((CONFIGS / "mnist_3v7.json").read_text())
        doc["attack"]["step_norm"] = "l1"
        config.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "unknown config key attack.step_norm" in capsys.readouterr().err

    def test_list_entries_and_new_keys_are_set(self):
        doc = flagship_doc()
        apply_override(doc, "models.1.kernel.gamma=0.5")
        apply_override(doc, "attack.kde.h=3")
        cfg = parse_config(doc)
        assert cfg.model_grid[1].kernel.gamma == 0.5 and cfg.kde.h == 3.0


# dotted path -> (strategy for a valid value, where parse_config puts it)
SCALAR_LEAVES = {
    "seed": (st.integers(0, 2**63), lambda cfg: cfg.seed),
    "jobs": (st.integers(1, 64), lambda cfg: cfg.jobs),
    "output_dir": (st.text(min_size=1), lambda cfg: cfg.output_dir),
    "split.n_train": (st.integers(1, 10**6), lambda cfg: cfg.n_train),
    # the flagship config runs LK, which needs two surrogate samples at least
    "scenario.n_q": (st.integers(2, 10**6), lambda cfg: cfg.scenario.n_q),
    "scenario.surrogate.gamma": (st.floats(1e-6, 1e3), lambda cfg: cfg.scenario.surrogate_params["gamma"]),
    "models.0.C": (st.floats(1e-6, 1e6), lambda cfg: cfg.model_grid[0].C),
    "models.2.epochs": (st.integers(0, 10**6), lambda cfg: cfg.model_grid[2].epochs),
    "models.2.m": (st.integers(1, 10**6), lambda cfg: cfg.model_grid[2].m),
    "models.2.learning_rate": (st.floats(1e-6, 1e3), lambda cfg: cfg.model_grid[2].learning_rate),
    "attack.bounds.lower": (st.floats(-1e6, 100.0), lambda cfg: cfg.attack.bounds.lower),
    "attack.epsilon": (st.floats(1e-15, 1.0), lambda cfg: cfg.attack.epsilon),
    "attack.max_iters": (st.integers(1, 10**6), lambda cfg: cfg.attack.max_iters),
    "attack.kde.h": (st.floats(1e-6, 1e6), lambda cfg: cfg.kde.h),
    "attack.bounds.upper": (st.floats(1.0, 1e6), lambda cfg: cfg.attack.bounds.upper),
    "evaluation.fp_target": (st.floats(0.0, 0.999), lambda cfg: cfg.fp_target),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
ODD_VALUES = st.sampled_from(
    [float("inf"), float("-inf"), float("nan"), None, True, -1, 0, "x", "gauss", [], [float("nan")], {}]
)
KNOWN_SEGMENTS = ["seed", "models", "attack", "kde", "bounds", "kind", "kernel", "scenario", "surrogate", "0", "2", "5"]
SEGMENTS = st.sampled_from(KNOWN_SEGMENTS) | st.text(max_size=4).filter(lambda t: "." not in t and "=" not in t)
# values parse_config must reject: counts below 1, NaN, and out-of-range settings
OUT_OF_RANGE = {
    "jobs": st.integers(max_value=0),
    "split.n_splits": st.integers(max_value=0),
    "split.n_train": st.integers(max_value=0),
    "split.n_test": st.integers(max_value=0),
    "attack.kde.h": st.floats().filter(lambda v: not v > 0),
    "attack.kde.truncation_k": st.integers(max_value=0),
    # keys that are gone: any value, the one they took included, is an unknown key
    "attack.kde.kernel": st.just("laplacian") | JSON_VALUES,
    "attack.kde.grad": st.just("corrected") | JSON_VALUES,
    "attack.distance": st.just("l1") | JSON_VALUES,
    "attack.step_norm": st.sampled_from(["l1", "l2"]) | JSON_VALUES,
    "attack.bounds.increment_only": st.just(False),
    "attack.mode": st.text(max_size=8).filter(lambda t: t not in ("continuous", "discrete")),
    "attack.step_t": st.floats().filter(lambda v: not v > 0),
    "attack.epsilon": st.floats().filter(lambda v: not v > 0),
    "attack.d_max_grid": st.lists(st.floats(0, 1e3), max_size=3).flatmap(
        lambda ok: st.floats().filter(lambda v: not (math.isfinite(v) and v >= 0)).map(lambda bad: [*ok, bad])
    ),
    "attack.lambdas": st.lists(st.floats(0, 1e3), max_size=3).flatmap(
        lambda ok: st.floats().filter(lambda v: not v >= 0).map(lambda bad: [bad, *ok])
    ),
    "scenario.n_q": st.integers(max_value=1),
    "models.0.C": st.floats().filter(lambda v: not v > 0),
    "models.1.C": st.floats().filter(lambda v: not v > 0),
    "models.1.kernel.gamma": st.floats().filter(lambda v: not 0 < v < math.inf),
    "models.2.m": st.integers(max_value=0),
    "models.2.epochs": st.integers(max_value=-1),
    "models.2.learning_rate": st.floats().filter(lambda v: not 0 < v < math.inf),
    "scenario.surrogate.C": st.floats().filter(lambda v: not v > 0),
    "scenario.surrogate.gamma": st.floats().filter(lambda v: not 0 < v < math.inf),
    "scenario.surrogate.m": st.integers(max_value=0),
    "scenario.surrogate.epochs": st.integers(max_value=-1),
    "scenario.surrogate.learning_rate": st.floats().filter(lambda v: not 0 < v < math.inf),
    # the flagship config's upper bound is 100
    "attack.bounds.lower": st.floats().filter(lambda v: not v <= 100),
}
PATHS = st.sampled_from(sorted({*SCALAR_LEAVES, *OUT_OF_RANGE, "models", "models.1.kernel", "dataset"})) | st.lists(
    SEGMENTS, min_size=1, max_size=4
).map(".".join)


TOP_KEYS = set(flagship_doc())


def _resolved_at(resolved: dict, path: str):
    node = resolved
    for part in path.split("."):
        node = node[int(part)] if isinstance(node, list) else node[part]
    return node


class TestOverrideProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_scalar_leaves_round_trip(self, data):
        path = data.draw(st.sampled_from(sorted(SCALAR_LEAVES)))
        values, parsed = SCALAR_LEAVES[path]
        value = data.draw(values)
        doc = flagship_doc()
        apply_override(doc, f"{path}={json.dumps(value)}")
        cfg = parse_config(doc)
        assert _resolved_at(cfg.resolved, path) == value
        assert parsed(cfg) == value

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_index_outside_a_list_is_a_config_error(self, data):
        doc = flagship_doc()
        list_path = data.draw(st.sampled_from(["models", "scenario.kinds", "attack.d_max_grid", "attack.lambdas"]))
        n = len(_resolved_at(doc, list_path))
        # a "." would split the drawn text into more path segments ("0." is index 0 and a key),
        # and an "=" would end the path ("0=" is index 0 and a value starting with "=")
        index = data.draw(
            st.integers(n, 10**9)
            | st.integers(max_value=-1)
            | st.text(max_size=4).filter(lambda t: not t.isdecimal() and "." not in t and "=" not in t)
        )
        rest = data.draw(st.lists(SEGMENTS, max_size=2))
        with pytest.raises(ConfigError, match="is not an index"):
            apply_override(doc, ".".join([list_path, str(index), *rest]) + "=1")

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(SCALAR_LEAVES)), st.lists(SEGMENTS, min_size=1, max_size=3))
    def test_path_through_a_scalar_is_a_config_error(self, leaf, rest):
        with pytest.raises(ConfigError, match="not an object"):
            apply_override(flagship_doc(), ".".join([leaf, *rest]) + "=1")

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=8).filter(lambda t: t.strip() not in TOP_KEYS and "." not in t and "=" not in t),
           st.lists(SEGMENTS, max_size=2))
    def test_unknown_key_is_a_config_error(self, key, rest):
        doc = flagship_doc()
        with pytest.raises(ConfigError):
            apply_override(doc, ".".join([key, *rest]) + "=1")
            parse_config(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_out_of_range_value_is_a_config_error(self, data):
        path = data.draw(st.sampled_from(sorted(OUT_OF_RANGE)))
        value = data.draw(OUT_OF_RANGE[path])
        doc = flagship_doc()
        apply_override(doc, f"{path}={json.dumps(value)}")
        with pytest.raises(ConfigError):
            parse_config(doc)

    @settings(max_examples=300, deadline=None)
    @given(PATHS, ODD_VALUES | JSON_VALUES)
    def test_any_override_parses_or_is_a_config_error(self, path, value):
        doc = flagship_doc()
        try:
            apply_override(doc, f"{path}={json.dumps(value)}")
            parse_config(doc)
        except ConfigError:
            pass

