import contextlib
import io
import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradevade.cli import main
from gradevade.config import _DEFAULTS, ConfigError, apply_override, load_config, parse_config
from gradevade.models import MODEL_KEYS, ModelSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def flagship_doc() -> dict:
    return json.loads((CONFIGS / "synthetic_pdf.json").read_text())


def continuous_doc() -> dict:
    return json.loads((CONFIGS / "mnist_3v7.json").read_text())


class TestDatasetKinds:
    """Each dataset kind's required keys, with the messages the parse gave
    before the kinds became one table."""

    @pytest.mark.parametrize(
        "sets, message",
        [
            (['dataset.kind="csv"'], "dataset.kind=csv requires dataset.path"),
            (['dataset.kind="sparse"'], "dataset.kind=sparse requires dataset.path"),
            (['dataset.kind="idx"'], "dataset.kind=idx requires dataset.path and dataset.labels_path"),
            (['dataset.kind="idx"', 'dataset.path="images"'],
             "dataset.kind=idx requires dataset.path and dataset.labels_path"),
            (['dataset.kind="arff"'], "dataset.kind: unknown kind 'arff'"),
            (['dataset.kind=["csv"]'], 'dataset.kind must be a string, not ["csv"]'),
        ],
        ids=["csv", "sparse", "idx", "idx_without_labels_path", "unknown", "unknown_list"],
    )
    def test_a_kind_without_its_required_keys_exits_2(self, tmp_path, capsys, sets, message):
        out = tmp_path / "out"
        args = ["sweep", "--config", str(CONFIGS / "synthetic_pdf.json"), "--out", str(out)]
        assert main([*args, *(a for s in sets for a in ("--set", s))]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("text, message", [(None, "config file not found: {path}"), ("{", "{path}: invalid JSON: ")],
                         ids=["missing", "invalid_json"])
def test_a_config_that_cannot_be_read_exits_2_naming_it(tmp_path, capsys, text, message):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message.format(path=path)}")
    assert not out.exists()


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


class TestRepeatedModels:
    @pytest.mark.parametrize("second, descriptor", [(1, "linear_svm(C=1)"), (1.0000001, "linear_svm(C=1)")])
    def test_models_with_one_descriptor_exit_2(self, tmp_path, capsys, second, descriptor):
        # records and curves are keyed by the descriptor: a repeated model
        # doubled its records, and two models that print alike shared a curve
        grid = json.dumps([{"kind": "linear_svm", "C": 1.0}, {"kind": "linear_svm", "C": second}])
        out = tmp_path / "out"
        args = ["sweep", "--config", str(CONFIGS / "synthetic_pdf.json"), "--out", str(out), "--set", f"models={grid}"]
        assert main(args) == 2
        assert capsys.readouterr().err == f'error: models lists "{descriptor}" more than once\n'
        assert not out.exists()

    def test_models_that_print_apart_parse(self):
        grid = json.dumps([{"kind": "linear_svm", "C": 1.0}, {"kind": "linear_svm", "C": 2.0}])
        cfg = load_config(CONFIGS / "synthetic_pdf.json", [f"models={grid}"])
        assert [spec.descriptor() for spec in cfg.model_grid] == ["linear_svm(C=1)", "linear_svm(C=2)"]


class TestSurrogateKeys:
    """With LK, every grid model's surrogate recipe (`scenario.surrogate_spec`)
    must be in range; the keys' ranges do not depend on the grid's kinds."""

    @pytest.mark.parametrize(
        "override, named",
        [
            ("scenario.surrogate.C=-1", "scenario.surrogate: C must be positive"),
            ("scenario.surrogate.gamma=NaN", "scenario.surrogate: rbf kernel requires a finite gamma > 0"),
            ("scenario.surrogate.m=0", "scenario.surrogate: hidden width m must be >= 1"),
            ("scenario.surrogate.epochs=-1", "scenario.surrogate: epochs must be >= 0"),
            ("scenario.surrogate.learning_rate=0", "scenario.surrogate: learning_rate must be finite and positive"),
            ("scenario.surrogate.C=Infinity", "scenario.surrogate: C must be finite"),
        ],
    )
    def test_a_linear_only_grid_still_refuses_each_out_of_range_key(self, tmp_path, capsys, override, named):
        grid = json.dumps([{"kind": "linear_svm", "C": 1.0}])
        out = tmp_path / "out"
        args = ["sweep", "--config", str(CONFIGS / "synthetic_pdf.json"), "--out", str(out),
                "--set", f"models={grid}", "--set", override]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {named}\n"
        assert not out.exists()

    def test_a_pk_only_config_does_not_check_the_surrogate_keys(self):
        sets = ['scenario.kinds=["PK"]', "scenario.surrogate.C=-1", "scenario.surrogate.m=0"]
        cfg = load_config(CONFIGS / "synthetic_pdf.json", sets)
        assert cfg.scenario.surrogate_params == {"C": -1, "gamma": 0.002, "m": 0}


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
        with pytest.raises(ConfigError, match=r"^split\.n_train must be an integer, not Infinity$"):
            load_config(CONFIGS / "synthetic_pdf.json", ["split.n_train=Infinity"])

    @pytest.mark.parametrize(
        "args",
        [
            ["--set", o]
            for o in (
                "split.n_splits=-1", "split.n_splits=0", "split.n_train=0", "split.n_test=0", "jobs=0",
                "attack.kde.h=-1", "attack.kde.h=NaN", "attack.kde.truncation_k=0",
                "attack.d_max_grid=[NaN]", "attack.d_max_grid=[0,Infinity]", "attack.step_t=NaN",
                "attack.epsilon=NaN", "attack.lambdas=[NaN]", "attack.lambdas=[Infinity]", "attack.step_t=Infinity",
                "attack.epsilon=Infinity",
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

    @pytest.mark.parametrize("key", ["step_t", "epsilon"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "0", "-1"])
    def test_out_of_range_continuous_step_or_tolerance_exits_2(self, tmp_path, capsys, key, value):
        # the range rule for the two keys only a continuous attack reads
        out = tmp_path / "out"
        args = ["sweep", "--config", str(CONFIGS / "mnist_3v7.json"), "--out", str(out), "--set", f"attack.{key}={value}"]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: attack: {key} must be finite and positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("override", ["attack.step_t=5", "attack.step_t=1.0", "attack.epsilon=1e-3",
                                          "attack.epsilon=1e-9", "attack.step_t=NaN"])
    def test_discrete_attack_refuses_the_keys_it_never_reads(self, tmp_path, capsys, override):
        # the +1 descent takes no step length and no stall tolerance, so a
        # value is refused even where it equals the default
        key = override.partition("=")[0]
        out = tmp_path / "out"
        args = ["sweep", "--config", str(CONFIGS / "synthetic_pdf.json"), "--out", str(out), "--set", override]
        assert main(args) == 2
        assert capsys.readouterr().err == f"error: {key} is read only in continuous mode; drop it from a discrete attack\n"
        assert not out.exists()

    def test_discrete_refusal_reads_the_document_and_continuous_mode_takes_both_keys(self):
        doc = flagship_doc()
        doc["attack"]["epsilon"] = 1e-9
        with pytest.raises(ConfigError, match=r"^attack\.epsilon is read only in continuous mode"):
            parse_config(doc)
        with pytest.raises(ConfigError, match=r"^attack\.step_t is read only"):
            parse_config({"attack": {"step_t": 1.0}})  # discrete is the default mode
        cfg = load_config(CONFIGS / "synthetic_pdf.json", ['attack.mode="continuous"', "attack.step_t=5", "attack.epsilon=1e-3"])
        assert (cfg.attack.mode, cfg.attack.step_t, cfg.attack.epsilon) == ("continuous", 5.0, 1e-3)
        # the echo holds only the keys its mode reads, so a discrete echo loads again
        resolved = load_config(CONFIGS / "synthetic_pdf.json").resolved["attack"]
        assert "step_t" not in resolved and "epsilon" not in resolved
        assert (cfg.resolved["attack"]["step_t"], cfg.resolved["attack"]["epsilon"]) == (5, 1e-3)

    def test_lk_drawing_more_surrogate_samples_than_test_rows_exits_2(self, tmp_path, capsys):
        # the LK pool is the split's 60 test rows: a PK-only config may set any n_q
        out = tmp_path / "out"
        sets = ["--set", "split.n_test=60", "--set", "scenario.n_q=100"]
        assert main(["sweep", "--config", str(CONFIGS / "synthetic_pdf.json"), "--out", str(out), *sets]) == 2
        assert capsys.readouterr().err == (
            "error: scenario.n_q: LK draws n_q of the split.n_test = 60 test rows, so it needs 2 <= n_q <= 60, got 100\n"
        )
        assert not out.exists()
        assert load_config(CONFIGS / "synthetic_pdf.json", ["split.n_test=60", "scenario.n_q=60"]).scenario.n_q == 60
        pk_only = load_config(CONFIGS / "synthetic_pdf.json", ["split.n_test=60", "scenario.n_q=100", 'scenario.kinds=["PK"]'])
        assert pk_only.scenario.n_q == 100

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
    # the flagship config runs LK, which draws two surrogate samples at least
    # and at most its 500 test rows
    "scenario.n_q": (st.integers(2, 500), lambda cfg: cfg.scenario.n_q),
    "scenario.surrogate.gamma": (st.floats(1e-6, 1e3), lambda cfg: cfg.scenario.surrogate_params["gamma"]),
    "models.0.C": (st.floats(1e-6, 1e6), lambda cfg: cfg.model_grid[0].C),
    "models.2.epochs": (st.integers(0, 10**6), lambda cfg: cfg.model_grid[2].epochs),
    "models.2.m": (st.integers(1, 10**6), lambda cfg: cfg.model_grid[2].m),
    "models.2.learning_rate": (st.floats(1e-6, 1e3), lambda cfg: cfg.model_grid[2].learning_rate),
    "attack.bounds.lower": (st.floats(-1e6, 100.0), lambda cfg: cfg.attack.bounds.lower),
    # read only in continuous mode: round-tripped on the continuous config
    "attack.epsilon": (st.floats(1e-15, 1.0), lambda cfg: cfg.attack.epsilon),
    "attack.step_t": (st.floats(1e-6, 1e3), lambda cfg: cfg.attack.step_t),
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
    # out of range on the continuous config: the flagship refuses any value
    "attack.step_t": st.floats().filter(lambda v: not 0 < v < math.inf),
    "attack.epsilon": st.floats().filter(lambda v: not 0 < v < math.inf),
    "attack.d_max_grid": st.lists(st.floats(0, 1e3), max_size=3).flatmap(
        lambda ok: st.floats().filter(lambda v: not (math.isfinite(v) and v >= 0)).map(lambda bad: [*ok, bad])
    ),
    "attack.lambdas": st.lists(st.floats(0, 1e3), max_size=3).flatmap(
        lambda ok: st.floats().filter(lambda v: not 0 <= v < math.inf).map(lambda bad: [bad, *ok])
    ),
    # LK needs 2 surrogate samples at least, drawn from the 500 test rows
    "scenario.n_q": st.integers(max_value=1) | st.integers(min_value=501),
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
CONTINUOUS_ONLY = ("attack.step_t", "attack.epsilon")


def doc_for(path: str) -> dict:
    """The config a leaf is tested on: the continuous one for a key only a
    continuous attack reads, else the flagship."""
    return continuous_doc() if path in CONTINUOUS_ONLY else flagship_doc()


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
        doc = doc_for(path)
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
            apply_override(doc_for(leaf), ".".join([leaf, *rest]) + "=1")

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
        doc = doc_for(path)
        apply_override(doc, f"{path}={json.dumps(value)}")
        with pytest.raises(ConfigError):
            parse_config(doc)

    @settings(max_examples=300, deadline=None)
    @given(PATHS, ODD_VALUES | JSON_VALUES)
    def test_any_override_parses_or_is_a_config_error(self, path, value):
        doc = flagship_doc()
        try:
            apply_override(doc, f"{path}={json.dumps(value)}")
            cfg = parse_config(doc)
        except ConfigError:
            return
        # a config that parses holds what its document says, in its own type:
        # real booleans, and each count the very integer it was given
        r = cfg.resolved
        flags = [(cfg.scenario.relabel_with_target, r["scenario"]["relabel_with_target"]),
                 (cfg.attack.bounds.increment_only, r["attack"]["bounds"]["increment_only"])]
        assert all(type(got) is bool and got is given for got, given in flags)
        counts = [
            (cfg.seed, r["seed"]), (cfg.jobs, r["jobs"]), (cfg.n_train, r["split"]["n_train"]),
            (cfg.n_test, r["split"]["n_test"]), (cfg.n_splits, r["split"]["n_splits"]),
            (cfg.scenario.n_q, r["scenario"]["n_q"]),
            (cfg.scenario.n_surrogate_repeats, r["scenario"]["n_surrogate_repeats"]),
            (cfg.attack.max_iters, r["attack"]["max_iters"]), (cfg.kde.truncation_k, r["attack"]["kde"]["truncation_k"]),
            *((spec.m, entry.get("m", 10)) for spec, entry in zip(cfg.model_grid, r["models"])),
            *((spec.epochs, entry.get("epochs", 2000)) for spec, entry in zip(cfg.model_grid, r["models"])),
            *((v, v) for k, v in cfg.scenario.surrogate_params.items() if k in ("m", "epochs")),
        ]
        assert all(type(got) is int and got == given for got, given in counts)
        assert all(type(spec.C) is float and type(spec.learning_rate) is float for spec in cfg.model_grid)
        assert all(type(v) in (int, float) for k, v in cfg.scenario.surrogate_params.items() if k not in ("m", "epochs"))


def json_type(value) -> str:
    return next(name for cls, name in ((bool, "boolean"), (int, "integer"), (float, "number"), (str, "string"),
                                       (list, "array"), (dict, "object")) if isinstance(value, cls))


# the type each null-default leaf takes: what the code that reads it takes
NULL_LEAF_TYPES = {
    "dataset.feature_cap": "number", "dataset.path": "string", "dataset.labels_path": "string",
    "attack.bounds.upper": "number",
    "scenario.surrogate.C": "number", "scenario.surrogate.gamma": "number", "scenario.surrogate.m": "integer",
    "scenario.surrogate.epochs": "integer", "scenario.surrogate.learning_rate": "number",
}


def config_keys(node, path=""):
    """(dotted path, JSON type) of every key under `node`, sections included."""
    for key, default in node.items():
        dotted = f"{path}{key}"
        yield dotted, NULL_LEAF_TYPES[dotted] if default is None else json_type(default)
        if isinstance(default, dict):
            yield from config_keys(default, f"{dotted}.")


def model_keys():
    """(kind, key under the entry, JSON type) of each key a model entry of each kind may set."""
    for kind, keys in MODEL_KEYS.items():
        own = {key: value for key, value in asdict(ModelSpec(kind)).items() if key in keys and key != "kind"}
        yield from ((kind, key, path_type) for key, path_type in config_keys(own))


TYPED_KEYS = [(path, t, None) for path, t in config_keys(_DEFAULTS)]
TYPED_KEYS += [(f"models.0.{key}", t, kind) for kind, key, t in model_keys()]
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
OF_TYPE = {
    "null": st.none(),
    "boolean": st.booleans(),
    "integer": st.integers(),
    "number": st.floats(),
    "string": st.text(max_size=5),
    "array": st.lists(SCALARS, max_size=2),
    "object": st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
}


class TestLeafTypes:
    """A key's JSON type is its default's; a value of any other type exits 2
    naming the key and writes nothing. An integer is a number, and a key
    whose default is null also takes null."""

    @pytest.mark.parametrize("path, json_kind, model_kind", TYPED_KEYS,
                             ids=[p if k is None else f"{k}:{p}" for p, _, k in TYPED_KEYS])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_a_value_of_another_json_type_exits_2_naming_the_key(self, tmp_path_factory, path, json_kind,
                                                                  model_kind, data):
        accepted = {json_kind, "integer"} if json_kind == "number" else {json_kind}
        if path in NULL_LEAF_TYPES:
            accepted.add("null")
        grid = ["--set", f"models={json.dumps([{'kind': model_kind}])}"] if model_kind else []
        named = path.replace("models.0", "models[0]")
        out = tmp_path_factory.mktemp("run") / "out"
        # --out is --set output_dir, given last: output_dir's own value is tested without it
        out_args = [] if path == "output_dir" else ["--out", str(out)]
        for other in sorted(OF_TYPE.keys() - accepted):
            value = data.draw(OF_TYPE[other], label=other)
            args = ["sweep", "--config", str(CONFIGS / "synthetic_pdf.json"), *out_args,
                    *grid, "--set", f"{path}={json.dumps(value)}"]
            with contextlib.redirect_stderr(io.StringIO()) as err:
                assert main(args) == 2
            assert err.getvalue().startswith(f"error: {named} must be ")
            assert not out.exists()


class TestRefusedAtParse:
    """Values the parse once coerced or let through, each refused with its
    key before anything is written."""

    @pytest.mark.parametrize(
        "override, message",
        [
            # coerced: each ran a sweep other than the one asked for
            ('attack.bounds.increment_only="false"', 'attack.bounds.increment_only must be a boolean, not "false"'),
            ('attack.d_max_grid="12"', 'attack.d_max_grid must be an array, not "12"'),
            ('scenario.relabel_with_target="no"', 'scenario.relabel_with_target must be a boolean, not "no"'),
            ("split.n_train=7.9", "split.n_train must be an integer, not 7.9"),
            ('attack.lambdas=["0"]', 'attack.lambdas[0] must be a number, not "0"'),
            ('attack.d_max_grid=[0,"5"]', 'attack.d_max_grid[1] must be a number, not "5"'),
            ('models.0.C="1"', 'models[0].C must be a number, not "1"'),
            ("models.1.kernel.gamma=true", "models[1].kernel.gamma must be a number, not true"),
            # refused, but without the key
            ('split.n_train="abc"', 'split.n_train must be an integer, not "abc"'),
            ("attack.max_iters={}", "attack.max_iters must be an integer, not {}"),
            ("scenario.surrogate.m=Infinity", "scenario.surrogate.m must be an integer, not Infinity"),
            (f"models.0.C={10**400}", f"models[0].C must be a number, not {10**400}"),
            ("models.0=5", "models[0] must be an object, not 5"),
            ("scenario.surrogate=5", "scenario.surrogate must be an object, not 5"),
            ("seed=-1", "seed must be >= 0"),
            ("dataset.feature_cap=0", "dataset.feature_cap must be > 0"),
            ("dataset.feature_cap=-1", "dataset.feature_cap must be > 0"),
            ("dataset.feature_cap=NaN", "dataset.feature_cap must be > 0"),
            # repeated: each record written twice, or a kind's attack run twice
            ("attack.lambdas=[0,0]", "attack.lambdas lists 0 more than once"),
            ("attack.lambdas=[500,0,500.0]", "attack.lambdas lists 500.0 more than once"),
            ("attack.d_max_grid=[5,0,5.0]", "attack.d_max_grid lists 5.0 more than once"),
            ('scenario.kinds=["LK","PK","LK"]', 'scenario.kinds lists "LK" more than once'),
            # refused only after config_resolved.json was written
            ("attack.lambdas=[]", "attack.lambdas must be non-empty"),
        ],
    )
    def test_exits_2_naming_the_key_and_writes_nothing(self, tmp_path, capsys, override, message):
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(CONFIGS / "synthetic_pdf.json"), "--out", str(out), "--set", override]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_an_integer_is_a_number_and_null_keeps_a_null_default(self):
        cfg = load_config(CONFIGS / "synthetic_pdf.json",
                          ["models.0.C=2", "models.1.kernel.gamma=1", "attack.bounds.upper=null", "scenario.surrogate.C=5"])
        assert (cfg.model_grid[0].C, cfg.model_grid[1].kernel.gamma) == (2.0, 1.0)
        assert type(cfg.model_grid[0].C) is float and type(cfg.model_grid[1].kernel.gamma) is float
        assert cfg.attack.bounds.upper == math.inf
        # the echo keeps the document as written
        assert cfg.resolved["models"][0]["C"] == 2 and type(cfg.resolved["models"][0]["C"]) is int
