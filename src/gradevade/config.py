"""Experiment configuration: one JSON document per experiment.

The CLI loads the file, applies dotted-path overrides from --set flags,
validates every cross-field constraint, and echoes the fully resolved
document into the output directory for provenance.

A leaf's default decides its JSON type (`_merge`): boolean, integer,
number, string, array or object, where an integer passes as a number. A
value of another type is refused, never converted, and every refusal
names its dotted key (`split.n_train`, `models[1].kernel.gamma`,
`attack.lambdas[0]`). A model entry merges over the values `ModelSpec`
holds for the keys of its kind (`models.MODEL_KEYS`).
"""
from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .attack import AttackSpec
from .data import (
    Dataset,
    FeatureBounds,
    cap_features,
    load_dense_csv,
    load_idx_images,
    load_sparse_counts,
    synthetic_pdf_dataset,
)
from .kernels import KernelSpec
from .mimicry import KdeParams
from .models import MODEL_KEYS, ModelSpec
from .scenario import SCENARIO_KINDS, SURROGATE_KEYS, ScenarioSpec, surrogate_spec


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (CLI exit code 2)."""


_DEFAULTS = {
    "seed": 0,
    "output_dir": "out",
    "jobs": 1,
    "dataset": {
        "kind": "synthetic_pdf",
        "n_legit": 500,
        "n_malicious": 500,
        "dim": 100,
        "feature_cap": None,
        "path": None,
        "labels_path": None,
        "label_column": "label",
        "class_neg": 7,
        "class_pos": 3,
    },
    "split": {"n_train": 500, "n_test": 500, "n_splits": 5},
    "models": [{"kind": "linear_svm", "C": 1.0}],
    "scenario": {
        "kinds": ["PK"],
        "n_q": 100,
        "relabel_with_target": True,
        "n_surrogate_repeats": 5,
        # the keys scenario.surrogate_spec reads; null keeps its default
        "surrogate": dict.fromkeys(SURROGATE_KEYS),
    },
    "attack": {
        "mode": "discrete",
        "d_max_grid": [0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
        "step_t": 1.0,
        "lambdas": [0.0],
        "epsilon": 1e-9,
        "max_iters": 500,
        "bounds": {"lower": 0.0, "upper": None, "increment_only": True},
        "kde": {"h": 10.0, "truncation_k": 50},
    },
    "evaluation": {"fp_target": 0.005},
}


# dataset.kind -> (the dataset keys it requires, its loader of (dataset section, seed))
_DATASET_KINDS = {
    "synthetic_pdf": ((), lambda ds, seed: synthetic_pdf_dataset(
        n_legit=ds["n_legit"], n_malicious=ds["n_malicious"], dim=ds["dim"], seed=seed)),
    "csv": (("path",), lambda ds, seed: load_dense_csv(ds["path"], label_column=ds["label_column"])),
    "idx": (("path", "labels_path"), lambda ds, seed: load_idx_images(
        ds["path"], ds["labels_path"], class_neg=ds["class_neg"], class_pos=ds["class_pos"])),
    "sparse": (("path",), lambda ds, seed: load_sparse_counts(ds["path"])),
}

_MODEL_DEFAULTS = {**asdict(ModelSpec("svm")), "gamma": KernelSpec("rbf").gamma}  # each field a surrogate key sets
# the JSON type of each leaf whose default does not show it, as a value of
# that type: a null default takes the type of the code that reads it (a
# surrogate key, that of the ModelSpec field it sets), and a budget is any number
_LEAF_TYPES = {
    "dataset.feature_cap": 1.0,
    "dataset.path": "",
    "dataset.labels_path": "",
    "attack.bounds.upper": 1.0,
    "attack.d_max_grid": [1.0],
    "models": [],  # entries of any type: _parse_model merges each over its own kind's values
    **{f"scenario.surrogate.{key}": _MODEL_DEFAULTS[key] for key in _DEFAULTS["scenario"]["surrogate"]},
}


_JSON_TYPES = ((bool, "a boolean"), (int, "an integer"), (float, "a number"), (str, "a string"),
               (list, "an array"), (dict, "an object"), (type(None), "null"))  # bool first: True is an int too


def _json_type(value) -> str:
    return next(name for cls, name in _JSON_TYPES if isinstance(value, cls))


def _merge(default, value, key: str = ""):
    """`value` over `default`: an object's missing keys take the default's
    values, and each leaf must hold the JSON type of its default (of
    _LEAF_TYPES[key] where that is given), each array entry that of the
    type's first entry. An integer is a number while a float can hold it;
    a null default also takes null."""
    witness = _LEAF_TYPES.get(key, default)
    got, want = _json_type(value), _json_type(witness)
    as_number = want == "a number" and got == "an integer" and abs(value) <= sys.float_info.max
    if not (got == want or as_number or value is None and default is None):
        raise ConfigError(f"{key or 'the config'} must be {want}, not {json.dumps(value)}")
    if isinstance(value, dict):
        prefix = f"{key}." if key else ""
        for k in value:
            if k not in default:
                raise ConfigError(f"unknown config key {prefix}{k}")
        return {k: _merge(default[k], value[k], prefix + k) if k in value else _deep_copy(default[k]) for k in default}
    for i, item in enumerate(value if isinstance(value, list) and witness else ()):
        _merge(witness[0], item, f"{key}[{i}]")
    return _deep_copy(value)


def _deep_copy(v):
    return json.loads(json.dumps(v))


def apply_override(doc: dict, dotted: str):
    """Apply one `--set a.b.c=value` override; the value parses as JSON if it can."""
    if "=" not in dotted:
        raise ConfigError(f"--set expects key=value, got {dotted!r}")
    key, raw = dotted.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    path = key.strip()
    parts = path.split(".")
    node = doc
    for depth, p in enumerate(parts):
        parent = ".".join(parts[:depth]) or "the config"
        if isinstance(node, list):
            if not (p.isdecimal() and int(p) < len(node)):
                raise ConfigError(f"--set {path}: {parent} is a list of {len(node)}, {p!r} is not an index into it")
            p = int(p)
        elif not isinstance(node, dict):
            raise ConfigError(f"--set {path}: {parent} is {node!r}, not an object")
        if depth == len(parts) - 1:
            node[p] = value
        else:
            node = node[p] if isinstance(node, list) else node.setdefault(p, {})


@dataclass
class ExperimentConfig:
    seed: int
    output_dir: str
    jobs: int
    dataset: dict
    n_train: int
    n_test: int
    n_splits: int
    model_grid: list[ModelSpec]
    scenario: ScenarioSpec
    scenario_kinds: list[str]
    attack: AttackSpec
    lambdas: list[float]
    d_max_grid: list[float]
    kde: KdeParams
    fp_target: float
    resolved: dict = field(repr=False, default_factory=dict)


def _built(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError it raises refused under `where`."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _parse_model(entry, where: str) -> ModelSpec:
    """`entry` merged over the values ModelSpec(kind) holds for the keys of its kind."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where} must be an object, not {json.dumps(entry)}")
    own = asdict(_built(where, ModelSpec, entry.get("kind")))  # refuses an unknown kind
    doc = _merge({key: own[key] for key in MODEL_KEYS[own["kind"]]}, entry, where)
    # a float field given an integer holds it as a float, as the field's own default does
    settings = {key: float(v) if isinstance(own[key], float) else v for key, v in doc.items()}
    if "kernel" in doc:
        settings["kernel"] = _built(where, KernelSpec, doc["kernel"]["kind"], float(doc["kernel"]["gamma"]))
    return _built(where, ModelSpec, **settings)


def _distinct(values: list, where: str) -> list:
    if not values:
        raise ConfigError(f"{where} must be non-empty")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{where} lists {json.dumps(v)} more than once")
    return values


def parse_config(doc: dict) -> ExperimentConfig:
    """Fill defaults, validate, and build the typed experiment plan."""
    resolved = _merge(_DEFAULTS, doc)
    ds, split, sc, atk = (resolved[key] for key in ("dataset", "split", "scenario", "attack"))
    for key, n, least in (("seed", resolved["seed"], 0), ("jobs", resolved["jobs"], 1),
                          *((f"split.{k}", n, 1) for k, n in split.items())):
        if n < least:
            raise ConfigError(f"{key} must be >= {least}")
    kind = ds["kind"]
    if kind not in _DATASET_KINDS:
        raise ConfigError(f"dataset.kind: unknown kind {kind!r}")
    required = _DATASET_KINDS[kind][0]
    if not all(ds[key] for key in required):
        raise ConfigError(f"dataset.kind={kind} requires " + " and ".join(f"dataset.{key}" for key in required))
    if ds["feature_cap"] is not None and not ds["feature_cap"] > 0:
        raise ConfigError("dataset.feature_cap must be > 0")

    if not resolved["models"]:
        raise ConfigError("models: grid must be non-empty")
    model_grid = [_parse_model(m, f"models[{i}]") for i, m in enumerate(resolved["models"])]
    # a model's records and curves are keyed by its descriptor: one per model
    _distinct([spec.descriptor() for spec in model_grid], "models")

    for kind in _distinct(sc["kinds"], "scenario.kinds"):
        if kind not in SCENARIO_KINDS:
            raise ConfigError(f"scenario.kinds: unknown kind {kind!r}")
    surrogate = {k: v for k, v in sc["surrogate"].items() if v is not None}
    if "LK" in sc["kinds"]:
        if not 2 <= sc["n_q"] <= split["n_test"]:
            raise ConfigError(f"scenario.n_q: LK draws n_q of the split.n_test = {split['n_test']} test rows, "
                              f"so it needs 2 <= n_q <= {split['n_test']}, got {sc['n_q']}")
        for spec in model_grid:
            _built("scenario.surrogate", surrogate_spec, spec, surrogate)
    scenario = _built("scenario", ScenarioSpec, kind=sc["kinds"][0], n_q=sc["n_q"],
                      relabel_with_target=sc["relabel_with_target"],
                      n_surrogate_repeats=sc["n_surrogate_repeats"], surrogate_params=surrogate)

    for key in ("d_max_grid", "lambdas"):
        if not all(0 <= v < math.inf for v in _distinct(atk[key], f"attack.{key}")):
            raise ConfigError(f"attack.{key} values must be finite and nonnegative")
    d_grid, lambdas = ([float(v) for v in atk[key]] for key in ("d_max_grid", "lambdas"))
    kde = _built("attack.kde", KdeParams, h=float(atk["kde"]["h"]), truncation_k=atk["kde"]["truncation_k"])
    unread = [key for key in ("step_t", "epsilon") if key in doc.get("attack", {})]
    if atk["mode"] == "discrete" and unread:  # the +1 descent has no step length and no stall test
        raise ConfigError(f"attack.{unread[0]} is read only in continuous mode; drop it from a discrete attack")
    box = atk["bounds"]
    bounds = _built("attack.bounds", FeatureBounds, float(box["lower"]),
                    math.inf if box["upper"] is None else float(box["upper"]), box["increment_only"])
    attack = _built("attack", AttackSpec, d_max=max(d_grid), step_t=float(atk["step_t"]), lam=0.0,
                    epsilon=float(atk["epsilon"]), max_iters=atk["max_iters"], bounds=bounds, mode=atk["mode"])

    fp_target = float(resolved["evaluation"]["fp_target"])
    if not (0 <= fp_target < 1):
        raise ConfigError("evaluation.fp_target must lie in [0, 1)")

    return ExperimentConfig(
        seed=resolved["seed"],
        output_dir=resolved["output_dir"],
        jobs=resolved["jobs"],
        dataset=ds,
        n_train=split["n_train"],
        n_test=split["n_test"],
        n_splits=split["n_splits"],
        model_grid=model_grid,
        scenario=scenario,
        scenario_kinds=list(sc["kinds"]),
        attack=attack,
        lambdas=lambdas,
        d_max_grid=d_grid,
        kde=kde,
        fp_target=fp_target,
        resolved=resolved,
    )


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    for o in overrides or []:
        apply_override(doc, o)
    return parse_config(doc)


def echo_config(cfg: ExperimentConfig, out_dir):
    """Write the fully resolved config next to the run outputs."""
    os.makedirs(out_dir, exist_ok=True)
    with open(Path(out_dir) / "config_resolved.json", "w") as fh:
        json.dump(cfg.resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset_from_config(cfg: ExperimentConfig) -> Dataset:
    ds = cfg.dataset
    data = _DATASET_KINDS[ds["kind"]][1](ds, cfg.seed)
    if ds["feature_cap"] is not None:
        data = cap_features(data, float(ds["feature_cap"]))
    if cfg.n_train + cfg.n_test > data.n:
        raise ConfigError(f"split.n_train + split.n_test is {cfg.n_train + cfg.n_test}, the dataset has {data.n} rows")
    return data
