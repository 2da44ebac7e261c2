"""Experiment configuration: one JSON document per experiment.

The CLI loads the file, applies dotted-path overrides from --set flags,
validates every cross-field constraint, and echoes the fully resolved
document into the output directory for provenance.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attack import AttackSpec
from .benchmark import synthetic_pdf_dataset
from .data import (
    Dataset,
    FeatureBounds,
    cap_features,
    load_dense_csv,
    load_idx_images,
    load_sparse_counts,
)
from .kernels import KernelSpec
from .mimicry import KdeParams
from .models import ModelSpec
from .scenario import ScenarioSpec


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
        # the keys _train_surrogate reads; null keeps its default
        "surrogate": {"C": None, "gamma": None, "m": None, "epochs": None, "learning_rate": None},
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


def _reject_unknown(doc: dict, allowed, where: str):
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown config key {where}{key}")


def _merge(defaults, value, where: str = ""):
    if isinstance(defaults, dict) and isinstance(value, dict):
        _reject_unknown(value, defaults, where)
        return {
            key: _merge(defaults[key], value[key], f"{where}{key}.") if key in value else _deep_copy(defaults[key])
            for key in defaults
        }
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


_MODEL_KEYS = {
    "linear_svm": ("kind", "C"),
    "svm": ("kind", "C", "kernel"),
    "mlp": ("kind", "m", "epochs", "learning_rate"),
}


def _parse_model(entry: dict, where: str) -> ModelSpec:
    kind = entry.get("kind")
    if kind not in _MODEL_KEYS:
        raise ConfigError(f"{where}: unknown model kind {kind!r}")
    _reject_unknown(entry, _MODEL_KEYS[kind], f"{where}.")
    kd = entry.get("kernel", {})
    if not isinstance(kd, dict):
        raise ConfigError(f"{where}.kernel must be an object, got {kd!r}")
    _reject_unknown(kd, ("kind", "gamma"), f"{where}.kernel.")
    try:
        if kind == "linear_svm":
            return ModelSpec(kind="linear_svm", C=float(entry.get("C", 1.0)))
        if kind == "svm":
            kernel = KernelSpec(kind=kd.get("kind", "rbf"), gamma=float(kd.get("gamma", 1.0)))
            return ModelSpec(kind="svm", C=float(entry.get("C", 1.0)), kernel=kernel)
        return ModelSpec(
            kind="mlp",
            m=int(entry.get("m", 10)),
            epochs=int(entry.get("epochs", 2000)),
            learning_rate=float(entry.get("learning_rate", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _check_surrogate(params: dict):
    """The surrogate keys obey the ranges of the model settings they stand for."""
    casts = {"C": float, "m": int, "epochs": int, "learning_rate": float}
    try:
        ModelSpec(
            "svm",
            kernel=KernelSpec("rbf", gamma=float(params.get("gamma", 1.0))),
            **{key: cast(params[key]) for key, cast in casts.items() if key in params},
        )
    except ValueError as exc:
        raise ConfigError(f"scenario.surrogate: {exc}") from None


def _count(value, where: str) -> int:
    n = int(value)
    if n < 1:
        raise ConfigError(f"{where} must be >= 1")
    return n


def parse_config(doc: dict) -> ExperimentConfig:
    """Fill defaults, validate, and build the typed experiment plan."""
    resolved = _merge(_DEFAULTS, doc)
    try:
        ds = resolved["dataset"]
        if ds["kind"] not in ("synthetic_pdf", "csv", "idx", "sparse"):
            raise ConfigError(f"dataset.kind: unknown kind {ds['kind']!r}")
        if ds["kind"] in ("csv", "sparse") and not ds.get("path"):
            raise ConfigError(f"dataset.kind={ds['kind']} requires dataset.path")
        if ds["kind"] == "idx" and not (ds.get("path") and ds.get("labels_path")):
            raise ConfigError("dataset.kind=idx requires dataset.path and dataset.labels_path")

        if not resolved["models"]:
            raise ConfigError("models: grid must be non-empty")
        model_grid = [_parse_model(m, f"models[{i}]") for i, m in enumerate(resolved["models"])]

        sc = resolved["scenario"]
        for kind in sc["kinds"]:
            if kind not in ("PK", "LK"):
                raise ConfigError(f"scenario.kinds: unknown kind {kind!r}")
        if not sc["kinds"]:
            raise ConfigError("scenario.kinds must be non-empty")
        surrogate = {k: v for k, v in sc["surrogate"].items() if v is not None}
        if "LK" in sc["kinds"]:
            if int(sc["n_q"]) < 2:
                raise ConfigError("scenario.n_q: LK requires n_q >= 2")
            _check_surrogate(surrogate)
        scenario = ScenarioSpec(
            kind=sc["kinds"][0],
            n_q=int(sc["n_q"]),
            relabel_with_target=bool(sc["relabel_with_target"]),
            n_surrogate_repeats=int(sc["n_surrogate_repeats"]),
            surrogate_params=surrogate,
        )

        atk = resolved["attack"]
        bounds_doc = atk["bounds"]
        upper = bounds_doc["upper"]
        try:
            bounds = FeatureBounds(
                lower=float(bounds_doc["lower"]),
                upper=np.inf if upper is None else float(upper),
                increment_only=bool(bounds_doc["increment_only"]),
            )
        except ValueError as exc:
            raise ConfigError(f"attack.bounds: {exc}") from None
        if not atk["d_max_grid"]:
            raise ConfigError("attack.d_max_grid must be non-empty")
        d_grid = [float(b) for b in atk["d_max_grid"]]
        if not all(math.isfinite(b) and b >= 0 for b in d_grid):
            raise ConfigError("attack.d_max_grid values must be finite and nonnegative")
        lambdas = [float(l) for l in atk["lambdas"]]
        if not all(l >= 0 for l in lambdas):
            raise ConfigError("attack.lambdas values must be nonnegative")
        kde = KdeParams(h=float(atk["kde"]["h"]), truncation_k=int(atk["kde"]["truncation_k"]))
        attack = AttackSpec(
            d_max=max(d_grid),
            step_t=float(atk["step_t"]),
            lam=0.0,
            epsilon=float(atk["epsilon"]),
            max_iters=int(atk["max_iters"]),
            bounds=bounds,
            mode=atk["mode"],
        )

        ev = resolved["evaluation"]
        fp_target = float(ev["fp_target"])
        if not (0 <= fp_target < 1):
            raise ConfigError("evaluation.fp_target must lie in [0, 1)")

        split = resolved["split"]
        return ExperimentConfig(
            seed=int(resolved["seed"]),
            output_dir=str(resolved["output_dir"]),
            jobs=_count(resolved["jobs"], "jobs"),
            dataset=ds,
            n_train=_count(split["n_train"], "split.n_train"),
            n_test=_count(split["n_test"], "split.n_test"),
            n_splits=_count(split["n_splits"], "split.n_splits"),
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
    except ConfigError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


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
    kind = ds["kind"]
    if kind == "synthetic_pdf":
        data = synthetic_pdf_dataset(
            n_legit=int(ds["n_legit"]),
            n_malicious=int(ds["n_malicious"]),
            dim=int(ds["dim"]),
            seed=cfg.seed,
        )
    elif kind == "csv":
        data = load_dense_csv(ds["path"], label_column=ds["label_column"])
    elif kind == "sparse":
        data = load_sparse_counts(ds["path"])
    else:
        data = load_idx_images(
            ds["path"], ds["labels_path"], class_neg=int(ds["class_neg"]), class_pos=int(ds["class_pos"])
        )
    if ds.get("feature_cap") is not None:
        data = cap_features(data, float(ds["feature_cap"]))
    if cfg.n_train + cfg.n_test > data.n:
        raise ConfigError(f"split.n_train + split.n_test is {cfg.n_train + cfg.n_test}, the dataset has {data.n} rows")
    return data
