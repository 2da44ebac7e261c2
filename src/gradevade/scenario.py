"""Perfect-knowledge and limited-knowledge attack orchestration.

What the attacker knows is a list of rounds (`descent_rounds`), each a
model to descend on and the mimicry estimator (KDE) it descends with. PK
descends once on the target, with a KDE over the pool. LK samples a
surrogate dataset from the pool per repeat, optionally relabels it by
querying the target through `models.predict`, trains a surrogate, and
descends on it with a KDE over that dataset. The LK attacker knows the
target's recipe, its `ModelSpec` (family and architecture), but not its
trained parameters: the surrogate is trained by `models.train_from_spec`
on that recipe with the training settings of `surrogate_spec`.

The scenario is never given the target to judge by: `run_scenario` only
descends on each round's model and hands each trace to the caller's
reducer as soon as it is made. Whether a row or a point evades the target
is the evaluation's verdict (`evaluation._run_cell`, `trace_profile`).
"""
from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .attack import AttackSpec, AttackTrace, run_attack
from .data import LEGITIMATE, MALICIOUS, Dataset, derive_seeds
from .mimicry import KdeParams, MimicryEstimator
from .models import ModelSpec, TrainedModel, predict, train_from_spec
from .models import train_kernel_svm, train_mlp  # unused: benchmarks/tracing.py wraps them in this module

SCENARIO_KINDS = ("PK", "LK")
SURROGATE_KEYS = ("C", "gamma", "m", "epochs", "learning_rate")  # the keys surrogate_spec reads


@dataclass
class ScenarioSpec:
    kind: str = "PK"
    n_q: int = 100
    relabel_with_target: bool = True
    n_surrogate_repeats: int = 5
    surrogate_params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.kind == "LK" and self.n_q < 2:
            raise ValueError("LK requires n_q >= 2")
        if self.n_surrogate_repeats < 1:
            raise ValueError("n_surrogate_repeats must be >= 1")


def build_surrogate(target: TrainedModel, pool: Dataset, spec: ScenarioSpec, seed: int) -> Dataset:
    """Draw n_q pool samples without replacement; relabel via the target if set.

    Resamples up to 10 times if a class disappears after relabeling.
    """
    if pool.n < spec.n_q:
        raise ValueError(f"pool has {pool.n} samples, surrogate needs {spec.n_q}")
    rng = np.random.default_rng(seed)
    for _ in range(10):
        idx = rng.choice(pool.n, size=spec.n_q, replace=False)
        X = pool.X[idx]  # fancy indexing: a fresh array, as is pool.y[idx]
        y = predict(target, X) if spec.relabel_with_target else pool.y[idx]
        if np.any(y == LEGITIMATE) and np.any(y == MALICIOUS):
            return Dataset(X, y)
    raise ValueError("surrogate untrainable: one class absent after 10 resampling attempts")


def surrogate_spec(target: ModelSpec, params: dict) -> ModelSpec:
    """The LK surrogate's recipe: the target's, with the heavy-penalty
    defaults C=100 and gamma=0.1, the target's width m, 2000 epochs and
    rate 1.0, each overridden by its key in `params`.

    Raises ValueError naming the key for a key it does not read, and for a
    value of the wrong type: C, gamma and learning_rate take a real number
    (widened to float), m and epochs an integer; a bool or a string is
    neither. Raises ValueError on an out-of-range value, as ModelSpec does."""
    unknown = [key for key in params if key not in SURROGATE_KEYS]
    if unknown:
        raise ValueError(f"unknown surrogate key {unknown[0]!r}")

    def value(key, default, kind, name):
        v = params.get(key, default)
        if isinstance(v, bool) or not isinstance(v, kind):
            raise ValueError(f"{key} must be {name}, not {v!r}")
        return v

    return replace(
        target,
        kernel=replace(target.kernel, gamma=float(value("gamma", 0.1, numbers.Real, "a real number"))),
        C=float(value("C", 100.0, numbers.Real, "a real number")),
        m=int(value("m", target.m, numbers.Integral, "an integer")),
        epochs=int(value("epochs", 2000, numbers.Integral, "an integer")),
        learning_rate=float(value("learning_rate", 1.0, numbers.Real, "a real number")),
    )


def _train_surrogate(target_spec: ModelSpec, data: Dataset, spec: ScenarioSpec, seed: int) -> TrainedModel:
    return train_from_spec(surrogate_spec(target_spec, spec.surrogate_params), data, seed=seed)


def round_estimator(data: Dataset, kde: KdeParams | None) -> MimicryEstimator | None:
    """The mimicry estimator of a round on `data`: `kde` over its legitimate rows, or None without `kde`."""
    return None if kde is None else kde.build(data.X[data.y == LEGITIMATE])


def descent_rounds(
    target: TrainedModel, target_spec: ModelSpec, pool: Dataset, scenario: ScenarioSpec, kde: KdeParams | None = None
) -> list[tuple[TrainedModel, MimicryEstimator | None]]:
    """(model to descend on, mimicry estimator) per attack round.

    PK: the target, once. LK: one surrogate per repeat, in repeat order,
    repeat r drawn and trained from seeds derived from `scenario.seed` and
    r. The trained `target` answers the relabelling queries; the surrogate
    is trained from its recipe `target_spec` (`surrogate_spec`). The
    estimator is `round_estimator` of the round's data: the pool under PK,
    repeat r's surrogate data under LK. The rounds depend on nothing of the
    attack, so one list serves every lambda.
    """
    if scenario.kind == "PK":
        return [(target, round_estimator(pool, kde))]
    rounds = []
    for r in range(scenario.n_surrogate_repeats):
        build_seed, train_seed = derive_seeds([scenario.seed, 0xA77AC], 2, spawn_key=(r,))
        surrogate_data = build_surrogate(target, pool, scenario, seed=build_seed)
        surrogate = _train_surrogate(target_spec, surrogate_data, scenario, seed=train_seed)
        rounds.append((surrogate, round_estimator(surrogate_data, kde)))
    return rounds


def run_scenario(
    rounds: list[tuple[TrainedModel, MimicryEstimator | None]],
    attack: AttackSpec,
    attack_set: Dataset,
    reduce: Callable[[AttackTrace], object],
) -> list[list]:
    """Attack every sample of attack_set once per round of `descent_rounds`.

    Returns one list per (model, estimator) round, in order, each holding
    `reduce(trace)` per attack_set row in row order, for a trace descended
    on the round's model with `attack` and the round's estimator as its
    mimicry term. Each trace goes to `reduce` as soon as it is made and is
    dropped before the next descent starts.
    """
    if np.any(attack_set.y != MALICIOUS):
        raise ValueError("attack_set must contain only malicious samples")
    reduced = []
    for model, estimator in rounds:
        spec = replace(attack, mimicry=estimator)
        reduced.append([reduce(run_attack(model, spec, x0)) for x0 in attack_set.X])
    return reduced
