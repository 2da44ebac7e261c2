"""Perfect-knowledge and limited-knowledge attack orchestration.

The two knowledge levels differ only in the models the attacker descends
on, so each is a list of rounds (`descent_rounds`): PK descends on the
target's own objective once. LK samples a surrogate dataset from a pool
per repeat, optionally relabels it by querying the target, trains a
surrogate, and descends on the surrogate's objective. The LK attacker knows
the target's recipe, its `ModelSpec` (family and architecture), but not its
trained parameters: the surrogate is trained by `models.train_from_spec` on
that recipe with the training settings of `surrogate_spec`.

The traces record only the descent; whether they evade the target is
judged by the evaluation (`evaluation.trace_profile`), never here. The
target is never touched during LK descent except through `models.predict`.

`run_scenario` attacks a list of rounds and streams: its rounds and each
round's traces are lazy iterators that keep no trace once it is yielded.
A caller that reduces each trace as it arrives and lets it go before
asking for the next (`evaluation.fn_rates`) holds one trace at a time, not
a round of them, and none while a descent runs.
"""
from __future__ import annotations

import numbers
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .attack import AttackSpec, AttackTrace, run_attack
from .data import LEGITIMATE, MALICIOUS, Dataset, derive_seeds
from .mimicry import KdeParams
from .models import ModelSpec, TrainedModel, evading, predict, train_from_spec
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


def descent_rounds(
    target: TrainedModel, target_spec: ModelSpec, pool: Dataset, scenario: ScenarioSpec
) -> list[tuple[Dataset, TrainedModel]]:
    """(data the KDE is built from, model to descend on) per attack round.

    PK: the pool and the target, once. LK: one (surrogate data, surrogate)
    pair per repeat, in repeat order, repeat r drawn and trained from seeds
    derived from `scenario.seed` and r. The trained `target` answers the
    relabelling queries; the surrogate is trained from its recipe
    `target_spec` (`surrogate_spec`). The rounds depend on nothing of the
    attack, so one list serves every lambda.
    """
    if scenario.kind == "PK":
        return [(pool, target)]
    rounds = []
    for r in range(scenario.n_surrogate_repeats):
        build_seed, train_seed = derive_seeds([scenario.seed, 0xA77AC], 2, spawn_key=(r,))
        surrogate_data = build_surrogate(target, pool, scenario, seed=build_seed)
        rounds.append((surrogate_data, _train_surrogate(target_spec, surrogate_data, scenario, seed=train_seed)))
    return rounds


def with_mimicry(attack: AttackSpec, kde: KdeParams | None, data: Dataset) -> AttackSpec:
    """`attack` as run against a round with KDE data `data`: with lam > 0,
    its mimicry estimator is built from `kde` over the legitimate rows of
    `data` (an estimator already in `attack` is replaced)."""
    if attack.lam > 0:
        return replace(attack, mimicry=kde.build(data.X[data.y == LEGITIMATE]))
    return attack


def _traces(model: TrainedModel, spec: AttackSpec, X: np.ndarray, start_scores: np.ndarray, start_evades: np.ndarray):
    """One round's traces, in row order: a descent on `model` for each row
    that does not evade the target at its start, and for the others a
    single-point trace holding the target's score of the row from `start_scores`.

    A function, not a nested generator expression in `run_scenario`: its
    arguments bind this round's model and spec when the round is created,
    where a nested expression would look them up when each trace is made.
    """
    for x0, score, evades in zip(X, start_scores, start_evades):
        if evades:
            yield AttackTrace([x0], [float(score)], "converged")
        else:
            yield run_attack(model, spec, x0)


def run_scenario(
    target: TrainedModel,
    rounds: list[tuple[Dataset, TrainedModel]],
    attack: AttackSpec,
    attack_set: Dataset,
    kde: KdeParams | None = None,
) -> Iterator[Iterator[AttackTrace]]:
    """Attack every sample of attack_set once per round of `descent_rounds`.

    Returns a lazy iterator with one attack round per (KDE data, model)
    pair of `rounds`, in order, each a lazy iterator of one trace per
    attack_set row in row order, descended on the round's model. The input
    checks and the target's one batched scoring of the rows run in this
    call; everything else runs as the rounds are consumed. Each round's model and attack
    spec (`with_mimicry` over its data) are bound when the round is
    created, so rounds may be consumed in any order once reached. A sample
    that already evades the target (`models.evading`) is not descended on:
    it counts as evading at every budget, recorded as a single-point trace.
    """
    if np.any(attack_set.y != MALICIOUS):
        raise ValueError("attack_set must contain only malicious samples")
    if attack.lam > 0 and kde is None:
        raise ValueError("lam > 0 requires kde parameters")

    start_scores = target.discriminant_many(attack_set.X)
    start_evades = evading(target, start_scores)
    return (_traces(model, with_mimicry(attack, kde, data), attack_set.X, start_scores, start_evades)
            for data, model in rounds)
