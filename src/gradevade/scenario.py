"""Perfect-knowledge and limited-knowledge attack orchestration.

PK descends on the target's own objective. LK samples a surrogate dataset
from a pool, optionally relabels it by querying the target, trains a
surrogate of the same family, and descends on the surrogate's objective.
The traces record only the descent; whether they evade the target is
judged by the evaluation (`evaluation.trace_profile`), never here. The
target is never touched during LK descent except through `models.predict`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .attack import AttackSpec, AttackTrace, run_attack
from .data import LEGITIMATE, MALICIOUS, Dataset
from .kernels import KernelSpec
from .mimicry import KdeParams
from .models import (
    LinearModel,
    MlpModel,
    SvmModel,
    TrainedModel,
    predict,
    train_kernel_svm,
    train_linear_svm,
    train_mlp,
)

SCENARIO_KINDS = ("PK", "LK")


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
        X = pool.X[idx].copy()
        if spec.relabel_with_target:
            y = predict(target, X)
        else:
            y = pool.y[idx].copy()
        if np.any(y == LEGITIMATE) and np.any(y == MALICIOUS):
            return Dataset(X, y, pool.feature_names)
    raise ValueError("surrogate untrainable: one class absent after 10 resampling attempts")


def _train_surrogate(target: TrainedModel, data: Dataset, spec: ScenarioSpec, seed: int) -> TrainedModel:
    """Same family as the target, with heavy-penalty defaults (C=100, gamma=0.1)."""
    params = spec.surrogate_params
    C = float(params.get("C", 100.0))
    if isinstance(target, LinearModel):
        return train_linear_svm(data, C=C)
    if isinstance(target, SvmModel):
        k = target.kernel
        kernel = KernelSpec(
            kind=k.kind,
            gamma=float(params.get("gamma", 0.1)) if k.kind == "rbf" else k.gamma,
            degree=k.degree,
            coef0=k.coef0,
        )
        return train_kernel_svm(data, kernel, C=C)
    if isinstance(target, MlpModel):
        return train_mlp(
            data,
            m=int(params.get("m", target.m)),
            epochs=int(params.get("epochs", 2000)),
            learning_rate=float(params.get("learning_rate", 1.0)),
            seed=seed,
        )
    raise TypeError(f"unknown target model type {type(target).__name__}")


def _already_evading_trace(target: TrainedModel, x0: np.ndarray, sample_index: int, repeat: int | None) -> AttackTrace:
    return AttackTrace([np.asarray(x0, float).copy()], [target.discriminant(x0)], "converged", sample_index, repeat)


def _descents(
    target: TrainedModel,
    pool: Dataset,
    attack: AttackSpec,
    scenario: ScenarioSpec,
    kde: KdeParams | None,
    surrogates: list,
):
    """(model to descend on, attack spec with its KDE, repeat tag) per attack round.

    PK yields the target once, tagged None. LK yields one surrogate per
    repeat, its KDE built from the surrogate's legitimate rows. Repeat r
    reuses surrogates[r], a (surrogate data, surrogate) pair, when the
    list has one, and otherwise trains it and appends it.
    """
    if scenario.kind == "PK":
        if attack.lam > 0 and attack.mimicry is None:
            legit = pool.X[pool.y == LEGITIMATE]
            if len(legit) == 0:
                raise ValueError("pool has no legitimate samples for the mimicry estimator")
            attack = replace(attack, mimicry=kde.build(legit))
        yield target, attack, None
        return
    seeds = np.random.SeedSequence([scenario.seed, 0xA77AC]).spawn(scenario.n_surrogate_repeats)
    for r, seed in enumerate(seeds):
        if r == len(surrogates):
            child = seed.generate_state(2)
            surrogate_data = build_surrogate(target, pool, scenario, seed=int(child[0]))
            surrogate = _train_surrogate(target, surrogate_data, scenario, seed=int(child[1]))
            surrogates.append((surrogate_data, surrogate))
        surrogate_data, surrogate = surrogates[r]
        spec_run = attack
        if attack.lam > 0:
            legit = surrogate_data.X[surrogate_data.y == LEGITIMATE]
            params = kde if kde is not None else KdeParams.from_estimator(attack.mimicry)
            spec_run = replace(attack, mimicry=params.build(legit))
        yield surrogate, spec_run, r


def run_scenario(
    target: TrainedModel,
    pool: Dataset,
    attack: AttackSpec,
    scenario: ScenarioSpec,
    attack_set: Dataset,
    kde: KdeParams | None = None,
    surrogates: list | None = None,
) -> list[AttackTrace]:
    """Attack every sample of attack_set under the given knowledge scenario.

    Returns one trace per (sample, surrogate repeat); PK uses a single
    repeat tagged None. Samples the target already misclassifies are not
    descended on: they count as evading at every budget and are recorded
    as single-point traces.

    `surrogates` (LK only) holds the (surrogate data, surrogate) pair of
    each repeat: pairs already in the list are reused, the ones this call
    trains are appended. Calls with the same target, pool and scenario
    that differ only in `attack` (its lambda) can share one list.
    """
    if np.any(attack_set.y != MALICIOUS):
        raise ValueError("attack_set must contain only malicious samples")
    if attack.lam > 0 and kde is None and attack.mimicry is None:
        raise ValueError("lam > 0 requires kde parameters or a prebuilt estimator")

    start_preds = predict(target, attack_set.X)
    to_attack = np.flatnonzero(start_preds == MALICIOUS)
    skipped = np.flatnonzero(start_preds == LEGITIMATE)

    traces: list[AttackTrace] = []
    surrogates = [] if surrogates is None else surrogates
    for model, spec_run, repeat in _descents(target, pool, attack, scenario, kde, surrogates):
        for i in skipped:
            traces.append(_already_evading_trace(target, attack_set.X[i], int(i), repeat))
        for i in to_attack:
            tr = run_attack(model, spec_run, attack_set.X[i])
            tr.sample_index, tr.repeat = int(i), repeat
            traces.append(tr)
    return traces
