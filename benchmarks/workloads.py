"""Benchmark workloads: seeded inputs for `gradevade.evaluation.sweep`.

Each workload is one dataset plus a fixed list of rounds. A round is the
keyword arguments of one `sweep(...)` call; rounds differ only in the
sweep's root seed, so they draw different splits, model initialisations
and surrogate sets from the same data. The headline sweep time is the
mean over the rounds of a pass, so one degenerate draw (a failing cell
makes its round cheaper, an unlucky split makes it dearer) is averaged
with the others instead of deciding the figure; the reference digests
pin the records of every round.

Why each workload exists (which layer it stresses and which it bypasses):

- pdf_svm_discrete: the flagship config's data and discrete increment-only
  attack on linear and rbf SVMs, PK and LK, lambda in {0, 500}. The attack
  engine's per-candidate loop dominates; the KDE mimicry term runs only in
  the lambda=500 half. Training is a small share.
- pdf_mlp_train: the same data and attack, up to budget 20, on the sigmoid
  MLP at lambda=0, with one surrogate per LK cell. MLP training dominates
  here and nowhere else; PK traces stop at the first iterate on
  `zero_gradient`, so the attack engine matters little.
  Some cells fail with "surrogate untrainable" on purpose: they are part
  of the recorded output, not hidden.
- digits_continuous: a synthetic [0,1]^784 3-vs-7 style dataset with the
  continuous l1 attack of `configs/mnist_3v7.json`. The only workload on
  the projection path; dominated by kernel rows on the rbf model and
  heavy on memory (each trace keeps up to 501 points of 784 floats).

Sizes are set so one pass over the rounds takes about 25 s on a 2-core
x86-64 machine with numpy 2.4 and one BLAS thread.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from gradevade import (
    AttackSpec,
    Dataset,
    DistanceSpec,
    FeatureBounds,
    KdeParams,
    KernelSpec,
    ModelSpec,
    ScenarioSpec,
    cap_features,
    synthetic_pdf_dataset,
)
from gradevade.data import LEGITIMATE, MALICIOUS

# `--seed` picks one of this many committed input sets (seed mod N_INPUT_SETS),
# so every seed has reference digests to check the records against.
N_INPUT_SETS = 10

WORKLOAD_NAMES = ("pdf_svm_discrete", "pdf_mlp_train", "digits_continuous")


@dataclass
class Workload:
    name: str
    data_seed: int
    dataset: Dataset
    rounds: list  # sweep(...) keyword arguments, one dict per round


# ---------------------------------------------------------------------------
# Synthetic 28x28 digits: strokes of a "3" (malicious) and a "7" (legitimate).
# ---------------------------------------------------------------------------

SIDE = 28
# Polylines in (column, row) pixel coordinates.
STROKES = {
    MALICIOUS: ((7, 6), (19, 6), (13, 13), (20, 18), (8, 22)),
    LEGITIMATE: ((6, 6), (21, 6), (12, 23)),
}
VERTEX_JITTER = 0.7   # std of each stroke vertex, pixels
MAX_SHIFT = 2.0       # uniform whole-digit translation, pixels
MAX_MORPH = 0.4       # largest weight of the other digit blended into a sample
SPECKLE_RATE = 0.05   # share of pixels carrying background speckle
SPECKLE_LEVEL = 0.5   # speckle intensity upper bound

_PIXELS = np.stack(np.meshgrid(np.arange(SIDE), np.arange(SIDE)), axis=-1).reshape(-1, 2).astype(float)


def _render(vertices: np.ndarray, width: float) -> np.ndarray:
    """Gaussian-profile polyline: exp(-dist^2 / 2 width^2) per pixel."""
    d2 = np.full(len(_PIXELS), np.inf)
    for a, b in zip(vertices[:-1], vertices[1:]):
        ab = b - a
        t = np.clip((_PIXELS - a) @ ab / max(float(ab @ ab), 1e-12), 0.0, 1.0)
        nearest = a + t[:, None] * ab
        d2 = np.minimum(d2, ((_PIXELS - nearest) ** 2).sum(axis=1))
    return np.exp(-d2 / (2.0 * width * width))


def synthetic_digits(n_per_class: int, seed: int) -> Dataset:
    """Seeded 784-d dataset in [0, 1]: jittered 3s (+1) and 7s (-1).

    Each sample blends in a uniform share (up to MAX_MORPH) of the other
    digit, so distances to the class boundary spread evenly: the classes
    stay separable at zero budget, and the attack budget of the workload
    evades part of the samples but not all of them.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    X, y = [], []
    for label in (LEGITIMATE, MALICIOUS):
        own, other = (np.asarray(STROKES[k], dtype=float) for k in (label, -label))
        for _ in range(n_per_class):
            shift = rng.uniform(-MAX_SHIFT, MAX_SHIFT, size=2)
            width = rng.uniform(0.8, 1.3)
            images = [
                _render(base + shift + rng.normal(0.0, VERTEX_JITTER, size=base.shape), width) for base in (own, other)
            ]
            morph = rng.uniform(0.0, MAX_MORPH)
            img = ((1.0 - morph) * images[0] + morph * images[1]) * rng.uniform(0.7, 1.0)
            speckle = (rng.random(SIDE * SIDE) < SPECKLE_RATE) * rng.uniform(0.0, SPECKLE_LEVEL, SIDE * SIDE)
            X.append(np.clip(img + speckle, 0.0, 1.0))
            y.append(label)
    return Dataset(np.array(X), np.array(y))


# ---------------------------------------------------------------------------
# Workload definitions.
# ---------------------------------------------------------------------------

PDF_SCENARIO = ScenarioSpec(
    n_q=100,
    relabel_with_target=True,
    n_surrogate_repeats=5,
    surrogate_params={"C": 100.0, "gamma": 0.002},
)
PDF_ATTACK = AttackSpec(
    distance=DistanceSpec("l1"),
    step_t=1.0,
    step_norm="l2",
    epsilon=1e-9,
    max_iters=500,
    bounds=FeatureBounds(lower=0.0, upper=100.0, increment_only=True),
    mode="discrete",
)
PDF_KDE = KdeParams(kernel_kind="laplacian", h=10.0, truncation_k=50, grad_form="corrected")
PDF_D_GRID = [float(b) for b in range(0, 51, 5)]
# LK descents on an MLP surrogate cost from a tenth to as much as the
# target's training, depending on the surrogate drawn; a shorter budget
# keeps the training, which every cell pays, the larger share
MLP_D_GRID = [float(b) for b in range(0, 21, 5)]

DIGITS_ATTACK = AttackSpec(
    distance=DistanceSpec("l1"),
    step_t=10.0 / 255.0,
    step_norm="l1",
    epsilon=1e-9,
    max_iters=500,
    bounds=FeatureBounds(lower=0.0, upper=1.0, increment_only=False),
    mode="continuous",
)
# the d_max grid of configs/mnist_3v7.json: 0 .. 19.6 in steps of 1000/255
DIGITS_D_GRID = [0.0, 3.9215686274509802, 7.8431372549019605, 11.764705882352942, 15.686274509803921, 19.607843137254903]

# (rounds, dataset and sweep settings) per workload; model grid order is
# fixed because cell seeds depend on a model's index in the grid.
SIZES = {
    "pdf_svm_discrete": {"rounds": 3, "n_train": 500, "n_test": 100},
    "pdf_mlp_train": {"rounds": 7, "n_train": 500, "n_test": 100},
    "digits_continuous": {"rounds": 3, "n_per_class": 200, "n_train": 200, "n_test": 40},
}


def _pdf_dataset(data_seed: int) -> Dataset:
    return cap_features(synthetic_pdf_dataset(n_legit=500, n_malicious=500, dim=100, seed=data_seed), 100.0)


def _sweep_args(size: dict, **kwargs) -> dict:
    common = {
        "n_splits": 1,
        "n_train": size["n_train"],
        "n_test": size["n_test"],
        "fp_target": 0.005,
        "jobs": 1,
    }
    common.update(kwargs)
    return common


def build_workload(name: str, seed: int) -> Workload:
    """Generate the workload's dataset and per-round sweep arguments from `seed`."""
    if name not in WORKLOAD_NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOAD_NAMES)}")
    data_seed = int(seed) % N_INPUT_SETS
    size = SIZES[name]
    if name == "pdf_svm_discrete":
        dataset = _pdf_dataset(data_seed)
        base = _sweep_args(
            size,
            model_grid=[
                ModelSpec("linear_svm", C=1.0),
                ModelSpec("svm", C=1.0, kernel=KernelSpec("rbf", gamma=0.002)),
            ],
            scenario=PDF_SCENARIO,
            scenario_kinds=["PK", "LK"],
            attack=PDF_ATTACK,
            lambdas=[0.0, 500.0],
            d_max_grid=PDF_D_GRID,
            kde=PDF_KDE,
        )
    elif name == "pdf_mlp_train":
        dataset = _pdf_dataset(data_seed)
        base = _sweep_args(
            size,
            model_grid=[ModelSpec("mlp", m=10, epochs=10000, learning_rate=10.0)],
            # one surrogate per cell: surrogate training and LK descents are
            # skipped by a failing cell, so they are kept small next to the
            # target's training, which every cell pays
            scenario=replace(PDF_SCENARIO, n_surrogate_repeats=1),
            scenario_kinds=["PK", "LK"],
            attack=PDF_ATTACK,
            lambdas=[0.0],
            d_max_grid=MLP_D_GRID,
            kde=PDF_KDE,
        )
    else:
        dataset = synthetic_digits(size["n_per_class"], seed=data_seed)
        base = _sweep_args(
            size,
            model_grid=[
                ModelSpec("linear_svm", C=1.0),
                ModelSpec("svm", C=1.0, kernel=KernelSpec("rbf", gamma=0.01)),
            ],
            scenario=ScenarioSpec(kind="PK"),
            scenario_kinds=["PK"],
            attack=DIGITS_ATTACK,
            lambdas=[0.0],
            d_max_grid=DIGITS_D_GRID,
            kde=None,
        )
    rounds = [
        dict(base, seed=int(np.random.SeedSequence([data_seed, r, 0xBE7C]).generate_state(1)[0]))
        for r in range(size["rounds"])
    ]
    return Workload(name=name, data_seed=data_seed, dataset=dataset, rounds=rounds)
