"""Threshold calibration, FN-under-attack measurement, and security curves.

A sample counts as a false negative at budget b when its attack trace
contains a point within distance b of the start whose target score falls
below the threshold. One attack run at the largest budget therefore
serves every budget of the sweep, and FN is nondecreasing in b by
construction (larger budgets admit a superset of trace points).
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .attack import AttackSpec, AttackTrace, DistanceSpec
from .data import LEGITIMATE, MALICIOUS, Dataset, split_train_test
from .mimicry import KdeParams
from .models import ModelSpec, TrainedModel, train_from_spec
from .scenario import ScenarioSpec, run_scenario


@dataclass
class SecurityCurve:
    classifier: str
    scenario: str
    lam: float
    fp_target: float
    d_max: np.ndarray
    mean_fn: np.ndarray
    std_fn: np.ndarray

    def __post_init__(self):
        self.d_max = np.asarray(self.d_max, dtype=float)
        self.mean_fn = np.asarray(self.mean_fn, dtype=float)
        self.std_fn = np.asarray(self.std_fn, dtype=float)
        if len(self.d_max) == 0:
            raise ValueError("curve must have at least one point")
        if np.any(np.diff(self.d_max) <= 0):
            raise ValueError("d_max values must be strictly increasing")
        if np.any((self.mean_fn < 0) | (self.mean_fn > 1)):
            raise ValueError("mean FN rates must lie in [0, 1]")

    def slug(self) -> str:
        safe = "".join(c if c.isalnum() or c in "._-" else "_" for c in self.classifier)
        return f"{safe}_{self.scenario}_lam{self.lam:g}"


def calibrate_threshold(legit_scores, fp_target: float) -> float:
    """Smallest threshold theta with fraction{score >= theta} <= fp_target.

    With k = floor(fp_target * n) allowed false positives, theta is the
    next float above the (k+1)-th largest legitimate score, so exactly
    the scores strictly above that order statistic trip the detector.
    """
    scores = np.asarray(legit_scores, dtype=float)
    if scores.size == 0:
        raise ValueError("legit_scores must be non-empty")
    if not (0 <= fp_target < 1):
        raise ValueError("fp_target must lie in [0, 1)")
    k = int(np.floor(fp_target * scores.size))
    order_stat = np.sort(scores)[::-1][k]
    return float(np.nextafter(order_stat, np.inf))


def trace_profile(target: TrainedModel, trace: AttackTrace, distance: DistanceSpec):
    """(distance-from-start, target score) arrays over the trace points.

    The one place a trace meets the target: a point evades where its score
    minus `target.decision_offset` (the calibrated threshold) is negative.
    """
    scores = target.discriminant_many(np.stack(trace.points))
    return trace.distances_from_start(distance), scores


def fn_rates(
    target: TrainedModel,
    traces: list[AttackTrace],
    d_grid: list[float],
    distance: DistanceSpec,
) -> list[float]:
    """Fraction of traces that evade the target within each budget of d_grid."""
    if not traces:
        raise ValueError("empty malicious set")
    hits = np.zeros(len(d_grid), dtype=int)
    for tr in traces:
        dists, scores = trace_profile(target, tr, distance)
        evading = scores - target.decision_offset < 0
        hits += [bool(np.any(evading[dists <= b + 1e-9])) for b in d_grid]
    return [h / len(traces) for h in hits]


# ---------------------------------------------------------------------------
# Sweep: (split x model) cells, each covering every lambda and scenario kind.
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    curves: list
    records: list   # dict rows: classifier/scenario/lam/split/repeat/d_max/fn
    failures: list  # dict rows: classifier/split/error, for cells that raised


def _cell_seed(root: int, split_idx: int, model_idx: int, salt: int) -> int:
    return int(np.random.SeedSequence([root, split_idx, model_idx, salt]).generate_state(1)[0])


@dataclass(frozen=True)
class _SweepPlan:
    """What every (split, model) cell of one sweep shares; fields follow sweep's signature."""

    dataset: Dataset
    scenario: ScenarioSpec
    scenario_kinds: list
    attack: AttackSpec
    lambdas: list
    d_grid: list    # sorted d_max_grid
    n_train: int
    n_test: int
    fp_target: float
    kde: KdeParams | None
    root_seed: int


def _run_cell(plan: _SweepPlan, cell: tuple[int, int, ModelSpec]) -> list[dict]:
    split_idx, model_idx, model_spec = cell
    train, test = split_train_test(
        plan.dataset, plan.n_train, plan.n_test, seed=_cell_seed(plan.root_seed, split_idx, 0, 1)
    )
    model = train_from_spec(model_spec, train, seed=_cell_seed(plan.root_seed, split_idx, model_idx, 2))
    legit_scores = model.discriminant_many(test.X[test.y == LEGITIMATE])
    target = replace(model, decision_offset=calibrate_threshold(legit_scores, plan.fp_target))
    attack_set = test.subset(np.flatnonzero(test.y == MALICIOUS))
    rows = []
    surrogates: list = []   # LK surrogates are independent of lambda: trained once, shared
    for lam in plan.lambdas:
        for kind in plan.scenario_kinds:
            scen = replace(plan.scenario, kind=kind, seed=_cell_seed(plan.root_seed, split_idx, model_idx, 3))
            atk = replace(plan.attack, lam=lam, d_max=max(plan.d_grid), mimicry=None)
            traces = run_scenario(target, test, atk, scen, attack_set, kde=plan.kde, surrogates=surrogates)
            by_repeat: dict = {}
            for tr in traces:
                by_repeat.setdefault(tr.repeat, []).append(tr)
            for repeat, group in sorted(by_repeat.items(), key=lambda kv: (kv[0] is None, kv[0])):
                fns = fn_rates(target, group, plan.d_grid, plan.attack.distance)
                for b, fn in zip(plan.d_grid, fns):
                    rows.append(
                        {
                            "classifier": model_spec.descriptor(),
                            "scenario": kind,
                            "lam": float(lam),
                            "split": split_idx,
                            "repeat": 0 if repeat is None else int(repeat),
                            "d_max": float(b),
                            "fn": float(fn),
                        }
                    )
    return rows


def sweep(
    dataset: Dataset,
    model_grid: list[ModelSpec],
    scenario: ScenarioSpec,
    scenario_kinds: list[str],
    attack: AttackSpec,
    lambdas: list[float],
    d_max_grid: list[float],
    n_splits: int,
    n_train: int,
    n_test: int,
    fp_target: float,
    kde: KdeParams | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> SweepResult:
    """Train, calibrate, attack, and aggregate over the whole grid.

    Deterministic given `seed`: every cell derives its seeds from its own
    (split, model) coordinates, so scheduling order does not matter.
    """
    if not model_grid or not d_max_grid or not lambdas or not scenario_kinds:
        raise ValueError("model grid, d_max grid, lambdas, and scenario kinds must be non-empty")
    plan = _SweepPlan(
        dataset, scenario, list(scenario_kinds), attack, list(lambdas), sorted(float(b) for b in d_max_grid),
        n_train, n_test, fp_target, kde, seed,
    )
    run = partial(_run_cell_safe, plan)
    cells = [(si, mi, ms) for si in range(n_splits) for mi, ms in enumerate(model_grid)]
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(run, cells))
    else:
        per_cell = [run(c) for c in cells]
    records = [row for rows, _ in per_cell for row in rows]
    failures = [err for _, err in per_cell if err is not None]
    return SweepResult(curves=aggregate_curves(records, fp_target), records=records, failures=failures)


def _run_cell_safe(plan: _SweepPlan, cell: tuple[int, int, ModelSpec]):
    """Isolate one cell; a failing cell reports itself instead of killing the sweep."""
    try:
        return _run_cell(plan, cell), None
    except Exception as exc:
        split_idx, _, model_spec = cell
        return [], {
            "classifier": model_spec.descriptor(),
            "split": int(split_idx),
            "error": f"{type(exc).__name__}: {exc}",
        }


def aggregate_curves(records: list[dict], fp_target: float) -> list[SecurityCurve]:
    """Mean and std of FN over (split, repeat) cells, per curve and budget."""
    groups: dict = {}
    for row in records:
        key = (row["classifier"], row["scenario"], row["lam"])
        groups.setdefault(key, {}).setdefault(row["d_max"], []).append(row["fn"])
    curves = []
    for (classifier, scen, lam), series in sorted(groups.items()):
        d_vals = np.array(sorted(series))
        means = np.array([np.mean(series[b]) for b in d_vals])
        stds = np.array([np.std(series[b]) for b in d_vals])
        curves.append(
            SecurityCurve(
                classifier=classifier,
                scenario=scen,
                lam=lam,
                fp_target=fp_target,
                d_max=d_vals,
                mean_fn=means,
                std_fn=stds,
            )
        )
    return curves
