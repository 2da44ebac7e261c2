"""Threshold calibration, FN-under-attack measurement, and security curves.

A sample counts as a false negative at budget b when its attack trace
contains a point within distance b of the start whose target score falls
below the threshold. One attack run at the largest budget therefore
serves every budget of the sweep, and FN is nondecreasing in b by
construction (larger budgets admit a superset of trace points). Curves
are rows: `aggregate_curves` returns the rows of curves.csv, one per point.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from operator import itemgetter
from types import SimpleNamespace

import numpy as np

from .attack import _FEAS_TOL, AttackSpec, AttackTrace
from .data import LEGITIMATE, MALICIOUS, Dataset, derive_seeds, split_train_test
from .kernels import _BLOCK
from .mimicry import KdeParams
from .models import ModelSpec, TrainedModel, evading, train_from_spec
from .scenario import ScenarioSpec, descent_rounds, run_scenario


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


def calibrated(model: TrainedModel, test: Dataset, fp_target: float) -> TrainedModel:
    """`model` with its decision offset set to the threshold calibrated on
    its scores for the legitimate rows of `test`."""
    legit_scores = model.discriminant_many(test.X[test.y == LEGITIMATE])
    return replace(model, decision_offset=calibrate_threshold(legit_scores, fp_target))


def trace_profile(target: TrainedModel, trace: AttackTrace):
    """(l1 distance-from-start, target score) arrays over the trace points.

    The one place a trace meets the target; whether a point evades is
    `models.evading` of its score, against the calibrated threshold.
    Each distance has the bits of `DistanceSpec().of(point, points[0])`.

    `trace.points` is never copied or written. It is scored in one batched
    call: a C-contiguous view, so the model sees what `np.stack` of the
    points would give it (scoring in row blocks would change the bits). The
    distances go through one `kernels._BLOCK`-row buffer; each row is
    reduced alone, so the block size leaves their bits as they are.
    """
    points = trace.points
    scores = target.discriminant_many(points)
    dists = np.empty(len(points))
    block = np.empty((min(len(points), _BLOCK), points.shape[1]))
    for s in range(0, len(points), _BLOCK):
        diff = np.subtract(points[s:s + _BLOCK], points[0], out=block[:len(points) - s])
        dists[s:s + _BLOCK] = np.abs(diff, out=diff).sum(axis=1)
    return dists, scores


def fn_rates(
    target: TrainedModel,
    traces: Iterable[AttackTrace],
    d_grid: list[float],
) -> list[float]:
    """Fraction of traces that evade the target within each budget of d_grid.

    `traces` may be any iterable, a lazy round of `scenario.run_scenario`
    included: each trace is reduced to its nearest evading distance as it
    arrives and released before the next one is asked for, so a descent
    never runs while a finished trace is still held here.
    """
    limits = np.asarray(d_grid, dtype=float) + _FEAS_TOL  # the attack's own budget slack
    hits = np.zeros(len(d_grid), dtype=int)
    n = 0
    # map keeps no trace between calls; a `for tr in traces` variable would
    # keep trace k alive while trace k+1 is made
    for dists, scores in map(partial(trace_profile, target), traces):
        n += 1
        evaded = evading(target, scores)
        if evaded.any():
            # some evading point lies within b exactly when the nearest one does
            hits += dists[evaded].min() <= limits
    if n == 0:
        raise ValueError("empty malicious set")
    return [h / n for h in hits]


# ---------------------------------------------------------------------------
# Sweep: (split x model) cells, each covering every lambda and scenario kind.
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    curve_rows: list  # the rows of curves.csv: classifier/scenario/lam/d_max/mean_fn/std_fn
    records: list     # dict rows: classifier/scenario/lam/split/repeat/d_max/fn
    failures: list    # dict rows: classifier/split/error, for cells that raised

    @property
    def curves(self) -> list:
        """Per curve, its classifier, scenario, lam and mean_fn column: read only
        by `benchmarks/record_digests.py`, until it reads rows (ROADMAP item 2)."""
        return [SimpleNamespace(classifier=c, scenario=s, lam=lam, mean_fn=[r["mean_fn"] for r in rows])
                for (c, s, lam), rows in groupby(self.curve_rows, itemgetter("classifier", "scenario", "lam"))]


def cell_split(dataset: Dataset, n_train: int, n_test: int, root_seed: int, split_idx: int) -> tuple[Dataset, Dataset]:
    """The (train, test) pair of split `split_idx` in a sweep seeded
    `root_seed`, shared by every model of the grid."""
    return split_train_test(dataset, n_train, n_test, seed=derive_seeds([root_seed, split_idx, 0, 1])[0])


def cell_model(spec: ModelSpec, train: Dataset, root_seed: int, split_idx: int, model_idx: int) -> TrainedModel:
    """Model `model_idx` of the grid as the sweep trains it on split
    `split_idx`'s train rows, before its threshold is calibrated."""
    return train_from_spec(spec, train, seed=derive_seeds([root_seed, split_idx, model_idx, 2])[0])


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
    train, test = cell_split(plan.dataset, plan.n_train, plan.n_test, plan.root_seed, split_idx)
    target = calibrated(cell_model(model_spec, train, plan.root_seed, split_idx, model_idx), test, plan.fp_target)
    attack_set = test.subset(np.flatnonzero(test.y == MALICIOUS))
    scen = replace(plan.scenario, seed=derive_seeds([plan.root_seed, split_idx, model_idx, 3])[0])
    # the rounds (LK: the surrogates) do not depend on lambda: built once, attacked per lambda
    descents = {kind: descent_rounds(target, model_spec, test, replace(scen, kind=kind)) for kind in plan.scenario_kinds}
    rows = []
    for lam in plan.lambdas:
        atk = replace(plan.attack, lam=lam, d_max=max(plan.d_grid))
        for kind in plan.scenario_kinds:
            for repeat, traces in enumerate(run_scenario(target, descents[kind], atk, attack_set, kde=plan.kde)):
                # counted as the round yields them: no finished trace alive during a descent
                fns = fn_rates(target, traces, plan.d_grid)
                for b, fn in zip(plan.d_grid, fns):
                    rows.append(
                        {
                            "classifier": model_spec.descriptor(),
                            "scenario": kind,
                            "lam": float(lam),
                            "split": split_idx,
                            "repeat": repeat,
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
        # imported here: a jobs=1 sweep (and the CLI's start-up) need not pay for it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_cell = list(pool.map(run, cells))
    else:
        per_cell = [run(c) for c in cells]
    records = [row for rows, _ in per_cell for row in rows]
    failures = [err for _, err in per_cell if err is not None]
    return SweepResult(curve_rows=aggregate_curves(records), records=records, failures=failures)


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


def aggregate_curves(records: list[dict]) -> list[dict]:
    """The rows of curves.csv, sorted: per (classifier, scenario, lam, d_max) point,
    the mean and population std of FN over its (split, repeat) records, as Python floats."""
    points: dict = {}
    for row in records:
        points.setdefault((row["classifier"], row["scenario"], row["lam"], row["d_max"]), []).append(row["fn"])
    return [
        {"classifier": c, "scenario": s, "lam": lam, "d_max": b,
         "mean_fn": float(np.mean(fns)), "std_fn": float(np.std(fns))}
        for (c, s, lam, b), fns in sorted(points.items())
    ]
